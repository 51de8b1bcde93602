"""``python -m paqft <subcommand> ...``: the same driver as ``paqft``."""

from .cli import run

run()
