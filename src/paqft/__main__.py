"""``python -m paqft <subcommand> ...``: the same driver as ``paqft``."""

import sys

from .cli import main

sys.exit(main())
