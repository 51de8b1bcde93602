#!/usr/bin/env python3
"""Time the kernel layer and the contraction layer.

Kernel layer: the six-kernel build and `kernel_residuals`, per lattice
size.  Contraction layer (the `contract` entry): at the default 12x16
working point, the units of `paqft axioms --set samples.count=5` and of
`paqft extract-z`, run serially in one process, with
`StarAlgebraContext._contract` wrapped from outside to add up its seconds
and calls (the commands themselves run their units in forked workers,
which a wrapper in the parent cannot see).

Each entry runs in RUNS fresh processes, one after another; the figures
are the medians over those processes.  The result is stored in --out
under --label, next to the labels already there, with the machine it ran
on, so one file can hold a before and an after; a label run again on other
entries keeps the ones it had:

    python3 scripts/bench_kernels.py --label parent --src /path/to/old/src
    python3 scripts/bench_kernels.py --label change
    python3 scripts/bench_kernels.py --label change --sizes contract

--src is the source tree whose `paqft` is timed (default: this checkout's
`src/`); the wrapper uses only names the trees share (`cli.SUITES`,
`cli._build`, `cli._extract_z_units`, `StarAlgebraContext._contract`).
Each label also records `src_lines`, the line count of that tree's
`paqft/*.py`.  The mass is 0.5, the default working point.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MASS = 0.5
RUNS = 3
SAMPLES = 5  # samples.count of the axioms units in the contract entry
WHAT = ("seconds in process, median of fresh processes per entry, m = 0.5; "
        "sizes: six-kernel build and kernel_residuals; contract: "
        "StarAlgebraContext._contract in the serial axioms and extract-z "
        "units at 12x16")
KERNELS = ("green_retarded", "green_advanced", "pauli_jordan",
           "hadamard_kernel", "wightman", "feynman")


def child(size: str) -> None:
    """One timed process: build the six kernels, then the residuals."""
    from paqft.lattice import Lattice, kernel_residuals

    nt, nx = map(int, size.split("x"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        t0 = time.perf_counter()
        lat = Lattice(nt, nx, MASS)
        for name in KERNELS:
            getattr(lat, name)()
        t1 = time.perf_counter()
        kernel_residuals(lat)
        t2 = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"build_s": t1 - t0, "residuals_s": t2 - t1,
                      "peak_rss_mb": peak_kb / 1024}))


def contract_child() -> None:
    """One timed process: the axioms (samples.count=SAMPLES) and extract-z
    units at 12x16, serially, each command on its own S-matrix."""
    from paqft import cli
    from paqft.star_algebra import StarAlgebraContext

    inner = StarAlgebraContext._contract
    spent = {"contract_s": 0.0, "contract_calls": 0}

    def timed(self, F, G, kernel):
        t0 = time.perf_counter()
        try:
            return inner(self, F, G, kernel)
        finally:
            spent["contract_s"] += time.perf_counter() - t0
            spent["contract_calls"] += 1

    StarAlgebraContext._contract = timed
    cfg = cli.load_config(None, [f"samples.count={SAMPLES}"])
    lat, S = cli._build(cfg)
    units = [u for name in cfg["suites"]
             for u in cli.SUITES[name](cfg, lat, S)]
    lat, S = cli._build(cfg)
    f_units, z_units = cli._extract_z_units(cfg, lat, S)
    units += f_units + z_units
    t0 = time.perf_counter()
    for unit in units:
        unit()
    spent["units_s"] = time.perf_counter() - t0
    spent["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(spent))


def machine() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def src_lines(src: Path) -> int:
    """Lines of the timed tree's `paqft/*.py`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (src / "paqft").glob("*.py"))


def measure(entry: str, src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(RUNS):
        out = subprocess.run(
            [sys.executable, __file__, "--child", entry], env=env,
            capture_output=True, text=True, check=True)
        samples.append(json.loads(out.stdout))
    row = {key: statistics.median(s[key] for s in samples)
           for key in samples[0]}
    row["runs"] = samples
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--label", default="change")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--sizes", default="16x32,24x48,32x64,contract",
                    help="comma-separated NTxNX lattice sizes for the kernel "
                         "layer, and `contract` for the contraction layer")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_kernels.json")
    args = ap.parse_args(argv)
    if args.child == "contract":
        contract_child()
        return 0
    if args.child:
        child(args.child)
        return 0

    bench = json.loads(args.out.read_text()) if args.out.exists() else {
        "labels": {}}
    # a label run again keeps the entries it does not re-measure
    label = bench["labels"].setdefault(args.label, {})
    label.update(machine=machine(), runs=RUNS, src_lines=src_lines(args.src))
    label.setdefault("sizes", {})
    for size in args.sizes.split(","):
        if size == "contract":
            row = label["contract"] = measure(size, args.src.resolve())
            print(f"{args.label} contract: _contract {row['contract_s']:.3f} s"
                  f" over {row['contract_calls']} calls, units "
                  f"{row['units_s']:.3f} s")
            continue
        row = label["sizes"][size] = measure(size, args.src.resolve())
        print(f"{args.label} {size}: build {row['build_s']:.3f} s, "
              f"kernel_residuals {row['residuals_s']:.3f} s, "
              f"peak RSS {row['peak_rss_mb']:.0f} MB")
    bench["what"] = WHAT
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
