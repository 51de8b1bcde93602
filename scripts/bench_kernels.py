#!/usr/bin/env python3
"""Time the kernel layer: the six-kernel build and `kernel_residuals`.

Each lattice size runs in RUNS fresh processes, one after another; the
figures are the medians over those processes.  The result is stored in
--out under --label, next to the labels already there, with the machine
it ran on, so one file can hold a before and an after:

    python3 scripts/bench_kernels.py --label parent --src /path/to/old/src
    python3 scripts/bench_kernels.py --label change

--src is the source tree whose `paqft` is timed (default: this checkout's
`src/`); each label also records `src_lines`, the line count of that
tree's `paqft/*.py`.  The mass is 0.5, the default working point.
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


def measure(size: str, src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(RUNS):
        out = subprocess.run(
            [sys.executable, __file__, "--child", size], env=env,
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
    ap.add_argument("--sizes", default="16x32,24x48,32x64",
                    help="comma-separated NTxNX lattice sizes")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_kernels.json")
    args = ap.parse_args(argv)
    if args.child:
        child(args.child)
        return 0

    sizes = {}
    for size in args.sizes.split(","):
        sizes[size] = measure(size, args.src.resolve())
        print(f"{args.label} {size}: build {sizes[size]['build_s']:.3f} s, "
              f"kernel_residuals {sizes[size]['residuals_s']:.3f} s, "
              f"peak RSS {sizes[size]['peak_rss_mb']:.0f} MB")
    bench = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": "six-kernel build and kernel_residuals, seconds in process; "
                "median of fresh processes per size, m = 0.5",
        "labels": {}}
    bench["labels"][args.label] = {"machine": machine(), "runs": RUNS,
                                   "sizes": sizes,
                                   "src_lines": src_lines(args.src)}
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
