#!/usr/bin/env python3
"""Time the kernel layer, the contraction and series layers and start-up.

Kernel layer: the six-kernel build and `kernel_residuals`, per lattice
size.  Contraction layer (the `contract` entry): at the default 12x16
working point, the units of `paqft axioms --set samples.count=5` and of
`paqft extract-z`, run serially in one process, with the contraction
entry wrapped from outside to add up its seconds and calls (the commands
themselves run their units in forked workers, which a wrapper in the
parent cannot see): `StarAlgebraContext.contract_sum`, or `_contract` in
a tree that has no `contract_sum`; `axioms_units_s` and
`extract_units_s` time each command's units, and `units_s` is their
sum; the units run with the cyclic garbage collector off, as in the
commands' workers.  The `contract-l4` entry runs the same units at
`caps.lambda_order=4`, where the contraction's share of the units is
larger.  The series layer (the `series` entry): the same axioms units,
serially, with `SMatrix.series`, `multiply` and `invert` and the parts
entry `terms_at_sum` (where the tree has it) wrapped to add up their
seconds and calls.  The extraction layer (the `extract` entry): the
extract-z units, serially, with the outermost calls of the extracted
map's evaluator (`extracted`: the family evaluator of the map that
`extracted_map` returns, mixed or diagonal, whichever the tree gives it)
and of `extract_Z`, `compose_SZ` and `polarize` timed and counted (a
tree that no longer calls one counts zero for it), and the monomials
that `PolyFunctional.scaled`, the sums and differences (`__add__` and
`__sub__`), `weighted_sum` and `distance` (each where the tree has it)
visit counted: a scaling visits its operand's monomials, a sum, a
difference and a distance both operands' and a weighted sum every
term's, each at the outermost of these calls only, so a sum that is
itself a weighted sum counts once (the counting adds about 1 us per call
to the times).  Both entries also count `contract_pairs`, the monomial
pairs that the contraction entry receives (the product of the two
operands' monomial counts, summed over its pairs), a count that does
not depend on timing.  Each of these four entries named with the suffix
`:1` (`contract:1`, `contract-l4:1`, `series:1`, `extract:1`) runs only
the first unit of each axioms suite and of each list of extract-z units
(the sampled functionals, the extracted map's suite): the same fields
in a fraction of the time, for checking their shape.  The unit runner
(the `pool` entry): in a fresh process that has imported `paqft.cli`,
the wall of `cli._run_units([list] * POOL_UNITS)`, units that do no
work, so it times what the runner itself costs: its imports, forks,
dispatch and reaping.
Start-up (the `startup` entry): the spawn-to-exit wall of
`python -m paqft.cli propagators` at 16x32, and of
`python -c "import numpy, os; os._exit(0)"` as its floor, both timed from
this process (the floor skips interpreter teardown, as `paqft.cli.run`
does with `os._exit`; a floor that paid for teardown could read above
the CLI).  The test suite (the `tier1` entry): the
wall of `python -m pytest -q -p no:cacheprovider <tree>/tests` with
PYTHONPATH=<tree>/src, where <tree> is the parent directory of the timed
`src`, run from an empty temporary directory so that no cache lands in
the tree; it records the passed count, and any failed test fails the
entry.

Each entry runs in --runs fresh processes (default 3), one after another;
the figures are the medians over those processes.  The result is stored in
--out under --label, next to the labels already there, with the machine it
ran on, so one file can hold a before and an after; a label run again on
other entries keeps the ones it had.  The machine block also records
whether the timed children write bytecode (`writes_bytecode`:
PYTHONDONTWRITEBYTECODE unset in the environment they inherit), since a
child that cannot cache it compiles every paqft module it loads:

    python3 scripts/bench_kernels.py --label parent --src /path/to/old/src
    python3 scripts/bench_kernels.py --label change
    python3 scripts/bench_kernels.py --label change --sizes contract,pool

Labels measured one after the other also differ by the machine's drift
between the two runs.  --against times a second tree in the same run,
alternating the trees run by run (its first run goes first in every other
pair), and stores it under --against-label; the --label entry then counts
the pairs in which it was lower:

    python3 scripts/bench_kernels.py --sizes startup --runs 16 \
        --label change --against /path/to/old/src --against-label parent

--src is the source tree whose `paqft` is timed (default: this checkout's
`src/`); the wrapper uses only names the trees share (`cli.SUITES`,
`cli._build`, `cli._extract_z_units`, `cli._run_units`, `SMatrix.series`,
`multiply`, `invert`, `extracted_map`, `extract_Z`, `compose_SZ`,
`polarize`, `PolyFunctional.scaled`, `__add__` and `__sub__`, and
`StarAlgebraContext.contract_sum` or `_contract`; `terms_at_sum`,
`weighted_sum` and `distance` count zero in a tree without them).
Each label also records `src_lines`, the line count of that tree's
`paqft/*.py`.  The mass is 0.5, the default working point.
"""

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MASS = 0.5
SAMPLES = 5  # samples.count of the axioms units in the contract entry
POOL_UNITS = 29  # units of the pool entry, each `list`
STARTUP = ["propagators", "--set", "lattice.nt=16", "--set", "lattice.nx=32"]
WHAT = ("seconds, median of fresh processes per entry, m = 0.5; "
        "sizes: six-kernel build and kernel_residuals, in process; contract: "
        "StarAlgebraContext.contract_sum (or _contract) in the serial "
        "axioms and extract-z units at 12x16, in process, collector off, "
        "and the units of each command; contract-l4: the same at "
        "caps.lambda_order=4; series: SMatrix.series, multiply, invert "
        "and terms_at_sum in the serial axioms units, outermost calls, and "
        "the monomial pairs the contraction entry receives; extract: the "
        "extracted map's evaluator, extract_Z, compose_SZ and polarize in "
        "the serial extract-z units, outermost calls, the monomials "
        "PolyFunctional.scaled, + and -, weighted_sum and distance visit, "
        "outermost calls, and the monomial pairs the contraction entry "
        "receives; pool: "
        f"cli._run_units of {POOL_UNITS} units that do no work, in a fresh "
        "process; startup: spawn-to-exit wall of "
        "`python -m paqft.cli propagators` at 16x32 and of "
        "`python -c 'import numpy, os; os._exit(0)'` (no teardown, as "
        "the CLI); tier1: wall of `python -m pytest -q -p no:cacheprovider "
        "<tree>/tests` from an empty working directory, and the passed "
        "count")
# the contraction entries and the caps.lambda_order each sets (None: the
# default)
CONTRACT = {"contract": None, "contract-l4": 4}
# the suffix of a units entry that runs one unit per suite (module
# docstring)
ONE = ":1"
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


def _timed(cls, name: str, spent: dict, key: str) -> None:
    """Wrap the method `name` of `cls` with _timer."""
    setattr(cls, name, _timer(getattr(cls, name), spent, key))


def _timer(inner, spent: dict, key: str):
    """`inner` wrapped to add its seconds to spent[key + "_s"] and its
    calls to spent[key + "_calls"] (both from 0 if not there yet),
    counting only the outermost of nested calls."""
    spent.setdefault(key + "_s", 0.0)
    spent.setdefault(key + "_calls", 0)
    depth = [0]

    def timed(*args, **kwargs):
        if depth[0]:
            return inner(*args, **kwargs)
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent[key + "_s"] += time.perf_counter() - t0
            spent[key + "_calls"] += 1
            depth[0] -= 1

    return timed


def _contraction_entry() -> str:
    """The contraction entry of the tree: `contract_sum` (pairs of operands
    into one sum), or the older `_contract` (one pair)."""
    from paqft.star_algebra import StarAlgebraContext

    return ("contract_sum" if hasattr(StarAlgebraContext, "contract_sum")
            else "_contract")


def _count_contract_pairs(spent: dict) -> None:
    """Wrap the contraction entry to add the monomial pairs it receives,
    the product of the operands' monomial counts over its pairs, to
    spent["contract_pairs"]."""
    from paqft.star_algebra import StarAlgebraContext

    name = _contraction_entry()
    inner = getattr(StarAlgebraContext, name)
    spent["contract_pairs"] = 0

    def monomials(F):
        return sum(len(t) for t in F.terms.values())

    def counted(self, *args):
        pairs = args[0] if name == "contract_sum" else [args[:2]]
        spent["contract_pairs"] += sum(monomials(F) * monomials(G)
                                       for F, G in pairs)
        return inner(self, *args)

    setattr(StarAlgebraContext, name, counted)


def _axioms_units(sets: list, one: bool) -> list:
    from paqft import cli

    cfg = cli.load_config(None, sets)
    lat, S = cli._build(cfg)
    return [u for name in cfg["suites"]
            for u in cli.SUITES[name](cfg, lat, S)[:1 if one else None]]


def _extract_units(sets: list, one: bool) -> list:
    from paqft import cli

    cfg = cli.load_config(None, sets)
    lat, S = cli._build(cfg)
    return [u for units in cli._extract_z_units(cfg, lat, S)
            for u in units[:1 if one else None]]


def _run_serially(spent: dict, key: str, units: list) -> None:
    t0 = time.perf_counter()
    for unit in units:
        unit()
    spent[key] = time.perf_counter() - t0


def contract_child(lambda_order: int | None, one: bool) -> None:
    """One timed process: the axioms (samples.count=SAMPLES) and extract-z
    units at 12x16 (the first of each suite and list if `one`), serially,
    each command on its own S-matrix; at the default caps.lambda_order, or
    at `lambda_order`.  The contraction entry timed is whichever the tree
    has: `contract_sum` (pairs of operands into one sum), or the older
    `_contract` (one pair)."""
    from paqft.star_algebra import StarAlgebraContext

    spent: dict = {}
    _timed(StarAlgebraContext, _contraction_entry(), spent, "contract")
    sets = [f"samples.count={SAMPLES}"]
    if lambda_order is not None:
        sets.append(f"caps.lambda_order={lambda_order}")
    axioms = _axioms_units(sets, one)
    extract = _extract_units(sets, one)
    gc.disable()  # as in the commands' workers
    _run_serially(spent, "axioms_units_s", axioms)
    _run_serially(spent, "extract_units_s", extract)
    spent["units_s"] = spent["axioms_units_s"] + spent["extract_units_s"]
    spent["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(spent))


def series_child(one: bool) -> None:
    """One timed process: the axioms units (samples.count=SAMPLES) at
    12x16 (the first of each suite if `one`), serially, with
    `SMatrix.series`, `multiply` and `invert` and the parts entry
    `terms_at_sum` (zero in a tree without it) each wrapped to add up its
    seconds and calls (outermost calls only), and the monomial pairs of
    the contraction entry counted."""
    from paqft import formal_series, smatrix_renorm
    from paqft.smatrix_renorm import SMatrix

    spent: dict = {}
    for name in ("series", "multiply", "invert"):
        _timed(SMatrix, name, spent, name)
    if hasattr(formal_series, "terms_at_sum"):
        _timed(formal_series, "terms_at_sum", spent, "terms_at_sum")
        # smatrix_renorm calls the terms_at_sum it imported by name
        smatrix_renorm.terms_at_sum = formal_series.terms_at_sum
    else:
        spent["terms_at_sum_s"] = spent["terms_at_sum_calls"] = 0
    _count_contract_pairs(spent)
    units = _axioms_units([f"samples.count={SAMPLES}"], one)
    gc.disable()  # as in the commands' workers
    _run_serially(spent, "axioms_units_s", units)
    print(json.dumps(spent))


def _visits(cls, name: str, spent: dict, key: str, operands,
            depth: list) -> None:
    """Wrap the method `name` of `cls` to add its calls to
    spent[key + "_calls"] and the monomials of the functionals that
    `operands(args)` picks to spent[key + "_visits"], counting only the
    outermost of nested calls to the methods that share `depth`; a static
    method stays one."""
    inner = getattr(cls, name)
    spent[key + "_calls"] = 0
    spent[key + "_visits"] = 0

    def counted(*args):
        if depth[0]:
            return inner(*args)
        spent[key + "_calls"] += 1
        spent[key + "_visits"] += sum(len(t) for F in operands(args)
                                      for t in F.terms.values())
        depth[0] += 1
        try:
            return inner(*args)
        finally:
            depth[0] -= 1

    static = isinstance(vars(cls)[name], staticmethod)
    setattr(cls, name, staticmethod(counted) if static else counted)


def _time_extracted_map(spent: dict) -> None:
    """Wrap `extracted_map` so that the evaluator of each map it returns,
    mixed or diagonal, adds its seconds and calls to spent["extracted_s"]
    and spent["extracted_calls"] (outermost calls only)."""
    from paqft import smatrix_renorm

    make = smatrix_renorm.extracted_map

    def extracted_map(*args, **kwargs):
        Z = make(*args, **kwargs)
        fam = Z.family
        name = "_mixed" if fam._mixed is not None else "_diagonal"
        setattr(fam, name, _timer(getattr(fam, name), spent, "extracted"))
        return Z

    smatrix_renorm.extracted_map = extracted_map


def extract_child(one: bool) -> None:
    """One timed process: the extract-z units at 12x16 (the first of each
    list if `one`), serially, with the outermost calls of the extracted
    map's evaluator and of `extract_Z`, `compose_SZ` and `polarize` timed
    and counted, the monomials of the scalings, sums, weighted sums and
    distances (where the tree has `PolyFunctional.weighted_sum` and
    `distance`) counted, and the monomial pairs of the contraction entry
    counted."""
    from paqft import formal_series, smatrix_renorm
    from paqft.functionals import PolyFunctional

    spent: dict = {}
    _time_extracted_map(spent)
    _timed(smatrix_renorm, "extract_Z", spent, "extract_Z")
    for name in ("compose_SZ", "polarize"):
        _timed(formal_series, name, spent, name)
    # smatrix_renorm calls the compose_SZ it imported by name
    smatrix_renorm.compose_SZ = formal_series.compose_SZ
    depth = [0]
    _visits(PolyFunctional, "scaled", spent, "scaled", lambda a: a[:1], depth)
    _visits(PolyFunctional, "__add__", spent, "sum", lambda a: a[:2], depth)
    _visits(PolyFunctional, "__sub__", spent, "difference", lambda a: a[:2],
            depth)
    for name, operands in (("weighted_sum", lambda a: [F for _w, F in a[1]]),
                           ("distance", lambda a: a[:2])):
        if hasattr(PolyFunctional, name):
            _visits(PolyFunctional, name, spent, name, operands, depth)
        else:
            # zero in a tree without it, so both trees have every key
            spent[name + "_calls"] = spent[name + "_visits"] = 0
    _count_contract_pairs(spent)
    units = _extract_units([], one)
    gc.disable()  # as in the commands' workers
    _run_serially(spent, "extract_units_s", units)
    spent["visits"] = sum(spent[f"{key}_visits"]
                          for key in ("scaled", "sum", "difference",
                                      "weighted_sum", "distance"))
    print(json.dumps(spent))


def pool_child() -> None:
    """One timed process: the unit runner on units that do no work."""
    from paqft import cli

    t0 = time.perf_counter()
    cli._run_units([list] * POOL_UNITS)
    print(json.dumps({"pool_s": time.perf_counter() - t0}))


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
            "python": platform.python_version(), "numpy": numpy.__version__,
            "writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE")}


def src_lines(src: Path) -> int:
    """Lines of the timed tree's `paqft/*.py`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (src / "paqft").glob("*.py"))


def startup(env: dict) -> dict:
    """One spawn-to-exit wall of each start-up command."""
    walls = {}
    with tempfile.TemporaryDirectory() as out:
        for key, args in (
                ("numpy_s", ["-c", "import numpy, os; os._exit(0)"]),
                ("startup_s", ["-m", "paqft.cli", *STARTUP,
                               "--set", f"output={out}"])):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, *args], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            walls[key] = time.perf_counter() - t0
    return walls


def tier1(src: Path, env: dict) -> dict:
    """One wall of the test suite of the tree that holds `src`, run from an
    empty working directory; a failed test raises."""
    with tempfile.TemporaryDirectory() as cwd:
        t0 = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(src.parent / "tests")],
            env=env, cwd=cwd, capture_output=True, text=True)
        wall = time.perf_counter() - t0
    summary = run.stdout.strip().splitlines()[-1:]
    if run.returncode != 0:
        raise RuntimeError(f"tier1 in {src.parent} failed: {summary}")
    return {"tier1_s": wall,
            "passed": int(re.search(r"(\d+) passed", summary[0])[1])}


def run_once(entry: str, src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    if entry == "startup":
        return startup(env)
    if entry == "tier1":
        return tier1(src, env)
    out = subprocess.run(
        [sys.executable, __file__, "--child", entry], env=env,
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def measure(entry: str, trees: dict, runs: int) -> dict:
    """{label: row} for each {label: src} tree, the trees alternating run
    by run; each row holds the medians and its runs."""
    samples = {label: [] for label in trees}
    for i in range(runs):
        for label in list(trees)[::-1 if i % 2 else 1]:
            samples[label].append(run_once(entry, trees[label]))
    rows = {}
    for label, runs_of in samples.items():
        rows[label] = {key: statistics.median(s[key] for s in runs_of)
                       for key in runs_of[0]}
        rows[label]["runs"] = runs_of
    return rows


def report(label: str, entry: str, row: dict) -> str:
    kind = entry.removesuffix(ONE)
    if kind in CONTRACT:
        return (f"{label} {entry}: contraction {row['contract_s']:.3f} s over "
                f"{row['contract_calls']:.0f} calls, units "
                f"{row['units_s']:.3f} s (axioms "
                f"{row['axioms_units_s']:.3f} s, extract-z "
                f"{row['extract_units_s']:.3f} s)")
    if kind == "series":
        return (f"{label} {entry}: SMatrix.series {row['series_s']:.3f} s, "
                f"terms_at_sum {row['terms_at_sum_s']:.3f} s, "
                f"multiply {row['multiply_s']:.3f} s, invert "
                f"{row['invert_s']:.3f} s, contraction monomial pairs "
                f"{row['contract_pairs']:.0f}, axioms units "
                f"{row['axioms_units_s']:.3f} s")
    if kind == "extract":
        return (f"{label} {entry}: extracted map {row['extracted_s']:.3f} s "
                f"over {row['extracted_calls']:.0f} calls, extract_Z "
                f"{row['extract_Z_s']:.3f} s over "
                f"{row['extract_Z_calls']:.0f} calls, compose_SZ "
                f"{row['compose_SZ_s']:.3f} s, polarize "
                f"{row['polarize_s']:.3f} s, monomial visits "
                f"{row['visits']:.0f} (scaled {row['scaled_visits']:.0f}, "
                f"+ {row['sum_visits']:.0f}, - "
                f"{row['difference_visits']:.0f}, weighted_sum "
                f"{row['weighted_sum_visits']:.0f}, distance "
                f"{row['distance_visits']:.0f}), contraction monomial pairs "
                f"{row['contract_pairs']:.0f}, extract-z units "
                f"{row['extract_units_s']:.3f} s")
    if entry == "pool":
        return (f"{label} pool: _run_units of {POOL_UNITS} units "
                f"{row['pool_s'] * 1e3:.1f} ms")
    if entry == "startup":
        return (f"{label} startup: propagators 16x32 {row['startup_s']:.3f} s"
                f", import numpy {row['numpy_s']:.3f} s")
    if entry == "tier1":
        return (f"{label} tier1: {row['tier1_s']:.2f} s, "
                f"{row['passed']:.0f} passed")
    return (f"{label} {entry}: build {row['build_s']:.3f} s, "
            f"kernel_residuals {row['residuals_s']:.3f} s, "
            f"peak RSS {row['peak_rss_mb']:.0f} MB")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--label", default="change")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--sizes", default="16x32,24x48,32x64,contract",
                    help="comma-separated NTxNX lattice sizes for the kernel "
                         "layer, `contract` and `contract-l4` for the "
                         "contraction layer at lambda order 3 and 4, "
                         "`series` for the series layer, `extract` for "
                         "the extraction layer (each with the suffix "
                         f"`{ONE}` for one unit per suite), "
                         "`pool` for the unit runner, `startup` for "
                         "start-up and `tier1` for the test suite")
    ap.add_argument("--runs", type=int, default=3,
                    help="fresh processes per entry and tree")
    ap.add_argument("--against", type=Path,
                    help="a second source tree, timed alternately with --src")
    ap.add_argument("--against-label", default="parent")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_kernels.json")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    if args.against is not None and args.against_label == args.label:
        ap.error("--against-label must differ from --label")
    if args.child:
        name, one = args.child.removesuffix(ONE), args.child.endswith(ONE)
        if name in CONTRACT:
            contract_child(CONTRACT[name], one)
        elif name == "series":
            series_child(one)
        elif name == "extract":
            extract_child(one)
        elif name == "pool":
            pool_child()
        else:
            child(name)
        return 0

    bench = json.loads(args.out.read_text()) if args.out.exists() else {
        "labels": {}}
    trees = {args.label: args.src.resolve()}
    if args.against is not None:
        trees[args.against_label] = args.against.resolve()
    # a label run again keeps the entries it does not re-measure
    labels = {name: bench["labels"].setdefault(name, {}) for name in trees}
    for name, label in labels.items():
        label.update(machine=machine(), runs=args.runs,
                     src_lines=src_lines(trees[name]))
        label.setdefault("sizes", {})
    for entry in args.sizes.split(","):
        rows = measure(entry, trees, args.runs)
        for name, row in rows.items():
            if entry.removesuffix(ONE) in (*CONTRACT, "series", "extract",
                                           "pool", "startup", "tier1"):
                labels[name][entry] = row
            else:
                labels[name]["sizes"][entry] = row
            print(report(name, entry, row))
        if args.against is not None:
            mine, theirs = (rows[name]["runs"] for name in trees)
            lower = {key: sum(a[key] < b[key] for a, b in zip(mine, theirs))
                     for key in mine[0]}
            rows[args.label]["against"] = {
                "label": args.against_label, "pairs": args.runs,
                "lower_in": lower}
            print(f"{args.label} lower than {args.against_label} in "
                  + ", ".join(f"{key} {n}/{args.runs}"
                              for key, n in lower.items()) + " pairs")
    bench["what"] = WHAT
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
