#!/usr/bin/env python3
"""paqft benchmark: the real CLI, one fresh process at a time.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

A closed loop with one client: each `python -m paqft.cli <subcommand>`
child runs to exit before the next starts (PAQFT_THREADS must be unset).
Every report is checked: exit code 0, every row passing, the multiset of
row keys equal to the reference for its sample seed, and byte-identical
reports for one input.  The last line of standard output is one JSON
object {correct, attempted, failed, metrics}; attempted and failed count
report rows, and a run that fails or writes no valid report counts all its
expected rows as failed.

--trace 0 measures the end-to-end metrics.  --trace 1 runs the same input
once untraced and then under perfbench/traced_cli.py, and reports the
per-layer metrics.  Results, raw timings and spans are kept under
.perfbench/results/ in the checkout; reports go to a temporary directory
under .perfbench/tmp/ that is removed after the check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())

SETUP_PROBES = 5          # fresh set-up processes per run; setup_s is their median
CHILD_TIMEOUT_S = 150.0   # a child still running after this is killed and failed
REPORT_FILE = {"axioms": "axioms.json", "extract-z": "extract_z.json",
               "propagators": "propagators.json"}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")
REPORTS = "reports"
# samples.seed of the default config.  Its runs make the timings: the cost
# of one sample seed's inputs differs from another's by up to a factor of
# two, so timing each run's own seed would measure the seed, not the code.
TIMED_SEED = 0
# Timings are reported as if a round of perfbench/machine_probe.py had taken
# this long around each child.  On a shared machine the wall time of one
# and the same child drifts by +-20% over minutes, and the probe run next
# to it drifts with it; the constant only fixes the unit.
PROBE_REF_S = 0.08

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "rows/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "lattice.kernel_build_s": "s",
    "lattice.kernel_residuals_s": "s",
    "lattice.kernel_bytes": "bytes",
    "star_algebra.star_calls": "count",
    "star_algebra.time_ordered_calls": "count",
    "star_algebra.contract_s": "s",
    "star_algebra.call_p50_ms": "ms",
    "star_algebra.call_p99_ms": "ms",
    "star_algebra.monomial_pairs": "count",
    "star_algebra.permanents": "count",
    "star_algebra.repeat_ratio": "ratio",
    "formal_series.multiply_s": "s",
    "formal_series.invert_s": "s",
    "formal_series.compose_SZ_calls": "count",
    "formal_series.compose_SZ_s": "s",
    "formal_series.polarize_calls": "count",
    "formal_series.polarize_s": "s",
    "formal_series.family_lookups": "count",
    "formal_series.family_evals": "count",
    "formal_series.memo_hit_ratio": "ratio",
    "smatrix_renorm.check_S_s": "s",
    "smatrix_renorm.check_Z_s": "s",
    "smatrix_renorm.check_SD_s": "s",
    "smatrix_renorm.series_calls": "count",
    "smatrix_renorm.extract_Z_calls": "count",
    "smatrix_renorm.extract_Z_s": "s",
    "smatrix_renorm.verify_locality_s": "s",
    "functionals.locality_check_s": "s",
    "functionals.poly_ops": "count",
    "relations.hammerstein_s": "s",
    "relations.hammerstein_self_s": "s",
    "cli.report_write_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


class UsageError(Exception):
    pass


# -- children --------------------------------------------------------------


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env["TMPDIR"] = str(tmp)
    return env


def spawn(argv: list, tmp: Path) -> dict:
    """Run one child to exit; wall time from spawn to exit, its max RSS
    from wait4, and its exit code (-9 if the watchdog killed it)."""
    err_path = tmp / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=tmp, env=_child_env(tmp),
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
            "stderr": err_path.read_text(errors="replace")[-2000:]}


class Runner:
    """Spawns the children of one benchmark run, each followed by a run of
    machine_probe.py.  The run's times are scaled by PROBE_REF_S over the
    mean of all its probes: one probe is too short to say how fast the
    machine was during the child next to it, but the mean of a run's
    probes follows the drift from one run to the next."""

    def __init__(self, tmp: Path, problems: list):
        self.tmp = tmp
        self.problems = problems
        self.probes = [self._probe()]

    def _probe(self) -> float:
        try:
            out = subprocess.run(
                [sys.executable, str(HERE / "machine_probe.py")],
                cwd=self.tmp, env=_child_env(self.tmp), capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S, check=True)
            return float(out.stdout)
        except (subprocess.SubprocessError, ValueError) as e:
            self.problems.append(f"machine probe failed: {e}")
            return PROBE_REF_S

    def batch(self, argv: list, n: int) -> list:
        """Run argv n times back to back, then probe once."""
        runs = [spawn(argv, self.tmp) for _ in range(n)]
        self.probes.append(self._probe())
        return runs

    def child(self, argv: list) -> dict:
        return self.batch(argv, 1)[0]

    def scale(self) -> float:
        return PROBE_REF_S / statistics.fmean(self.probes)


def cli_argv(spec: dict, sample_seed: int, spans: Path | None = None,
             run_id: str = "") -> list:
    """The CLI writes into REPORTS under its working directory; the path is
    relative so that it, and with it the report bytes, are the same in
    every checkout."""
    args = [spec["command"], *spec["args"],
            "--set", f"samples.seed={sample_seed}",
            "--set", f"output={REPORTS}"]
    if spans is None:
        return [sys.executable, "-m", "paqft.cli", *args]
    return [sys.executable, str(HERE / "traced_cli.py"), "--spans",
            str(spans), "--run-id", run_id, "--", *args]


# -- checking --------------------------------------------------------------


class Checker:
    """Checks each report against the reference keys for its sample seed
    and against earlier reports of the same input."""

    def __init__(self, spec: dict):
        self.command = spec["command"]
        self._expected: dict = {}
        self.sha256: dict = {}
        self.problems: list = []
        self.attempted = 0
        self.failed = 0

    def expected(self, sample_seed: int) -> Counter:
        if sample_seed not in self._expected:
            self._expected[sample_seed] = \
                reference.EXPECTED[self.command](sample_seed)
        return self._expected[sample_seed]

    def check(self, sample_seed: int, run: dict, out_dir: Path) -> int:
        """Count the run's rows into attempted/failed; return the number of
        report rows checked.  The report file is removed afterwards."""
        expected = self.expected(sample_seed)
        n_expected = sum(expected.values())
        path = out_dir / REPORT_FILE[self.command]
        tag = f"sample seed {sample_seed}"
        try:
            data = path.read_bytes()
            report = json.loads(data)
            rows = reference.report_rows(self.command, report)
        except (OSError, ValueError, KeyError, TypeError) as e:
            rows, data, report = None, b"", {}
            self.problems.append(f"{tag}: no valid report ({e})")
        finally:
            path.unlink(missing_ok=True)
        if run["exit"] != 0:
            self.problems.append(f"{tag}: exit code {run['exit']}: "
                                 f"{run['stderr'].strip()[-300:]}")
        if rows is None or run["exit"] != 0:
            self.attempted += n_expected
            self.failed += n_expected
            return 0
        keys = Counter(k for k, _ in rows)
        failed = sum(1 for _, ok in rows if not ok)
        if keys != expected:
            self.problems.append(
                f"{tag}: row keys differ from the reference: "
                f"missing {sorted((expected - keys).items())[:5]}, "
                f"unexpected {sorted((keys - expected).items())[:5]}")
            failed = max(failed, n_expected - sum((keys & expected).values()))
        if report.get("pass") is not True:
            self.problems.append(f"{tag}: report pass flag is not true")
        if failed:
            self.problems.append(f"{tag}: {failed} failed rows")
        digest = hashlib.sha256(data).hexdigest()
        first = self.sha256.setdefault(sample_seed, digest)
        if digest != first:
            self.problems.append(f"{tag}: report not byte-identical to an "
                                 f"earlier run ({digest[:12]} != {first[:12]})")
        self.attempted += max(len(rows), n_expected)
        self.failed += failed
        return len(rows)


# -- per-layer metrics from spans -----------------------------------------


def layer_metrics(trace: dict) -> dict:
    """Self and inclusive times and counts from one traced run.

    Self time is a span's duration minus the time its child spans cover
    (including the probes' counting before each child).  For functions
    that can nest, the inclusive time counts only outermost calls."""
    spans = trace["spans"]
    counts = trace["counts"]
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i] + s[4]
    self_t = [dur[i] - covered[i] for i in range(n)]
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def outermost(i):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == spans[i][0]:
                return False
            p = spans[p][3]
        return True

    def n_calls(name):
        return len(by_name.get(name, ()))

    def self_s(*names):
        return sum(self_t[i] for nm in names for i in by_name.get(nm, ()))

    def incl_s(name):
        return sum(dur[i] for i in by_name.get(name, ()) if outermost(i))

    contract = [dur[i] * 1e3 for nm in ("star_algebra.star",
                                        "star_algebra.time_ordered")
                for i in by_name.get(nm, ())]
    if len(contract) >= 2:
        p50 = statistics.median(contract)
        p99 = statistics.quantiles(contract, n=100, method="inclusive")[98]
    else:
        p50 = p99 = contract[0] if contract else 0.0
    calls = len(contract)
    lookups = counts.get("formal_series.family_lookups", 0)
    return {
        "lattice.kernel_build_s": sum(
            self_t[first] for nm, (first, *_) in by_name.items()
            if nm.startswith("lattice.") and nm != "lattice.kernel_residuals"),
        "lattice.kernel_residuals_s": self_s("lattice.kernel_residuals"),
        "lattice.kernel_bytes": counts.get("lattice.kernel_bytes", 0),
        "star_algebra.star_calls": n_calls("star_algebra.star"),
        "star_algebra.time_ordered_calls":
            n_calls("star_algebra.time_ordered"),
        "star_algebra.contract_s":
            self_s("star_algebra.star", "star_algebra.time_ordered"),
        "star_algebra.call_p50_ms": p50,
        "star_algebra.call_p99_ms": p99,
        "star_algebra.monomial_pairs":
            counts.get("star_algebra.monomial_pairs", 0),
        "star_algebra.permanents": counts.get("star_algebra.permanents", 0),
        "star_algebra.repeat_ratio":
            counts.get("star_algebra.repeat_calls", 0) / calls if calls
            else 0.0,
        "formal_series.multiply_s": self_s("formal_series.series_multiply"),
        "formal_series.invert_s": self_s("formal_series.series_invert"),
        "formal_series.compose_SZ_calls": n_calls("formal_series.compose_SZ"),
        "formal_series.compose_SZ_s": incl_s("formal_series.compose_SZ"),
        "formal_series.polarize_calls": n_calls("formal_series.polarize"),
        "formal_series.polarize_s": incl_s("formal_series.polarize"),
        "formal_series.family_lookups": lookups,
        "formal_series.family_evals":
            counts.get("formal_series.family_evals", 0),
        "formal_series.memo_hit_ratio":
            counts.get("formal_series.memo_hits", 0) / lookups if lookups
            else 0.0,
        "smatrix_renorm.check_S_s": incl_s("smatrix_renorm.check_S_axioms"),
        "smatrix_renorm.check_Z_s": incl_s("smatrix_renorm.check_Z_axioms"),
        "smatrix_renorm.check_SD_s":
            incl_s("smatrix_renorm.check_schwinger_dyson"),
        "smatrix_renorm.series_calls":
            counts.get("smatrix_renorm.series_calls", 0),
        "smatrix_renorm.extract_Z_calls": n_calls("smatrix_renorm.extract_Z"),
        "smatrix_renorm.extract_Z_s": incl_s("smatrix_renorm.extract_Z"),
        "smatrix_renorm.verify_locality_s":
            incl_s("smatrix_renorm.verify_extracted_locality"),
        "functionals.locality_check_s":
            incl_s("functionals.is_local_at_scale"),
        "functionals.poly_ops": counts.get("functionals.poly_ops", 0),
        "relations.hammerstein_s": incl_s("relations.check_hammerstein"),
        "relations.hammerstein_self_s": self_s("relations.check_hammerstein"),
        "cli.report_write_s": incl_s("cli._write_report"),
        "cli.report_bytes": counts.get("cli.report_bytes", 0),
    }


COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items()
                      if u in ("count", "bytes")) + (
    "star_algebra.repeat_ratio", "formal_series.memo_hit_ratio")


# -- one workload ------------------------------------------------------------


def run_metadata(seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                git_sha = sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, tmp: Path,
            results: dict) -> tuple:
    """Untraced run: set-up probes, then the timed input, the seed's input
    and the timed input again; more timed runs while the next still fits
    in `seconds`.  Only timed runs make the metrics; for a command that
    samples nothing every run is one of the timed input."""
    spec = WORKLOADS[name]
    start = time.perf_counter()
    checker = Checker(spec)
    runner = Runner(tmp, checker.problems)
    setup = runner.batch(
        [sys.executable, str(HERE / "setup_probe.py"),
         *[str(v) for v in spec["lattice"]]], SETUP_PROBES)
    for run in setup:
        if run["exit"] != 0:
            checker.problems.append(f"set-up probe exit code {run['exit']}: "
                                    f"{run['stderr'].strip()[-300:]}")
    order = [TIMED_SEED, seed, TIMED_SEED]
    walls = {s: [] for s in order}
    timed: list = []
    rows = 0
    rss = []
    out_dir = tmp / REPORTS
    while order or (time.perf_counter() - start + max(walls[TIMED_SEED])
                    + runner.probes[-1] <= seconds):
        s = order.pop(0) if order else TIMED_SEED
        run = runner.child(cli_argv(spec, s))
        n_rows = checker.check(s, run, out_dir)
        walls[s].append(run["wall_s"])
        if s == TIMED_SEED or not spec["samples"]:
            rows = n_rows
            rss.append(run["rss_mb"])
            timed.append(run["wall_s"])
    scale = runner.scale()
    wall = statistics.median(timed) * scale
    metrics = {
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "setup_s": statistics.median(r["wall_s"] for r in setup)
        * scale,
        "peak_rss_mb": statistics.median(rss),
    }
    results.update({"wall_s_raw": {str(s): w for s, w in walls.items()},
                    "probe_scale": scale,
                    "setup_s_raw": [r["wall_s"] for r in setup],
                    "machine_probe_s_raw": runner.probes,
                    "peak_rss_mb_raw": rss,
                    "report_sha256": {str(s): d for s, d in
                                      checker.sha256.items()}})
    return checker, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                     for k, v in metrics.items()}


def measure_traced(name: str, seed: int, seconds: float, tmp: Path,
                   results: dict) -> tuple:
    """Traced run: the timed input once untraced, then traced, again while
    the next traced run still fits in `seconds`.  Counts must repeat
    exactly and the traced reports must equal the untraced one."""
    spec = WORKLOADS[name]
    start = time.perf_counter()
    checker = Checker(spec)
    runner = Runner(tmp, checker.problems)
    out_dir = tmp / REPORTS
    untraced = runner.child(cli_argv(spec, TIMED_SEED))
    checker.check(TIMED_SEED, untraced, out_dir)
    out = ROOT / ".perfbench" / "results"
    traced, layers = [], []
    while not traced or (time.perf_counter() - start + max(traced)
                         + runner.probes[-1] <= seconds):
        run_id = f"{name}-seed{seed}-{os.getpid()}-t{len(traced)}"
        spans = out / f"spans-{run_id}.json"
        run = runner.child(cli_argv(spec, TIMED_SEED, spans, run_id))
        checker.check(TIMED_SEED, run, out_dir)
        traced.append(run["wall_s"])
        try:
            m = layer_metrics(json.loads(spans.read_text()))
        except (OSError, ValueError, KeyError) as e:
            checker.problems.append(f"traced run {run_id}: no spans ({e})")
            continue
        layers.append(m)
    for later in layers[1:]:
        moved = [k for k in COUNT_METRICS if later[k] != layers[0][k]]
        if moved:
            checker.problems.append(f"counts differ between traced runs: "
                                    f"{moved}")
    metrics = {k: statistics.median(m[k] for m in layers) if layers else 0.0
               for k in PER_LAYER_UNITS if k != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - untraced["wall_s"])
    scale = runner.scale()
    metrics = {k: v * scale if PER_LAYER_UNITS[k] in ("s", "ms") else v
               for k, v in metrics.items()}
    results.update({"wall_s_raw": {str(TIMED_SEED): [untraced["wall_s"]]},
                    "traced_wall_s_raw": traced,
                    "machine_probe_s_raw": runner.probes,
                    "probe_scale": scale,
                    "report_sha256": {str(k): d for k, d in
                                      checker.sha256.items()}})
    return checker, {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                     for k, v in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tmp = ROOT / ".perfbench" / "tmp" / f"{name}-seed{seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    results = {"workload": name, "trace": int(trace), "seconds": seconds,
               "meta": run_metadata(seed)}
    try:
        fn = measure_traced if trace else measure
        checker, metrics = fn(name, seed, seconds, tmp, results)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    results.update({"metrics": metrics, "problems": checker.problems,
                    "attempted": checker.attempted,
                    "failed": checker.failed})
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json"
     ).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return results


def print_table(res: dict) -> None:
    meta = res["meta"]
    print(f"== {res['workload']} seed={meta['seed']} trace={res['trace']} "
          f"git={meta['git_sha']} src={meta['src_sha256'][:12]} "
          f"cpu={meta['cpu_model']!r} nproc={meta['nproc']} "
          f"python={meta['python']} numpy={meta['numpy']}")
    for s, walls in res["wall_s_raw"].items():
        runs = " ".join(f"{w:.3f}" for w in walls)
        sha = res["report_sha256"].get(s, "-")[:16]
        print(f"   sample seed {s}: wall runs [s] {runs}  report sha256 {sha}")
    print(f"   times scaled by {res['probe_scale']:.4f} (machine probe)")
    for key, m in res["metrics"].items():
        print(f"   {key:36s} {m['value']:>14.6g} {m['unit']}")
    if not res["trace"]:
        share = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        print(f"   {'fail_share':36s} {share:>14.6g} ratio "
              f"({res['failed']} of {res['attempted']} rows)")
    for p in res["problems"]:
        print(f"   PROBLEM: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if os.environ.get("PAQFT_THREADS") is not None:
            raise UsageError("PAQFT_THREADS is set; the benchmark measures "
                             "the default single-threaded run, unset it")
        if not (ROOT / "src" / "paqft" / "cli.py").is_file():
            raise UsageError(f"no paqft sources under {ROOT / 'src'}")
        if args.seed < 0:
            raise UsageError("--seed must be >= 0")
    except UsageError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # a terminated harness still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(res)
        out["correct"] &= not res["problems"] and res["failed"] == 0
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        out["metrics"].update({prefix + k: v
                               for k, v in res["metrics"].items()})
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
