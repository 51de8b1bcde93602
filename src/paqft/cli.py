"""Batch verification driver.

    paqft propagators|axioms|extract-z|correlate --config <path> [--set k=v]...

Single JSON config with dotted-key overrides; reports are written as JSON
with sorted keys (byte-identical for identical configs), a one-line
summary per block (for `axioms`, per suite and per (suite, axiom) pair)
goes to standard output.  `propagators` writes the six kernels next to its
report as `propagators_kernels.npz`: one complex128 (nt, nt, nx) array of
blocks per kernel name, C[t, t', xi] = K[(t, xi), (t', 0)].  A reader
rebuilds a kernel with `Kernel(name, Lattice(nt, nx, mass), z[name])`;
the report names that file under `kernels_file`.

`axioms` and `extract-z` split their work into independent units and run
them in forked worker processes, one per usable CPU
(`os.sched_getaffinity`), with no setting.  `axioms` has one unit per
sample, or per causal triple, spacelike pair or T1 chain; `extract-z` one
per sampled functional, then the units of the extracted map's Z suite
(its Z1/Z4 head, one per causal triple, its additivity tail) and one per
multilinearity order; every `extract-z` unit reads the extracted map's
family memo of its worker.  The workers are plain forks (`_run_units`,
no process pool): they take the units in unit order, reading their
indices one at a time from one shared pipe, and send their rows back
through a pipe each.
Rows come back in unit order, so reports and standard output do not
depend on the CPU count or the dispatch order.  A worker that dies
without reporting (killed, out of memory) makes the command raise a
RuntimeError naming the units it lost, and an interrupted command kills
and reaps its workers, so no run hangs or leaves a child behind.  The
workers run without the cyclic garbage collector: the units make no
reference cycles, so a collection there finds nothing, and it would copy
the pages a worker shares with its parent.

Each command loads only the layers it runs.  `propagators` imports
`paqft.lattice` alone, so its wall time is mostly interpreter and numpy
start-up; `axioms`, `extract-z` and `correlate` import the S-matrix layer,
and through it the functional, star-algebra, series and relation layers,
inside the functions that use them.

Exit status: 0 iff every checked residual is within tolerance, 2 for
usage and config errors.  The program entry, `run()` (the `paqft` script,
`python -m paqft` and `python -m paqft.cli`), flushes standard output and
error after `main()` and ends with `os._exit`, skipping interpreter
teardown; a failed flush exits 120.  In-process callers use `main()`.
"""

from __future__ import annotations

import argparse
import copy
import functools
import gc
import json
import math
import os
import pickle
import sys
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

# the other layers are imported where they run (module docstring)
from .lattice import (HBAR_WINDOW, MAX_DEGREE, HbarWindowError, Lattice,
                      LatticePoint, kernel_residuals)


class UsageError(Exception):
    pass


DEFAULT_CONFIG = {
    "lattice": {"nt": 12, "nx": 16, "mass": 0.5},
    "caps": {"lambda_order": 3, "locality_order": 4, "sd_order": 2,
             "degree": 2},
    "hadamard": {"mode": "exact-bisolution", "perturbation-seed": 5,
                 "perturbation-scale": 0.05},
    "samples": {"count": 10, "seed": 0},
    "tolerances": {"kernel": 1e-10, "series": 1e-9, "extraction": 1e-8},
    "suites": ["S", "Z", "SD", "hammerstein"],
    "extract": {"mode": "roundtrip", "kappa": 0.3, "functionals": 3},
    "correlate": {
        "interaction": {"3": [{"points": [[5, 8], [5, 8], [5, 8]],
                               "coeff": [[0, 0.1, 0.0]]}]},
        "observables": [{"1": [{"points": [[5, 3]],
                                "coeff": [[0, 1.0, 0.0]]}]},
                        {"1": [{"points": [[6, 9]],
                                "coeff": [[0, 1.0, 0.0]]}]}],
        "lambda_cap": 2,
        "locality_radius": 2,
    },
    "output": "reports",
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _parse_set(items) -> dict:
    tree: dict = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        node = tree
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise UsageError(f"--set {key}: {p} was set to a value, "
                                 "not a section")
        node[parts[-1]] = val
    return tree


def load_config(path: str | None, sets) -> dict:
    cfg = DEFAULT_CONFIG
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"config file not found: {path}")
        except (OSError, UnicodeDecodeError) as e:
            raise UsageError(f"config file {path} cannot be read: {e}")
        except json.JSONDecodeError as e:
            raise UsageError(f"config is not valid JSON: {e}")
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path}: the top level must be a "
                             f"JSON object, got {type(loaded).__name__}")
        cfg = _merge(cfg, loaded)
    cfg = _merge(cfg, _parse_set(sets))
    validate_config(cfg)
    return cfg


# (section, key, least value) of the integer fields; JSON booleans are
# not integers here, though Python counts them as such
_INT_FIELDS = (
    ("lattice", "nt", 4), ("lattice", "nx", 4),
    ("caps", "lambda_order", 0), ("caps", "locality_order", 0),
    ("caps", "sd_order", 0), ("caps", "degree", 1),
    ("hadamard", "perturbation-seed", 0),
    ("samples", "count", 1), ("samples", "seed", 0),
    ("extract", "functionals", 1),
    ("correlate", "lambda_cap", 0), ("correlate", "locality_radius", 0))


# the order caps each axioms suite reads
_SUITE_CAPS = {"S": ("caps.lambda_order", "caps.locality_order"),
               "Z": ("caps.lambda_order",), "SD": ("caps.sd_order",),
               "hammerstein": ("caps.lambda_order",)}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite int or float that is not a boolean."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _check_order_caps(cfg: dict, fields, extra: int = 0) -> None:
    """Refuse, before any work, an order cap whose series leaves the hbar
    window from below: a series through lambda^cap carries (i/hbar)^cap,
    and `extra` more orders reach (i/hbar)^-(cap + extra).  Only the
    command that reads a cap checks it."""
    for field in fields:
        section, key = field.split(".")
        lowest = -(cfg[section][key] + extra)
        if lowest < HBAR_WINDOW[0]:
            raise UsageError(
                f"{field}={cfg[section][key]} reaches hbar exponent "
                f"{lowest}, outside window {list(HBAR_WINDOW)}: lower "
                f"{field}")


def validate_config(cfg: dict) -> None:
    for section, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not isinstance(cfg.get(section), dict):
            raise UsageError(
                f"{section} must be an object of settings, "
                f"got {cfg.get(section)!r}")
    if not isinstance(cfg.get("output"), str):
        raise UsageError(
            f"output must be a directory path, got {cfg.get('output')!r}")
    for section, key, least in _INT_FIELDS:
        v = cfg[section].get(key)
        if not _is_int(v) or v < least:
            raise UsageError(
                f"{section}.{key} must be an integer >= {least}, got {v!r}")
    m = cfg["lattice"].get("mass")
    if not _is_number(m) or m < 0:
        raise UsageError(f"lattice.mass must be a number >= 0, got {m!r}")
    for section, key in (("hadamard", "perturbation-scale"),
                         ("extract", "kappa")):
        v = cfg[section].get(key)
        if not _is_number(v):
            raise UsageError(f"{section}.{key} must be a number, got {v!r}")
    deg = cfg["caps"]["degree"]
    if deg > MAX_DEGREE // 2:
        raise UsageError(
            f"caps.degree must be <= {MAX_DEGREE // 2} so a sampled "
            f"functional and the product of two stay within the ingestion "
            f"degree cap {MAX_DEGREE} (T-values of three or more exceed "
            f"it), got {deg}")
    if cfg["hadamard"].get("mode") not in ("exact-bisolution", "perturbed"):
        raise UsageError(
            "hadamard.mode must be 'exact-bisolution' or 'perturbed', "
            f"got {cfg['hadamard'].get('mode')!r}")
    if cfg["extract"].get("mode") not in ("roundtrip", "two-hadamard"):
        raise UsageError(
            "extract.mode must be 'roundtrip' or 'two-hadamard', "
            f"got {cfg['extract'].get('mode')!r}")
    for key in ("kernel", "series", "extraction"):
        v = cfg["tolerances"].get(key)
        if not _is_number(v) or v <= 0:
            raise UsageError(
                f"tolerances.{key} must be a positive number, got {v!r}")
    suites = cfg.get("suites")
    if not (isinstance(suites, list)
            and all(isinstance(name, str) for name in suites)):
        raise UsageError(f"suites must be a list of suite names, got {suites!r}")


def _lattice(cfg: dict) -> Lattice:
    """The configured lattice with its six kernels built (W and Delta_F
    build the others); the kernels stay bounded (paqft.lattice), but the
    order-2 SD coefficients carry m^4, so its overflow is refused."""
    nt, nx, mass = (cfg["lattice"][k] for k in ("nt", "nx", "mass"))
    try:
        float(mass) ** 4
    except OverflowError as e:
        raise UsageError(f"lattice.mass={mass!r}: its fourth power, which "
                         f"the SD coefficients carry, overflows ({e})")
    lat = Lattice(nt, nx, float(mass))
    lat.wightman(), lat.feynman()
    return lat


def _build(cfg: dict):
    from .smatrix_renorm import build_smatrix

    lat = _lattice(cfg)
    if cfg["hadamard"]["mode"] == "perturbed":
        d = _perturbed_hadamard(cfg, lat)
        return lat, build_smatrix(lat, site_shift=d)
    return lat, build_smatrix(lat)


def _perturbed_hadamard(cfg: dict, lat: Lattice) -> np.ndarray:
    """The site shift of the perturbed Hadamard part: a diagonal keeps the
    extracted renormalization map local, so the Z suite can pass on it."""
    seed = int(cfg["hadamard"]["perturbation-seed"])
    scale = float(cfg["hadamard"]["perturbation-scale"])
    with np.errstate(over="ignore"):
        d = scale * np.random.default_rng(seed).standard_normal(lat.n_sites)
    if not np.all(np.isfinite(d)):
        raise UsageError(f"hadamard.perturbation-scale={scale!r} makes the "
                         "site shift overflow")
    return d


def _mid_window(lat: Lattice):
    rows = range(max(2, lat.nt // 3), min(lat.nt - 2, 2 * lat.nt // 3 + 2))
    return [LatticePoint(t, x) for t in rows for x in range(lat.nx)]


def _write_new(path: Path, write) -> None:
    """Unlink `path`, then let `write(path)` create it as a new file.  ext4
    (auto_da_alloc) flushes a file that is truncated and rewritten in
    place, or renamed over an old one, when it is closed, and the write
    waits for the disk; a new file is not flushed."""
    path.unlink(missing_ok=True)
    write(path)


def _write_report(cfg: dict, name: str, report: dict) -> Path:
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _write_new(path, lambda p: p.write_text(text))
    return path


def _summary_line(tag: str, rows) -> str:
    fails = sum(1 for r in rows if not r["pass"])
    # np.max, unlike max(), keeps a NaN wherever it stands
    residuals = [float(r["residual"]) for r in rows
                 if r.get("residual") is not None]
    worst = float(np.max(residuals)) if residuals else 0.0
    status = "PASS" if fails == 0 else "FAIL"
    return (f"{tag}: {len(rows)} rows, {fails} failures, "
            f"worst residual {worst:.3e} -> {status}")


# -- commands ------------------------------------------------------------

# the Lattice methods whose kernels `propagators` writes to KERNELS_FILE
KERNELS = ("green_retarded", "green_advanced", "pauli_jordan",
           "hadamard_kernel", "wightman", "feynman")
KERNELS_FILE = "propagators_kernels.npz"


def _kernel_check(key: str, value, tol: float) -> bool:
    """Gate of one kernel_residuals entry: the cone leak count must be zero,
    the least Gram eigenvalue no lower than -tol, every other residual no
    larger than tol."""
    if key == "cone_support_violations":
        return value == 0
    if key == "H3_gram_min_eigenvalue":
        return value >= -tol
    return value <= tol


def cmd_propagators(cfg: dict) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lat = _lattice(cfg)
        residuals = kernel_residuals(lat)
        kernels = {name: getattr(lat, name)().blocks for name in KERNELS}
    tol = float(cfg["tolerances"]["kernel"])
    checks = {key: _kernel_check(key, value, tol)
              for key, value in residuals.items()}
    ok = all(checks.values())
    report = {"config": cfg, "kernels_file": KERNELS_FILE,
              "residuals": residuals, "checks": checks,
              "warnings": sorted(str(w.message) for w in caught), "pass": ok}
    path = _write_report(cfg, "propagators", report)
    _write_new(path.parent / KERNELS_FILE, lambda p: np.savez(p, **kernels))
    for key in sorted(residuals):
        print(f"propagators {key}: {residuals[key]:.3e} -> "
              f"{'PASS' if checks[key] else 'FAIL'}")
    for w in report["warnings"]:
        print(f"propagators warning: {w}")
    print(f"report written to {path}")
    return 0 if ok else 1


def _suite_S(cfg, lat, S):
    from .smatrix_renorm import SamplingError, check_S_axioms, default_s_plan

    try:
        plan = default_s_plan(
            lat, seed=int(cfg["samples"]["seed"]),
            count=int(cfg["samples"]["count"]),
            cap=int(cfg["caps"]["lambda_order"]),
            locality_cap=int(cfg["caps"]["locality_order"]),
            degree=int(cfg["caps"]["degree"]),
            series_tol=float(cfg["tolerances"]["series"]),
            kernel_tol=float(cfg["tolerances"]["kernel"]))
    except SamplingError as e:
        raise UsageError(f"lattice.nx={lat.nx}: {e}; raise lattice.nx")
    shared = {k: plan[k] for k in ("cap", "locality_cap", "series_tol",
                                   "kernel_tol")}
    units = [dict(shared, singles=plan["singles"])] + [
        dict(shared, **{kind: [sample]})
        for kind in ("causal_triples", "spacelike_pairs", "t1_chains")
        for sample in plan[kind]]
    return [functools.partial(check_S_axioms, S, u) for u in units]


def _suite_Z(cfg, lat, S):
    from .smatrix_renorm import (check_Z_axioms, default_z_plan,
                                 make_handcrafted_Z)

    Z = make_handcrafted_Z(lat, float(cfg["extract"]["kappa"]),
                           _mid_window(lat))
    plan = default_z_plan(
        lat, seed=int(cfg["samples"]["seed"]) + 1,
        count=int(cfg["samples"]["count"]),
        cap=int(cfg["caps"]["lambda_order"]),
        degree=int(cfg["caps"]["degree"]),
        tol=float(cfg["tolerances"]["series"]))
    shared = {k: plan[k] for k in ("cap", "tol")}
    units = [dict(shared, singles=plan["singles"])]
    for t in plan["causal_triples"]:
        units.append(dict(shared, causal_triples=[t]))
    return [functools.partial(check_Z_axioms, Z, lat, u) for u in units]


def _sd_rows(nt: int) -> tuple:
    """The rows _suite_SD puts phi0 and F on: the middle two."""
    return nt // 2 - 1, nt // 2


def _suite_SD(cfg, lat, S):
    from .functionals import free_scalar_lagrangian
    from .smatrix_renorm import check_schwinger_dyson, random_local_functional

    rng = np.random.default_rng(int(cfg["samples"]["seed"]) + 2)
    L = free_scalar_lagrangian(lat)
    cap = int(cfg["caps"]["sd_order"])
    tol = float(cfg["tolerances"]["extraction"])
    rows = _sd_rows(lat.nt)
    count = max(2, int(cfg["samples"]["count"]) // 3)

    def one(i, F, phi0):
        out = check_schwinger_dyson(S, L, F, phi0, cap=cap, tol=tol)
        for r in out:
            r["sample-id"] = f"{i:02d}-{r['sample-id']}"
            r["flagged"] = bool(r["bound"] > tol)
        return out

    units = []
    for i in range(count):
        # sample 00's F sits on phi0's first two columns, so F(. + lambda
        # phi0) has orders above 0 and series_on weighs them; the others
        # miss phi0
        F = random_local_functional(lat, rng, rows,
                                    degree=int(cfg["caps"]["degree"]),
                                    column=3 if i == 0 else None)
        phi0 = np.zeros(lat.n_sites)
        for t in rows:
            for dx in range(3):
                x = (3 + 4 * i + dx) % lat.nx
                phi0[lat.site_index(LatticePoint(t, x))] = rng.normal() * 0.3
        units.append(functools.partial(one, i, F, phi0))
    return units


def _suite_hammerstein(cfg, lat, S):
    from .relations import check_hammerstein
    from .smatrix_renorm import _check_causal_triples, default_z_plan

    cap = int(cfg["caps"]["lambda_order"])
    plan = default_z_plan(lat, seed=int(cfg["samples"]["seed"]) + 3,
                          count=int(cfg["samples"]["count"]), cap=cap,
                          degree=int(cfg["caps"]["degree"]))
    triples = plan["causal_triples"]
    _check_causal_triples(lat, triples)
    tol = float(cfg["tolerances"]["series"])
    phi = functools.partial(S.series, cap=cap)

    def one(i, f1, fm, f2):
        sides = check_hammerstein(phi, S.multiply, S.invert, (f1,), (f2,),
                                  {"hammerstein": (fm,), "padd": ()},
                                  range(cap + 1))
        # a NaN at any order is the residual (np.max, unlike max())
        ham, padd = (float(np.max(sides[k])) for k in ("hammerstein", "padd"))
        # a non-causal triple is refused above, so none is "rejected"
        return [{"suite": "hammerstein", "axiom": "S2",
                 "order": cap, "sample-id": f"{i:02d}",
                 "residual": ham, "pass": ham <= tol and padd <= tol,
                 "padd": padd, "rejected": False}]

    return [functools.partial(one, i, *t) for i, t in enumerate(triples)]


# each builder returns its independent units: zero-argument callables that
# return rows; a suite's rows are its units' rows in unit order
SUITES = {"S": _suite_S, "Z": _suite_Z, "SD": _suite_SD,
          "hammerstein": _suite_hammerstein}


def _work(units: list, tasks: int, out: int, inherited) -> NoReturn:
    """A forked worker: close the parent's pipe ends in `inherited`, run
    the units whose indices it reads from `tasks`, pickle
    [(index, ok, rows or (exception, traceback))] to `out` and exit."""
    code = 1
    try:
        gc.disable()
        for fh in inherited:
            fh.close()
        done = []
        # one 4-byte read takes one whole index: a pipe read is atomic on
        # Linux, and the pipe holds whole indices only
        while index := os.read(tasks, 4):
            i = int.from_bytes(index, "little")
            try:
                done.append((i, True, units[i]()))
            except Exception as e:
                try:
                    pickle.loads(pickle.dumps(e))
                except Exception:
                    e = RuntimeError(f"unit {i} raised {e!r}, which does "
                                     "not pickle")
                import traceback

                done.append((i, False, (e, traceback.format_exc())))
        with open(out, "wb") as fh:
            pickle.dump(done, fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run_units(units: list, order=None) -> list:
    """The rows of each unit, in unit order, from forked workers, one per
    usable CPU (at most one per unit).  The workers take the units in
    `order`, a permutation of their indices (default: unit order), one
    index at a time from a shared pipe, and each sends its rows back
    through a pipe of its own when the indices run out.  The workers run
    without the cyclic garbage collector (module docstring): a full
    collection in a forked worker writes the header of every object it
    inherited.

    A unit's exception is raised here as itself, the first in unit order,
    with the worker's traceback as its cause; one that does not pickle
    becomes a RuntimeError carrying its repr.  A worker that dies without
    reporting (killed, out of memory) raises a RuntimeError naming the
    units nobody reported.  Every worker is reaped before this returns or
    raises: an interrupt or any other error here kills them first."""
    if order is None:
        order = range(len(units))
    tasks, feed = os.pipe()
    # the pipe ends this process holds: the tasks' two, then one read end
    # per worker; a worker closes all but the first
    pipes = [open(tasks, "rb"), open(feed, "wb")]
    workers: dict = {}  # pid: the read end of the worker's pipe
    try:
        for _ in range(min(len(os.sched_getaffinity(0)), len(units))):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(units, tasks, w, pipes[1:])
            finally:
                os.close(w)
            workers[pid] = pipes[-1]
        # written only now: a write past the 64 KiB pipe buffer blocks
        # until the workers read
        pipes[0].close()
        pipes[1].write(b"".join(i.to_bytes(4, "little") for i in order))
        pipes[1].close()
        reported, died = {}, []
        for pid, fh in list(workers.items()):
            data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if status == 0:
                reported.update((i, (ok, value))
                                for i, ok, value in pickle.loads(data))
            else:
                died.append(os.waitstatus_to_exitcode(status))
    except BaseException:
        import signal

        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for fh in pipes:
            fh.close()
    missing = [i for i in range(len(units)) if i not in reported]
    if missing:
        raise RuntimeError(f"worker(s) exited with status {died} without "
                           f"reporting unit(s) {missing}")
    rows = []
    for i in range(len(units)):
        ok, value = reported[i]
        if not ok:
            exc, tb = value
            raise exc from RuntimeError(f"unit {i}, in its worker:\n{tb}")
        rows.append(value)
    return rows


def cmd_axioms(cfg: dict) -> int:
    suites = cfg["suites"]
    if not suites:
        raise UsageError("suites: empty suite list (nothing to check)")
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise UsageError(
            f"unknown suite name(s) {unknown}; known: {sorted(SUITES)}")
    repeated = sorted({s for s in suites if suites.count(s) > 1})
    if repeated:
        raise UsageError(f"suites: suite name(s) {repeated} given more "
                         "than once")
    _check_order_caps(cfg, dict.fromkeys(
        field for name in suites for field in _SUITE_CAPS[name]))
    nt = cfg["lattice"]["nt"]
    needy = {"S", "Z", "hammerstein"} & set(suites)
    if nt < 11 and needy:
        raise UsageError(
            f"suite(s) {sorted(needy)} sample causal triples and need "
            f"lattice.nt >= 11, got {nt}")
    if "SD" in suites:
        from .smatrix_renorm import sd_interior_rows

        least = nt
        while not set(_sd_rows(least)) <= set(sd_interior_rows(least)):
            least += 1
        if least > nt:
            raise UsageError(
                f"the SD suite puts phi0 on rows {list(_sd_rows(nt))}, "
                f"outside 2..nt-3: it needs lattice.nt >= {least}, got {nt}")
        if cfg["caps"]["sd_order"] < 1:
            raise UsageError("the SD suite needs caps.sd_order >= 1, got 0")
    lat, S = _build(cfg)
    suite_units = [(name, SUITES[name](cfg, lat, S)) for name in suites]
    unit_rows = iter(_run_units([u for _, us in suite_units for u in us]))
    report = {"config": cfg, "rows": []}
    for name, us in suite_units:
        rows = [row for _ in us for row in next(unit_rows)]
        report["rows"].extend(rows)
        print(_summary_line(f"axioms[{name}]", rows))
        groups: dict = {}
        for r in rows:
            groups.setdefault((r["suite"], r["axiom"]), []).append(r)
        for (suite, axiom), group in groups.items():
            print(_summary_line(f"axioms[{suite}/{axiom}]", group))
    ok = all(r["pass"] for r in report["rows"])
    report["pass"] = ok
    path = _write_report(cfg, "axioms", report)
    print(f"report written to {path}")
    return 0 if ok else 1


# z_values and hbar_grading leave out every coefficient with |c| at most
# this factor times the largest stored |c| of its sampled functional, and
# the correlate orders every one at most this factor times the largest |c|
# over all orders: such coefficients are rounding, and whether one is
# non-zero depends on the order in which the contraction sums
Z_VALUES_CUT = 2.0 ** -40


def _above(F, floor: float):
    """F without its coefficients of |c| <= floor."""
    from .functionals import HbarScalar, PolyFunctional

    return PolyFunctional(F.lattice, {
        d: {key: HbarScalar({e: v for e, v in c.coeffs.items()
                             if abs(v) > floor})
            for key, c in t.items()}
        for d, t in F.terms.items()})


def _extract_z_units(cfg: dict, lat: Lattice, S):
    """The independent units of `extract-z`, in row order: one per sampled
    functional, returning its rows and its `z_values` and `hbar_grading`
    entries (without the coefficients under Z_VALUES_CUT), then the
    extracted_locality_units, returning rows."""
    from .functionals import is_local_at_scale
    from .smatrix_renorm import (RenormalizationMap, build_smatrix, compose,
                                 default_z_plan, extracted_locality_units,
                                 extracted_map, make_handcrafted_Z,
                                 random_local_functional)

    mode = cfg["extract"]["mode"]
    cap = int(cfg["caps"]["lambda_order"])
    degree = int(cfg["caps"]["degree"])
    tol = float(cfg["tolerances"]["extraction"])
    rng = np.random.default_rng(int(cfg["samples"]["seed"]) + 4)
    mid = lat.nt // 2
    n_f = max(int(cfg["extract"].get("functionals", 3)), cap)
    fs = [random_local_functional(lat, rng, (mid - 1, mid), degree=degree)
          for _ in range(n_f)]
    if mode == "roundtrip":
        Z = make_handcrafted_Z(lat, float(cfg["extract"]["kappa"]),
                               _mid_window(lat))
        St = compose(S, Z)
    else:
        St = build_smatrix(lat, site_shift=_perturbed_hadamard(cfg, lat))
        Z = None
    # one map, whose family memo every unit of a process reads
    extracted = extracted_map(S, St, cap)

    def one(i, f):
        vals = {n: extracted.family.diagonal(n, f)
                for n in range(1, cap + 1)}
        sid = f"f-{i:02d}"
        back = compose(S, RenormalizationMap.from_values(lat, vals)
                       ).series(f, cap)
        target = St.series(f, cap)
        rows = []
        for n in range(1, cap + 1):
            res = back.coeff(n).distance(target.coeff(n))
            rows.append({"suite": "extract", "axiom": "roundtrip",
                         "order": n, "sample-id": sid, "residual": res,
                         "pass": bool(res <= tol)})
        if Z is not None:
            for n in range(2, cap + 1):
                res = vals[n].distance(Z.family.diagonal(n, f))
                rows.append({"suite": "extract", "axiom": "planted-match",
                             "order": n, "sample-id": sid, "residual": res,
                             "pass": bool(res <= tol)})
        for n in range(2, cap + 1):
            ok, rep = is_local_at_scale(vals[n], radius=2)
            rows.append({"suite": "extract", "axiom": "additivity",
                         "order": n, "sample-id": sid,
                         "residual": float(rep["worst_eq11"]),
                         "pass": bool(ok)})
        floor = Z_VALUES_CUT * max(
            (vals[n].max_norm() for n in range(2, cap + 1)), default=0.0)
        kept = {n: _above(vals[n], floor) for n in range(2, cap + 1)}
        z_values = {str(n): kept[n].to_json_dict() for n in kept}
        grading = {str(n): list(kept[n].hbar_exponent_range() or ())
                   for n in kept}
        return rows, z_values, grading

    f_units = [functools.partial(one, i, f) for i, f in enumerate(fs)]
    z_units = extracted_locality_units(
        extracted, lat, fs, cap,
        plan=default_z_plan(lat, seed=int(cfg["samples"]["seed"]) + 5,
                            count=4, cap=cap, degree=degree,
                            tol=float(cfg["tolerances"]["series"])))
    return f_units, z_units


def cmd_extract_z(cfg: dict) -> int:
    nt = cfg["lattice"]["nt"]
    if nt < 11:
        raise UsageError(
            f"the extracted-locality suite samples causal triples and "
            f"needs lattice.nt >= 11, got {nt}")
    if cfg["caps"]["lambda_order"] < 1:
        raise UsageError("extract-z needs caps.lambda_order >= 1, got 0")
    _check_order_caps(cfg, ["caps.lambda_order"])
    lat, S = _build(cfg)
    mode = cfg["extract"]["mode"]
    f_units, z_units = _extract_z_units(cfg, lat, S)
    results = _run_units(f_units + z_units)
    rows, z_values, grading = [], {}, {}
    for i, (out, vals, grades) in enumerate(results[:len(f_units)]):
        rows.extend(out)
        z_values[f"f-{i:02d}"] = vals
        grading[f"f-{i:02d}"] = grades
    for out in results[len(f_units):]:
        rows.extend(out)
    ok = all(r["pass"] for r in rows)
    report = {"config": cfg, "mode": mode, "z_values": z_values,
              "z_values_cut": Z_VALUES_CUT, "hbar_grading": grading,
              "rows": rows, "pass": ok}
    path = _write_report(cfg, "extract_z", report)
    print(_summary_line(f"extract-z[{mode}]", rows))
    print(f"report written to {path}")
    return 0 if ok else 1


def cmd_correlate(cfg: dict) -> int:
    from .functionals import is_local_at_scale, poly_from_json_dict
    from .smatrix_renorm import correlation

    # the relative S-matrix is one mu order past the lambda cap
    _check_order_caps(cfg, ["correlate.lambda_cap"], extra=1)
    lat, S = _build(cfg)
    cc = cfg["correlate"]
    try:
        V = poly_from_json_dict(lat, cc["interaction"])
        obs = [poly_from_json_dict(lat, o) for o in cc["observables"]]
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise UsageError(f"correlate: bad functional spec: {e}")
    if not obs:
        raise UsageError("correlate.observables: need at least one observable")
    radius = int(cc.get("locality_radius", 2))
    ok_local, rep = is_local_at_scale(V, radius=radius)
    if not V.is_zero() and not ok_local:
        raise UsageError(
            "correlate.interaction rejected by the additivity pre-check: "
            f"not local at radius {radius} "
            f"(monomial extent {rep['monomial_extent']})")
    cap = int(cc.get("lambda_cap", 2))
    series = correlation(S, V, obs, cap=cap)
    floor = Z_VALUES_CUT * max(c.norm() for c in series.coefficients)
    orders = {str(n): [[e, re, im] for e, re, im in c.to_json()
                       if math.hypot(re, im) > floor]
              for n, c in enumerate(series.coefficients)}
    report = {"config": cfg, "orders": orders, "orders_cut": Z_VALUES_CUT,
              "pass": True}
    path = _write_report(cfg, "correlate", report)
    for n in range(cap + 1):
        print(f"correlate order {n}: {orders[str(n)]}")
    print(f"report written to {path}")
    return 0


# the config fields that set the orders each command reaches
ORDER_CAPS = {
    "axioms": "caps.lambda_order, caps.locality_order, caps.sd_order",
    "extract-z": "caps.lambda_order", "correlate": "correlate.lambda_cap"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paqft",
        description="verification driver for the lattice QFT axioms")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("propagators", "axioms", "extract-z", "correlate"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config path (defaults built in)")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="sets",
                       help="dotted-key config override, value parsed as JSON")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    dispatch = {"propagators": cmd_propagators, "axioms": cmd_axioms,
                "extract-z": cmd_extract_z, "correlate": cmd_correlate}
    try:
        cfg = load_config(args.config, args.sets)
        return dispatch[args.command](cfg)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except HbarWindowError as e:  # a cap's orders have no static bound
        print(f"usage error: {e}: lower the order caps "
              f"({ORDER_CAPS[args.command]})", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Program entry: main(), then exit without interpreter teardown.

    By the time main() returns, the report and any sidecar are closed and
    the workers are reaped, so only the standard streams hold data; they
    are flushed, and a flush that fails exits 120, as Python's own
    shutdown does.  An exception that escapes main() takes the normal path (a
    traceback, exit 1).  In-process callers use main()."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
