#!/usr/bin/env python3
"""Check that two source trees give the same results.

Runs the identity matrix of `paqft` commands once on this checkout's
`src/` and once on the tree given with --against, each run in a fresh
temporary directory that it writes its reports into, and compares, case
by case, the sha256 of every file the command writes (reports and the
`.npz` sidecar), of its standard output and of its standard error, and
the exit codes.  For a JSON report that differs it lists the row keys
found on one side only, every pass flag that flips, every residual that
moved (before, after, |move| and the relative move |move| / max(|before|,
|after|), 0 when both are 0), the `z_values` monomials stored on one
side only (both sides cut at the `z_values_cut` a report states) and the
largest numeric move of any other field that differs.  Rows are matched
by (suite, axiom, order, sample-id) and, for keys that repeat, by their
order of appearance.  "Before" is the --against tree, "after" --src.

    python3 scripts/identity.py --against /path/to/old/src
    python3 scripts/identity.py --against /path/to/old/src \\
        --cases correlate,usage-error

The cases (--cases picks some of them, in this order):
    axioms                  the default config
    axioms-count5-seed0     samples.count=5 at samples.seed=0
    axioms-count5-seed1     samples.count=5 at samples.seed=1
    axioms-perturbed        hadamard.mode=perturbed
    extract-z-roundtrip     the default extract-z
    extract-z-two-hadamard  extract.mode=two-hadamard
    correlate               the default correlate
    propagators-16x32       propagators at lattice 16x32
    usage-error             axioms with samples.count=0 (exit 2)

Exit status: 0 if every case is identical, 1 if any differs.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = {
    "axioms": ["axioms"],
    "axioms-count5-seed0": ["axioms", "--set", "samples.count=5",
                            "--set", "samples.seed=0"],
    "axioms-count5-seed1": ["axioms", "--set", "samples.count=5",
                            "--set", "samples.seed=1"],
    "axioms-perturbed": ["axioms", "--set", "hadamard.mode=perturbed"],
    "extract-z-roundtrip": ["extract-z"],
    "extract-z-two-hadamard": ["extract-z",
                               "--set", "extract.mode=two-hadamard"],
    "correlate": ["correlate"],
    "propagators-16x32": ["propagators", "--set", "lattice.nt=16",
                          "--set", "lattice.nx=32"],
    "usage-error": ["axioms", "--set", "samples.count=0"],
}


def run_case(src: Path, args: list) -> dict:
    """One run of `python -m paqft.cli <args>` on the tree `src`, writing
    into `reports/` of a fresh directory: {"exit", "stdout", "stderr",
    "files": {name: bytes}}."""
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(
            [sys.executable, "-m", "paqft.cli", *args,
             "--set", "output=reports"],
            cwd=work, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True)
        out = Path(work, "reports")
        files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                 if out.is_dir() else {})
    return {"exit": done.returncode, "stdout": done.stdout,
            "stderr": done.stderr, "files": files}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows_by_key(report: dict) -> dict:
    """{(suite, axiom, order, sample-id, n): row}, n counting the earlier
    rows with the same key."""
    seen: dict = {}
    out = {}
    for row in report.get("rows", []):
        key = (row.get("suite"), row.get("axiom"), row.get("order"),
               row.get("sample-id"))
        n = seen[key] = seen.get(key, -1) + 1
        out[key + (n,)] = row
    return out


def _z_monomials(report: dict, cut: float) -> set:
    """{(sample, order, points, exponent)} of a report's z_values, without
    the coefficients of |c| <= cut times their sample's largest |c|."""
    out = set()
    for sample, orders in report.get("z_values", {}).items():
        coeffs = [((order, tuple(map(tuple, row["points"])), e),
                   math.hypot(re, im))
                  for order, by_degree in orders.items()
                  for rows in by_degree.values() for row in rows
                  for e, re, im in row["coeff"]]
        floor = cut * max((c for _k, c in coeffs), default=0.0)
        out.update((sample, *k) for k, c in coeffs if c > floor)
    return out


def _max_move(before, after):
    """The largest |difference| between the numbers of two JSON values of
    the same shape, or None if their shapes differ."""
    if isinstance(before, dict) and isinstance(after, dict):
        if before.keys() != after.keys():
            return None
        pairs = [(before[k], after[k]) for k in before]
    elif isinstance(before, list) and isinstance(after, list):
        if len(before) != len(after):
            return None
        pairs = list(zip(before, after))
    elif (isinstance(before, (int, float)) and isinstance(after, (int, float))
          and not isinstance(before, bool) and not isinstance(after, bool)):
        return abs(after - before)
    else:
        return 0.0 if before == after else None
    moves = [_max_move(b, a) for b, a in pairs]
    return None if None in moves else max(moves, default=0.0)


def _relative_move(before: float, after: float) -> float:
    """|after - before| / max(|before|, |after|), 0 when both are 0."""
    top = max(abs(before), abs(after))
    return abs(after - before) / top if top else 0.0


def compare_reports(before: dict, after: dict) -> dict:
    """The differences of two JSON reports: row keys on one side only,
    pass flips, moved residuals as (key, before, after, |move|, relative
    move), the z_values monomials on one side only (both sides cut at the
    `z_values_cut` that either report states), and the other top-level
    fields that differ, each with its largest numeric move (None where
    the shapes differ)."""
    rows_b, rows_a = _rows_by_key(before), _rows_by_key(after)
    moved, flips = [], []
    for key in rows_b.keys() & rows_a.keys():
        rb, ra = rows_b[key], rows_a[key]
        if rb.get("pass") != ra.get("pass"):
            flips.append((key, rb.get("pass"), ra.get("pass")))
        xb, xa = rb.get("residual"), ra.get("residual")
        if xb != xa:
            numbers = (isinstance(xa, (int, float))
                       and isinstance(xb, (int, float)))
            moved.append((key, xb, xa, abs(xa - xb) if numbers else None,
                          _relative_move(xb, xa) if numbers else None))
    cut = after.get("z_values_cut", before.get("z_values_cut", 0.0))
    z_b, z_a = _z_monomials(before, cut), _z_monomials(after, cut)
    return {
        "rows": len(rows_a),
        "only_before": sorted(rows_b.keys() - rows_a.keys(), key=str),
        "only_after": sorted(rows_a.keys() - rows_b.keys(), key=str),
        "pass_flips": sorted(flips, key=str),
        "moved": sorted(moved, key=str),
        "z_only_before": sorted(z_b - z_a),
        "z_only_after": sorted(z_a - z_b),
        "other_fields": [
            (k, _max_move(before.get(k), after.get(k)))
            for k in sorted(before.keys() | after.keys())
            if k not in ("rows", "z_values", "hbar_grading")
            and before.get(k) != after.get(k)],
    }


def compare_case(before: dict, after: dict) -> list:
    """The lines describing how two runs of one case differ; empty when
    they are identical."""
    lines = []
    if before["exit"] != after["exit"]:
        lines.append(f"exit code {before['exit']} -> {after['exit']}")
    for stream in ("stdout", "stderr"):
        if _sha(before[stream]) != _sha(after[stream]):
            lines.append(f"{stream} differs")
    for name in sorted(before["files"].keys() | after["files"].keys()):
        b, a = before["files"].get(name), after["files"].get(name)
        if b is None or a is None:
            lines.append(f"{name}: written on one side only")
            continue
        if _sha(b) == _sha(a):
            continue
        lines.append(f"{name}: sha256 differs")
        if not name.endswith(".json"):
            continue
        diff = compare_reports(json.loads(b), json.loads(a))
        worst = max((m for *_k, m, _r in diff["moved"] if m is not None),
                    default=0.0)
        worst_rel = max((r for *_k, r in diff["moved"] if r is not None),
                        default=0.0)
        lines.append(
            f"  {len(diff['moved'])} of {diff['rows']} residuals moved "
            f"(max |move| {worst:.3g}, max relative move {worst_rel:.3g}), "
            f"{len(diff['pass_flips'])} pass "
            f"flips, {len(diff['only_before'])} row keys only before, "
            f"{len(diff['only_after'])} only after, "
            f"{len(diff['z_only_before'])} z_values monomials only "
            f"before, {len(diff['z_only_after'])} only after")
        for field, move in diff["other_fields"]:
            lines.append(f"  field {field} differs (max |move| "
                         f"{'n/a' if move is None else f'{move:.3g}'})")
        for key in diff["only_before"]:
            lines.append(f"  row only before: {key}")
        for key in diff["only_after"]:
            lines.append(f"  row only after: {key}")
        for key, pb, pa in diff["pass_flips"]:
            lines.append(f"  pass flips: {key} {pb} -> {pa}")
        for key, xb, xa, move, rel in diff["moved"]:
            lines.append(f"  moved: {key} {xb!r} -> {xa!r} (|move| "
                         f"{'n/a' if move is None else f'{move:.3g}'}, "
                         f"relative {'n/a' if rel is None else f'{rel:.3g}'})")
        for mono in diff["z_only_before"]:
            lines.append(f"  z_values only before: {mono}")
        for mono in diff["z_only_after"]:
            lines.append(f"  z_values only after: {mono}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, required=True,
                    help="the source tree to compare with (its `src/`)")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the source tree checked (default: this "
                         "checkout's `src/`)")
    ap.add_argument("--cases", default=",".join(CASES),
                    help="comma-separated case names (default: all)")
    args = ap.parse_args(argv)
    cases = args.cases.split(",")
    unknown = [c for c in cases if c not in CASES]
    if unknown:
        ap.error(f"unknown case(s) {unknown}; known: {list(CASES)}")
    same = 0
    for case in cases:
        before = run_case(args.against.resolve(), CASES[case])
        after = run_case(args.src.resolve(), CASES[case])
        lines = compare_case(before, after)
        same += not lines
        print(f"{case}: {'identical' if not lines else 'DIFFERS'} "
              f"(exit {after['exit']}, files "
              f"{', '.join(after['files']) or 'none'})")
        for line in lines:
            print(f"  {line}")
    print(f"{same} of {len(cases)} cases identical")
    return 0 if same == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
