"""Reference row keys of each workload's report.

A row key is (suite, axiom, order, sample-id).  Keys repeat inside one
report (every per-sample suite unit re-emits its S1/Z1 rows), so the
reference is a multiset.  It is built from the row structure of each
suite at the config the workloads run (the defaults, except that
axioms-12x16 sets samples.count=5), which is pinned here: a change of the
defaults changes the workload and fails the check.  The one
seed-dependent part, the length of each sampled T1 chain, is read from
paqft's own sample planner for that seed.
"""

from __future__ import annotations

from collections import Counter

AXIOMS_COUNT = 5      # samples.count of axioms-12x16
CAP = 3               # caps.lambda_order
LOCALITY_CAP = 4      # caps.locality_order
SD_CAP = 2            # caps.sd_order
EXTRACT_FUNCTIONALS = 3
EXTRACT_PLAN_COUNT = 4

PROPAGATOR_CHECKS = (
    "green_retarded_identity", "green_advanced_identity", "reciprocity",
    "cone_support_violations", "pauli_jordan_antisymmetry",
    "H1_imaginary_part", "H2_interior_H", "H2_interior_W",
    "H3_gram_min_eigenvalue", "feynman_symmetry",
    "feynman_equals_wightman_off_future")


def _t1_chain_lengths(seed: int) -> list:
    from paqft.lattice import Lattice
    from paqft.smatrix_renorm import default_s_plan
    plan = default_s_plan(Lattice(12, 16, 0.5), seed=seed,
                          count=AXIOMS_COUNT, cap=CAP,
                          locality_cap=LOCALITY_CAP)
    return [len(chain) for chain in plan["t1_chains"]]


def _z_suite(keys: Counter, units: int, singles: int, triples: int,
             per_unit_triple_index: bool) -> None:
    """Rows of check_Z_axioms over `units` calls; triples are numbered
    0 in every call when each call gets one triple."""
    for _ in range(units):
        for n in range(CAP + 1):
            keys["Z", "Z1", n, "z1"] += 1
    for i in range(singles):
        keys["Z", "Z4", 1, f"z4-{i:02d}"] += 1
        for n in range(2, CAP + 1):
            keys["Z", "additivity", n, f"loc-{i:02d}"] += 1
    for t in range(triples):
        i = 0 if per_unit_triple_index else t
        for tag in ("gen", "f0"):
            for n in range(CAP + 1):
                keys["Z", "Z3", n, f"z3-{i:02d}-{tag}"] += 1
            for n in range(1, CAP + 1):
                keys["Z", "Z2", n, f"z2-{i:02d}-{tag}"] += 1


def axioms_keys(seed: int) -> Counter:
    keys: Counter = Counter()
    singles = max(3, AXIOMS_COUNT // 2)
    chains = _t1_chain_lengths(seed)
    # S suite: one check_S_axioms call for the singles, then one per
    # triple, spacelike pair and chain; each call emits its own S1 rows.
    for _ in range(1 + 3 * AXIOMS_COUNT):
        for n in range(CAP + 1):
            keys["S", "S1", n, "s1"] += 1
    for i in range(singles):
        keys["S", "S3", 1, f"s3-{i:02d}"] += 1
    for _ in range(AXIOMS_COUNT):
        for n in range(1, CAP + 1):
            for sid in ("s2-00", "mult-00"):
                keys["S", "S2", n, sid] += 1
            keys["S", "S4", n, "s4-00"] += 1
        for n in range(LOCALITY_CAP + 1):
            keys["S", "locality", n, "loc-00"] += 1
    for length in chains:
        for k in range(1, length):
            keys["S", "T1", length, f"t1-00-k{k}"] += 1
    # Z suite: one call for the singles, then one per triple.
    _z_suite(keys, 1 + AXIOMS_COUNT, singles, AXIOMS_COUNT,
             per_unit_triple_index=True)
    for i in range(max(2, AXIOMS_COUNT // 3)):
        for n in range(SD_CAP + 1):
            for side in ("left", "right"):
                keys["SD", "S6", n, f"{i:02d}-{side}"] += 1
    for i in range(AXIOMS_COUNT):
        keys["hammerstein", "S2", CAP, f"{i:02d}"] += 1
    return keys


def extract_z_keys(seed: int) -> Counter:
    keys: Counter = Counter()
    for i in range(max(EXTRACT_FUNCTIONALS, CAP)):
        sid = f"f-{i:02d}"
        for n in range(1, CAP + 1):
            keys["extract", "roundtrip", n, sid] += 1
        for n in range(2, CAP + 1):
            keys["extract", "planted-match", n, sid] += 1
            keys["extract", "additivity", n, sid] += 1
    _z_suite(keys, 1, max(3, EXTRACT_PLAN_COUNT // 2), EXTRACT_PLAN_COUNT,
             per_unit_triple_index=False)
    for n in range(2, CAP + 1):
        keys["Z", "multilinearity", n, f"polar-{n}"] += 1
    return keys


def propagators_keys(seed: int) -> Counter:
    return Counter(("propagators", name, 0, "-") for name in PROPAGATOR_CHECKS)


def report_rows(command: str, report: dict) -> list:
    """(key, passed) for every row of a report; the propagators report has
    named boolean checks in place of rows."""
    if command == "propagators":
        return [(("propagators", name, 0, "-"), ok is True)
                for name, ok in report["checks"].items()]
    return [((r["suite"], r["axiom"], r["order"], r["sample-id"]),
             r["pass"] is True) for r in report["rows"]]


EXPECTED = {"axioms": axioms_keys, "extract-z": extract_z_keys,
            "propagators": propagators_keys}
