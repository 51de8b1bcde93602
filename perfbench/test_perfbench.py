"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

test_counts_repeat_exactly runs every workload traced twice on sample seed
0 (about a minute) and requires identical work counts; the other tests are
fast.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def test_self_time_excludes_children_and_their_probe_cost():
    # [name, start, end, parent, hook seconds, run id]
    spans = [
        ["smatrix_renorm.extract_Z", 0.0, 10.0, -1, 0.0, "r"],
        ["formal_series.compose_SZ", 1.0, 5.0, 0, 0.5, "r"],
        ["smatrix_renorm.extract_Z", 2.0, 4.0, 1, 0.0, "r"],
        ["star_algebra.time_ordered", 6.0, 7.0, 0, 0.25, "r"],
    ]
    m = run.layer_metrics({"spans": spans, "counts": {}})
    assert m["smatrix_renorm.extract_Z_calls"] == 2
    # nested calls of one function count once, through the outermost
    assert m["smatrix_renorm.extract_Z_s"] == 10.0
    assert m["formal_series.compose_SZ_s"] == 4.0
    assert m["star_algebra.contract_s"] == 1.0
    assert m["star_algebra.time_ordered_calls"] == 1
    assert m["star_algebra.call_p50_ms"] == 1000.0


def test_reference_keys_cover_every_row_once():
    sys.path.insert(0, str(run.ROOT / "src"))
    reference = run.reference
    assert sum(reference.extract_z_keys(0).values()) == 92
    assert sum(reference.propagators_keys(0).values()) == 11
    # 257 fixed rows plus one T1 row per factor boundary of each chain
    chains = reference._t1_chain_lengths(0)
    assert sum(reference.axioms_keys(0).values()) == \
        257 + sum(n - 1 for n in chains)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_counts_repeat_exactly(name):
    spec = run.WORKLOADS[name]
    base = run.ROOT / ".perfbench" / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    counts = []
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        tmp = Path(tmp)
        for i in range(2):
            spans = tmp / f"spans-{i}.json"
            child = run.spawn(run.cli_argv(spec, 0, spans, f"test-{i}"), tmp)
            assert child["exit"] == 0, child["stderr"]
            layers = run.layer_metrics(json.loads(spans.read_text()))
            counts.append({k: layers[k] for k in run.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["cli.report_bytes"] > 0
