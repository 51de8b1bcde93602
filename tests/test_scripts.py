import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import paqft

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_hadamard_scan_runs_and_shows_the_excluded_mode_positivity_loss():
    src = str(Path(paqft.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "hadamard_scan.py"),
         "--nt", "8", "--nx", "10"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    start = lines.index("mass sweep") + 2  # skip the column header
    h3 = {}
    for line in lines[start:]:
        if not line.strip():
            break
        mass, _h2, gram_min = line.split()
        h3[float(mass)] = float(gram_min)
    assert sorted(h3) == [0.0, 0.25, 0.5, 1.0, 2.0]
    # the zero and edge modes of m = 0 are dropped from the Hadamard sum
    # while the commutator keeps them; every m > 0 has no excluded mode
    # and is positive up to rounding
    assert h3[0.0] < -1e-3
    assert min(h3[m] for m in (0.25, 0.5, 1.0, 2.0)) >= -1e-10


def test_bench_kernels_writes_medians_and_the_machine(tmp_path):
    src = str(Path(paqft.__file__).resolve().parent.parent)
    out = tmp_path / "BENCH_kernels.json"
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_kernels.py"),
         "--sizes", "8x8,contract:1,series:1,extract:1", "--runs", "2",
         "--label", "smoke", "--src", src, "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    entry = json.loads(out.read_text())["labels"]["smoke"]
    assert set(entry["machine"]) == {"cpu_model", "nproc", "python", "numpy",
                                     "writes_bytecode"}
    # the children inherit this environment
    assert entry["machine"]["writes_bytecode"] == (
        not os.environ.get("PYTHONDONTWRITEBYTECODE"))
    # the line count of the timed tree, as `wc -l src/paqft/*.py` gives it
    assert entry["src_lines"] == sum(
        len(path.read_text().splitlines())
        for path in (Path(src) / "paqft").glob("*.py"))
    row = entry["sizes"]["8x8"]
    assert len(row["runs"]) == 2
    for key in ("build_s", "residuals_s", "peak_rss_mb"):
        assert row[key] == statistics.median(r[key] for r in row["runs"]) > 0
    # the contract entry, on the first unit of each suite: the
    # contraction entry wrapped in the serial 12x16 units, and the units of
    # each command timed on their own
    row = entry["contract:1"]
    assert len(row["runs"]) == 2
    for key in ("contract_s", "units_s", "axioms_units_s", "extract_units_s",
                "peak_rss_mb"):
        assert row[key] == statistics.median(r[key] for r in row["runs"]) > 0
    for r in row["runs"]:
        assert r["units_s"] == r["axioms_units_s"] + r["extract_units_s"]
    assert row["contract_s"] < row["units_s"]
    # the same units every run, so the same number of calls
    assert {r["contract_calls"] for r in row["runs"]} == {
        row["contract_calls"]}
    assert row["contract_calls"] > 0
    # the series entry: SMatrix.series, multiply, invert and the parts
    # entry terms_at_sum in the serial axioms units, the same calls every
    # run
    row = entry["series:1"]
    for name in ("series", "terms_at_sum", "multiply", "invert"):
        assert 0 < row[f"{name}_s"] < row["axioms_units_s"]
        assert {r[f"{name}_calls"] for r in row["runs"]} == {
            row[f"{name}_calls"]} != {0}
    # the extract entry: the extracted map's evaluator and compose_SZ in
    # the serial extract-z units, and the monomials the scalings, sums and
    # weighted sums visit, the same every run; this tree calls neither
    # extract_Z nor polarize there, and both count zero
    row = entry["extract:1"]
    for name in ("extracted", "compose_SZ"):
        assert 0 < row[f"{name}_s"] < row["extract_units_s"]
        assert {r[f"{name}_calls"] for r in row["runs"]} == {
            row[f"{name}_calls"]} != {0}
    for name in ("extract_Z", "polarize"):
        assert row[f"{name}_s"] == row[f"{name}_calls"] == 0
    # both entries count the monomial pairs the contraction receives, a
    # count that is the same every run
    for row in (entry["series:1"], entry["extract:1"]):
        assert {r["contract_pairs"] for r in row["runs"]} == {
            row["contract_pairs"]} != {0}
    row = entry["extract:1"]
    for r in row["runs"]:
        assert r["visits"] == (r["scaled_visits"] + r["sum_visits"]
                               + r["difference_visits"]
                               + r["weighted_sum_visits"]
                               + r["distance_visits"])
    assert {r["visits"] for r in row["runs"]} == {row["visits"]} != {0}
    assert row["weighted_sum_calls"] > 0
    assert row["distance_calls"] > 0
    # the label run again on another size keeps what it had; the startup
    # and pool entries, with the tree alternated against itself under a
    # second label
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_kernels.py"), "--sizes",
         "6x6,startup,pool", "--runs", "1", "--label", "smoke", "--src", src,
         "--against", src, "--against-label", "smoke-against",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    labels = json.loads(out.read_text())["labels"]
    again = labels["smoke"]
    assert sorted(again["sizes"]) == ["6x6", "8x8"]
    assert again["sizes"]["8x8"] == entry["sizes"]["8x8"]
    assert len(again["sizes"]["6x6"]["runs"]) == 1
    assert again["contract:1"] == entry["contract:1"]
    for name in ("smoke", "smoke-against"):
        row = labels[name]["startup"]
        assert len(row["runs"]) == 1
        for key in ("startup_s", "numpy_s"):
            assert row[key] == row["runs"][0][key] > 0
        row = labels[name]["pool"]
        assert len(row["runs"]) == 1
        assert row["pool_s"] == row["runs"][0]["pool_s"] > 0
    for entry, keys in (("startup", {"startup_s", "numpy_s"}),
                        ("pool", {"pool_s"})):
        against = labels["smoke"][entry]["against"]
        assert against["label"] == "smoke-against" and against["pairs"] == 1
        assert set(against["lower_in"]) == keys
        assert all(0 <= n <= 1 for n in against["lower_in"].values())


def test_bench_kernels_times_the_test_suite_of_a_tree(tmp_path):
    # a fake tree with one trivial test, timed with its src on PYTHONPATH
    # from an empty working directory; a failing test fails the entry
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "tests").mkdir()
    test = tree / "tests" / "test_one.py"
    test.write_text("def test_one():\n    assert True\n")
    out = tmp_path / "BENCH_kernels.json"
    cmd = [sys.executable, str(SCRIPTS / "bench_kernels.py"), "--sizes",
           "tier1", "--runs", "1", "--label", "smoke", "--src",
           str(tree / "src"), "--out", str(out)]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    row = json.loads(out.read_text())["labels"]["smoke"]["tier1"]
    assert row["passed"] == row["runs"][0]["passed"] == 1
    assert row["tier1_s"] == row["runs"][0]["tier1_s"] > 0
    assert sorted(p.name for p in tree.rglob("*")
                  if "__pycache__" not in p.parts) == [
        "src", "test_one.py", "tests"]
    test.write_text("def test_one():\n    assert False\n")
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert run.returncode != 0 and "1 failed" in run.stderr


def _identity_module():
    spec = importlib.util.spec_from_file_location(
        "identity", SCRIPTS / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_reads_a_tree_against_itself_as_identical():
    src = str(Path(paqft.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "identity.py"), "--src", src,
         "--against", src, "--cases", "correlate,usage-error"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines == ["correlate: identical (exit 0, files correlate.json)",
                     "usage-error: identical (exit 2, files none)",
                     "2 of 2 cases identical"]


def test_identity_lists_what_moved_between_two_reports():
    identity = _identity_module()

    def row(sid, residual, ok=True):
        return {"suite": "S", "axiom": "S2", "order": 2, "sample-id": sid,
                "residual": residual, "pass": ok}

    def z(*coeffs):
        return {"f-00": {"2": {"1": [
            {"points": [[5, i]], "coeff": [[1, c, 0.0]]}
            for i, c in enumerate(coeffs)]}}}

    # a repeated key is matched by its order of appearance
    before = {"rows": [row("a", 1e-16), row("a", 2e-16), row("b", 0.0)],
              "z_values": z(0.5, 1e-14, 1e-20), "orders": [1.0, 2.0]}
    after = {"rows": [row("a", 1e-16), row("a", 5e-16, False),
                      row("c", 0.0)],
             "z_values": z(0.5, 1e-14), "z_values_cut": 2.0 ** -40,
             "orders": [1.0, 2.5]}
    diff = identity.compare_reports(before, after)
    key = ("S", "S2", 2, "a", 1)
    # |move| and the relative move |move| / max(|before|, |after|)
    assert diff["moved"] == [(key, 2e-16, 5e-16, 5e-16 - 2e-16,
                              (5e-16 - 2e-16) / 5e-16)]
    assert identity._relative_move(0.0, 0.0) == 0.0
    assert identity._relative_move(-1.0, 1.0) == 2.0
    run = {"exit": 0, "stdout": b"", "stderr": b""}
    lines = identity.compare_case(
        dict(run, files={"r.json": json.dumps(before).encode()}),
        dict(run, files={"r.json": json.dumps(after).encode()}))
    assert "max |move| 3e-16, max relative move 0.6" in lines[1]
    assert f"  moved: {key} 2e-16 -> 5e-16 (|move| 3e-16, relative 0.6)" \
        in lines
    assert diff["pass_flips"] == [(key, True, False)]
    assert diff["only_before"] == [("S", "S2", 2, "b", 0)]
    assert diff["only_after"] == [("S", "S2", 2, "c", 0)]
    # both sides are cut at 2^-40 of the sample's largest |c|: the 1e-20
    # coefficient counts on neither side, the 1e-14 one on both
    assert diff["z_only_before"] == diff["z_only_after"] == []
    assert diff["other_fields"] == [("orders", 0.5), ("z_values_cut", None)]
    # and with no cut stated, every stored coefficient counts
    del after["z_values_cut"]
    diff = identity.compare_reports(before, after)
    assert diff["z_only_before"] == [("f-00", "2", ((5, 2),), 1)]


def test_reachability_allows_exactly_the_functions_no_command_calls():
    # every src/paqft function that the identity matrix's commands leave
    # uncalled is allow-listed with its reason, and no allow-listed one is
    # called or gone; the commands themselves end as they do in the matrix
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "reachability.py"), "--quick"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    codes = dict(line.split(": exit ") for line in run.stdout.splitlines()
                 if ": exit " in line)
    assert codes == {case: "2" if case == "usage-error" else "0"
                     for case in _identity_module().CASES}
