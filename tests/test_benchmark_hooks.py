"""The traced benchmark run (`perfbench/traced_cli.py`) wraps paqft's
functions by name from outside, and the benchmark checks each report's
row keys against `perfbench/reference.py`.  A refactor that renames or
drops one of those functions, or changes a report's row keys, must fail
here rather than in a benchmark run."""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from paqft.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def traced_cli():
    return _perfbench_module("traced_cli")


@pytest.fixture(scope="module")
def reference():
    return _perfbench_module("reference")


def test_traced_functions_exist(traced_cli):
    assert traced_cli.TRACED_FUNCTIONS
    for mod, name, _span in traced_cli.TRACED_FUNCTIONS:
        assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"


def test_wrapped_attributes_exist(traced_cli, ctx):
    from paqft.formal_series import MultilinearFamily
    from paqft.functionals import PolyFunctional
    from paqft.lattice import Lattice
    from paqft.smatrix_renorm import SMatrix
    from paqft.star_algebra import StarAlgebraContext

    assert hasattr(StarAlgebraContext, "max_contraction_order")
    for cls, names in (
            (StarAlgebraContext, ("star", "time_ordered")),
            (MultilinearFamily, ("_memo_get", "mixed", "diagonal")),
            (SMatrix, ("series",)),
            (PolyFunctional, ("__add__", "__sub__", "__mul__", "__rmul__",
                              "scaled")),
            (Lattice, traced_cli.KERNELS)):
        for name in names:
            assert callable(getattr(cls, name, None)), f"{cls.__name__}.{name}"
    fam = MultilinearFamily(evaluate_mixed=lambda n, args: args[0])
    assert hasattr(fam, "_mixed") and hasattr(fam, "_diagonal")
    # contract_hook keys each kernel by the id of its dense entries, which
    # no command reads
    for K in (ctx.wightman, ctx.feynman):
        assert K.entries is K.entries
        assert K.entries.shape == (ctx.lattice.n_sites,) * 2


def test_poly_terms_have_the_shape_the_digest_reads(traced_cli, lat, ctx):
    # _poly_digest reads F.terms as int degree -> tuple key -> object with
    # a .coeffs dict, for the operands of every star/time_ordered call
    from paqft.functionals import PolyFunctional
    from paqft.lattice import LatticePoint

    F = PolyFunctional.from_monomials(
        lat, [(1 + 2j, [LatticePoint(4, 3), LatticePoint(5, 3)]),
              (0.5, [LatticePoint(6, 4)])])
    G = F.scaled(0.5j) - PolyFunctional.unit(lat)
    for P in (F, G, F + G, ctx.star(F, G), ctx.time_ordered(G, F)):
        assert P.terms
        for deg, bucket in P.terms.items():
            assert type(deg) is int
            for key, coeff in bucket.items():
                assert type(key) is tuple and len(key) == deg
                assert all(type(i) is int for i in key)
                assert type(coeff.coeffs) is dict
        assert len(traced_cli._poly_digest(P)) == 20


@pytest.mark.parametrize("command, sets, seed", [
    ("extract-z", [], 0), ("extract-z", [], 1),
    ("axioms", ["--set", "samples.count=5"], 0)],
    ids=["extract-z-0", "extract-z-1", "axioms-count5-0"])
def test_report_row_keys_match_the_reference(reference, tmp_path, command,
                                             sets, seed):
    # the benchmark rejects a report whose row-key multiset differs from
    # reference.py's; a unit split that renumbers triples or repeats Z1
    # rows must fail here first
    assert main([command, "--set", f"output={tmp_path}",
                 "--set", f"samples.seed={seed}"] + sets) == 0
    name = command.replace("-", "_")
    report = json.loads((tmp_path / f"{name}.json").read_text())
    keys = Counter(key for key, _ok in reference.report_rows(command, report))
    assert keys == reference.EXPECTED[command](seed)
