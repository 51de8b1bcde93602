"""The traced benchmark run (`perfbench/traced_cli.py`) wraps paqft's
functions by name from outside.  A refactor that renames or drops one of
them must fail here rather than in a traced run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def traced_cli():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("traced_cli")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_functions_exist(traced_cli):
    assert traced_cli.TRACED_FUNCTIONS
    for mod, name, _span in traced_cli.TRACED_FUNCTIONS:
        assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"


def test_wrapped_attributes_exist(traced_cli):
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
