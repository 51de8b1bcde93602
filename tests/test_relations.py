import functools

import pytest

from paqft import cli
from paqft import smatrix_renorm
from paqft.cli import load_config
from paqft.relations import check_hammerstein, hammerstein_sides
from paqft.smatrix_renorm import default_s_plan, default_z_plan

# -- the identity ---------------------------------------------------------


def test_hammerstein_sides_factor_order():
    # words record the order: the late pair stands left, phi(f)^{-1} in
    # the middle, and the left pair of factors is multiplied first
    lhs, rhs = hammerstein_sides(
        phi=lambda parts: f"phi({'+'.join(parts)})",
        mult=lambda a, b: f"[{a}.{b}]", inverse=lambda x: f"{x}^-1",
        f1=("f1",), f=("f",), f2=("f2",))
    assert lhs == "phi(f1+f+f2)"
    assert rhs == "[[phi(f2+f).phi(f)^-1].phi(f+f1)]"


def _additive_sides(phi, f1, f, f2):
    # the abelian case on numbers: mult is +, the inverse negation
    return hammerstein_sides(phi, lambda a, b: a + b, lambda x: -x,
                             f1, f, f2)


def test_hammerstein_linear_map_passes():
    for f1, f, f2 in [(-2, 0, 1), (-1, 2, 3), (0, -3, 2)]:
        for mid in (f, 0):
            lhs, rhs = _additive_sides(lambda x: 3.0 * x, f1, mid, f2)
            assert lhs - rhs == 0.0


def test_hammerstein_detects_nonadditive_map():
    lhs, rhs = _additive_sides(lambda x: x * x, -2, 1, 3)
    assert abs(lhs - rhs) > 1.0


# -- the row builder ------------------------------------------------------


def test_check_hammerstein_is_the_distances_of_the_sides(lat, S):
    # one list per named middle term, in the given order, of the
    # order-wise distances of the two sides
    cap = 2
    f1, fm, f2 = default_s_plan(lat, seed=0, count=1,
                                cap=cap)["causal_triples"][0]
    phi = functools.partial(S.series, cap=cap)
    middles = {"s2": (fm,), "mult": ()}
    got = check_hammerstein(phi, S.multiply, S.invert, (f1,), (f2,),
                            middles, range(cap + 1))
    assert list(got) == ["s2", "mult"]
    for name, mid in middles.items():
        lhs, rhs = hammerstein_sides(phi, S.multiply, S.invert, (f1,), mid,
                                     (f2,))
        assert got[name] == [lhs.coeff(n).distance(rhs.coeff(n))
                             for n in range(cap + 1)]
        assert max(got[name]) <= 1e-12


def test_hammerstein_rejects_misordered_sample(lat, S, monkeypatch):
    # a triple whose f1 is later than f2 is refused on the hammerstein
    # suite's route before any row is built
    def misordered_plan(lattice, **kw):
        plan = default_z_plan(lattice, **kw)
        f1, fm, f2 = plan["causal_triples"][0]
        plan["causal_triples"][0] = (f2, fm, f1)
        return plan

    monkeypatch.setattr(smatrix_renorm, "default_z_plan", misordered_plan)
    cfg = load_config(None, ["samples.count=1", "caps.lambda_order=1"])
    with pytest.raises(ValueError, match="causal triple #0 is not causally "
                       "ordered"):
        cli._suite_hammerstein(cfg, lat, S)
