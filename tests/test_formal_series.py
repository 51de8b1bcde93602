import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from paqft.formal_series import (LambdaSeries, MultilinearFamily, compose_SZ,
                                 expand_on_series_argument, polarize,
                                 series_add, series_invert, series_multiply,
                                 series_scale)
from paqft.functionals import PolyFunctional
from paqft.lattice import LatticePoint

F = Fraction


def _exp_oracle(poly, cap):
    """Exact coefficients of exp(sum_j poly[j] x^j), poly[0] == 0."""
    out = [F(1)] + [F(0)] * cap
    power = [F(1)] + [F(0)] * cap
    for k in range(1, cap + 1):
        nxt = [F(0)] * (cap + 1)
        for i in range(cap + 1):
            if power[i] == 0:
                continue
            for j in range(1, cap - i + 1):
                nxt[i + j] += power[i] * poly[j]
        power = [c / k for c in nxt]
        for i in range(cap + 1):
            out[i] += power[i]
    return out


def _product_family():
    return MultilinearFamily(evaluate_mixed=lambda n, args: math.prod(args))


# -- series ring ----------------------------------------------------------


def test_series_shape_errors():
    with pytest.raises(ValueError, match="need 3 coefficients"):
        LambdaSeries(2, (1, 2))
    a = LambdaSeries.from_list([1, 2, 3])
    b = LambdaSeries.from_list([1, 2])
    with pytest.raises(ValueError, match="order_cap mismatch"):
        series_add(a, b)
    with pytest.raises(ValueError, match="order_cap mismatch"):
        series_multiply(a, b)
    assert a.truncated(1).coefficients == (1, 2)
    with pytest.raises(ValueError, match="cannot extend"):
        b.truncated(5)


def test_series_ring_ops_exact():
    a = LambdaSeries.from_list([F(1), F(2), F(3)])
    b = LambdaSeries.from_list([F(0), F(1), F(-1)])
    assert series_add(a, b).coefficients == (1, 3, 2)
    # (1 + 2x + 3x^2)(x - x^2) truncates to x + x^2
    assert series_multiply(a, b).coefficients == (0, 1, 1)
    assert series_scale(a, F(1, 2)).coefficients == (F(1, 2), F(1), F(3, 2))


def test_series_invert_geometric():
    a = LambdaSeries.from_list([F(1), F(-1), F(0), F(0), F(0), F(0)])
    inv = series_invert(a)
    assert all(c == 1 for c in inv.coefficients)


def test_series_invert_exact_two_sided_commutative():
    a = LambdaSeries.from_list([F(1), F(1, 2), F(-2, 3), F(5, 7)])
    inv = series_invert(a)
    unit = (F(1), F(0), F(0), F(0))
    assert series_multiply(a, inv).coefficients == unit
    assert series_multiply(inv, a).coefficients == unit


def test_series_invert_rejects_non_unit_leading():
    a = LambdaSeries.from_list([F(2), F(1)])
    with pytest.raises(ValueError, match="not the unit"):
        series_invert(a)


@dataclass(frozen=True)
class _M:
    """Exact 2x2 matrix, for a noncommutative coefficient target."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __add__(s, o):
        return _M(s.a + o.a, s.b + o.b, s.c + o.c, s.d + o.d)

    def __neg__(s):
        return _M(-s.a, -s.b, -s.c, -s.d)

    def mul(s, o):
        return _M(s.a * o.a + s.b * o.c, s.a * o.b + s.b * o.d,
                  s.c * o.a + s.d * o.c, s.c * o.b + s.d * o.d)


def test_series_invert_noncommutative_two_sided():
    unit = _M(F(1), F(0), F(0), F(1))
    m1 = _M(F(0), F(1), F(0), F(0))
    m2 = _M(F(0), F(0), F(1), F(2))
    assert m1.mul(m2) != m2.mul(m1)
    a = LambdaSeries.from_list([unit, m1, m2, m1])
    prod = lambda x, y: x.mul(y)
    inv = series_invert(a, product=prod, unit=unit)
    zero = _M(F(0), F(0), F(0), F(0))
    want = (unit, zero, zero, zero)
    assert series_multiply(a, inv, product=prod).coefficients == want
    assert series_multiply(inv, a, product=prod).coefficients == want


# -- multilinear families -------------------------------------------------


def test_family_argument_validation():
    with pytest.raises(ValueError, match="at least one evaluator"):
        MultilinearFamily()
    fam = _product_family()
    with pytest.raises(ValueError, match="order must be"):
        fam.diagonal(0, F(1))
    with pytest.raises(ValueError, match="need 3 arguments"):
        fam.mixed(3, [F(1)])
    with pytest.raises(ValueError, match="need 2 arguments"):
        polarize(fam, 2, [F(1)])


def test_polarize_matches_direct_product():
    direct = _product_family()
    diag_only = MultilinearFamily(evaluate_diagonal=lambda n, f: f ** n)
    args3 = [F(1, 2), F(2, 3), F(-5, 4)]
    assert diag_only.mixed(3, args3) == direct.mixed(3, args3)
    args4 = [F(1), F(2), F(3), F(-1, 3)]
    assert diag_only.mixed(4, args4) == direct.mixed(4, args4)


def test_polarize_vector_arguments(rng):
    w = rng.normal(size=6)
    fam = MultilinearFamily(
        evaluate_diagonal=lambda n, f: float(np.dot(w, f)) ** n)
    fs = [rng.normal(size=6) for _ in range(3)]
    want = float(np.prod([np.dot(w, f) for f in fs]))
    assert abs(float(fam.mixed(3, fs)) - want) < 1e-9


def test_mixed_memo_is_order_insensitive():
    calls = []
    fam = MultilinearFamily(
        evaluate_mixed=lambda n, args: calls.append(1) or math.prod(args))
    x, y = F(2), F(3)
    v1 = fam.mixed(2, [x, y])
    v2 = fam.mixed(2, [y, x])
    assert v1 == v2 == 6
    assert len(calls) == 1


def _counting_family(calls, **kw):
    return MultilinearFamily(
        evaluate_mixed=lambda n, args: calls.append(n) or math.prod(args),
        **kw)


def test_memo_keys_scalars_by_type_and_value():
    calls = []
    fam = _counting_family(calls)
    assert fam.mixed(2, [F(2), F(3)]) == 6
    assert fam.mixed(2, [F(3), F(2)]) == 6
    assert len(calls) == 1
    # equal but differently typed values get their own entries
    got = fam.mixed(2, [2.0, 3.0])
    assert got == 6.0 and isinstance(got, float)
    assert len(calls) == 2


def test_memo_shares_equal_polyfunctionals(lat):
    def build():
        return PolyFunctional.from_monomials(
            lat, [(0.5, [LatticePoint(4, 2)]),
                  (-1.25, [LatticePoint(4, 2), LatticePoint(5, 3)])])

    calls = []
    fam = MultilinearFamily(
        evaluate_mixed=lambda n, args: calls.append(n) or args[0])
    f1, f2 = build(), build()
    assert f1 is not f2
    assert fam.mixed(2, [f1, f1]) is f1
    assert fam.mixed(2, [f2, f2]) is f1
    assert fam.diagonal(2, f2) is f1
    assert calls == [2]
    assert len(fam._memo) == 1


def test_diagonal_after_mixed_calls_no_evaluator():
    calls = []
    fam = _counting_family(calls)
    assert fam.mixed(3, [F(2)] * 3) == 8
    assert fam.diagonal(3, F(2)) == 8
    assert calls == [3]
    # a non-symmetric family shares the entry too
    ordered = _counting_family(calls, symmetric=False)
    assert ordered.diagonal(2, F(5)) == 25
    assert ordered.mixed(2, [F(5), F(5)]) == 25
    assert calls == [3, 2]


def test_memo_never_reuses_ids_of_dead_arguments():
    # vectors built in the loop die after each call; their ids are free to
    # be reused, and a key on the bare id would hand out a stale value
    fam = MultilinearFamily(evaluate_diagonal=lambda n, v: float(v.sum()) * n)
    for i in range(200):
        assert fam.diagonal(2, np.full(3, float(i))) == 6.0 * i
    mixed = MultilinearFamily(
        evaluate_mixed=lambda n, args: float(sum(a.sum() for a in args)))
    for i in range(200):
        assert mixed.mixed(2, [np.full(2, float(i)), np.ones(2)]) == 2.0 * i + 2


# -- series-argument expansion and composition ----------------------------


def test_expand_on_series_argument_exponential():
    fam = _product_family()
    poly = [F(0), F(2), F(3), F(0), F(0)]
    g = LambdaSeries.from_list(poly)
    out = expand_on_series_argument(fam, g, lambda k: F(1), F(1))
    assert list(out.coefficients) == _exp_oracle(poly, 4)


def test_expand_with_nontrivial_prefactor():
    # prefactor p^k turns the expansion into exp(p * g)
    fam = _product_family()
    poly = [F(0), F(1), F(-1, 2), F(1, 3)]
    g = LambdaSeries.from_list(poly)
    out = expand_on_series_argument(fam, g, lambda k: F(3) ** k, F(1))
    scaled = [F(3) * c for c in poly]
    assert list(out.coefficients) == _exp_oracle(scaled, 3)


def test_expand_requires_vanishing_leading_term():
    fam = _product_family()
    g = LambdaSeries.from_list([F(1), F(2)])
    with pytest.raises(ValueError, match="vanish at order 0"):
        expand_on_series_argument(fam, g, lambda k: F(1), F(1))


def test_compose_SZ_exact_exponential():
    fam = _product_family()
    zfam = MultilinearFamily(
        evaluate_diagonal=lambda n, f: f if n == 1 else
        (F(4) * f * f if n == 2 else F(0)))
    out = compose_SZ(fam, lambda k: F(1), zfam, F(1), 4, F(1), F(0))
    # Z(x) = x + 2 x^2, so the composite is exp(x + 2 x^2)
    oracle = _exp_oracle([F(0), F(1), F(2), F(0), F(0)], 4)
    assert list(out.coefficients) == oracle


def test_compose_SZ_rejects_non_identity_order_one():
    fam = _product_family()
    bad = MultilinearFamily(evaluate_diagonal=lambda n, f: 2 * f)
    with pytest.raises(ValueError, match="Z4"):
        compose_SZ(fam, lambda k: F(1), bad, F(1), 3, F(1), F(0))
