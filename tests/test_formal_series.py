import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from paqft.formal_series import (LambdaSeries, MultilinearFamily, compose_SZ,
                                 polarize, series_add, series_invert,
                                 series_multiply, series_scale, set_partitions,
                                 terms_at_sum)
from paqft.functionals import PolyFunctional
from paqft.lattice import LatticePoint
from paqft.smatrix_renorm import (RenormalizationMap, build_smatrix, compose,
                                  make_handcrafted_Z, prefactor)

from oracles import bits

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
    a = LambdaSeries(2, (1, 2, 3))
    b = LambdaSeries(1, (1, 2))
    with pytest.raises(ValueError, match="order_cap mismatch"):
        series_add(a, b)
    with pytest.raises(ValueError, match="order_cap mismatch"):
        series_multiply(a, b)


def test_series_ring_ops_exact():
    a = LambdaSeries(2, (F(1), F(2), F(3)))
    b = LambdaSeries(2, (F(0), F(1), F(-1)))
    assert series_add(a, b).coefficients == (1, 3, 2)
    # (1 + 2x + 3x^2)(x - x^2) truncates to x + x^2
    assert series_multiply(a, b).coefficients == (0, 1, 1)
    assert series_scale(a, F(1, 2)).coefficients == (F(1, 2), F(1), F(3, 2))


def test_series_invert_geometric():
    a = LambdaSeries(5, (F(1), F(-1), F(0), F(0), F(0), F(0)))
    inv = series_invert(a)
    assert all(c == 1 for c in inv.coefficients)


def test_series_invert_exact_two_sided_commutative():
    a = LambdaSeries(3, (F(1), F(1, 2), F(-2, 3), F(5, 7)))
    inv = series_invert(a)
    unit = (F(1), F(0), F(0), F(0))
    assert series_multiply(a, inv).coefficients == unit
    assert series_multiply(inv, a).coefficients == unit


def test_series_invert_rejects_non_unit_leading():
    a = LambdaSeries(1, (F(2), F(1)))
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

    def __mul__(s, o):
        return _M(s.a * o.a + s.b * o.c, s.a * o.b + s.b * o.d,
                  s.c * o.a + s.d * o.c, s.c * o.b + s.d * o.d)


def test_series_invert_noncommutative_two_sided():
    unit = _M(F(1), F(0), F(0), F(1))
    m1 = _M(F(0), F(1), F(0), F(0))
    m2 = _M(F(0), F(0), F(1), F(2))
    assert m1 * m2 != m2 * m1
    a = LambdaSeries(3, (unit, m1, m2, m1))
    inv = series_invert(a, unit=unit)
    zero = _M(F(0), F(0), F(0), F(0))
    want = (unit, zero, zero, zero)
    assert series_multiply(a, inv).coefficients == want
    assert series_multiply(inv, a).coefficients == want


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


def test_mixed_memo_is_order_insensitive():
    calls = []
    fam = MultilinearFamily(
        evaluate_mixed=lambda n, args: calls.append(1) or math.prod(args))
    x, y = F(2), F(3)
    v1 = fam.mixed(2, [x, y])
    v2 = fam.mixed(2, [y, x])
    assert v1 == v2 == 6
    assert len(calls) == 1


def _counting_family(calls):
    return MultilinearFamily(
        evaluate_mixed=lambda n, args: calls.append(n) or math.prod(args))


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


# -- values at sums of parts -----------------------------------------------


def test_terms_at_sum_expand_the_power_of_the_sum():
    # T_n(x_1..x_n) = x_1 ... x_n, so the terms add up to (sum of parts)^n
    fam = _product_family()
    parts = (F(1, 2), F(-3), F(5, 7))
    for n in range(1, 5):
        terms = terms_at_sum(fam, n, parts)
        assert len(terms) == math.comb(len(parts) + n - 1, n)
        assert sum(c * t for c, t in terms) == sum(parts) ** n
    # the multinomial counts of two parts at order 3, in the order of
    # combinations_with_replacement
    assert terms_at_sum(fam, 3, (F(2), F(3))) == [
        (1, F(8)), (3, F(12)), (3, F(18)), (1, F(27))]
    # zero parts of several are dropped; a lone part is its diagonal value
    assert terms_at_sum(fam, 2, (F(0), F(2), F(0))) == [(1, F(4))]
    assert terms_at_sum(fam, 2, (F(0),)) == [(1, F(0))]
    assert terms_at_sum(fam, 2, ()) == []


# -- composition by set partitions ----------------------------------------


def _composite_coefficients(fam, prefactor, zfam, f, cap):
    """Coefficients of (S compose Z)(lambda f) through lambda^cap."""
    return [F(1)] + [compose_SZ(fam, prefactor, zfam, [f] * n)
                     / math.factorial(n) for n in range(1, cap + 1)]


def _map_from_series(poly):
    """Diagonal-only Z with Z_1 = id and Z_m(f^m) = m! poly[m] whatever f,
    so that Z(lambda poly[1]) = sum_m poly[m] lambda^m."""
    return MultilinearFamily(evaluate_diagonal=lambda n, f: f if n == 1
                             else math.factorial(n) * poly[n])


def test_set_partitions_counts_and_order():
    assert list(set_partitions(0)) == [[]]
    assert list(set_partitions(2)) == [[[0, 1]], [[0], [1]]]
    # Bell numbers; each partition once, its blocks covering range(n) and
    # ordered by their first index
    for n, bell in ((1, 1), (3, 5), (4, 15), (5, 52)):
        parts = list(set_partitions(n))
        assert len(parts) == bell
        assert len({tuple(map(tuple, p)) for p in parts}) == bell
        for p in parts:
            assert sorted(i for b in p for i in b) == list(range(n))
            assert [b[0] for b in p] == sorted(b[0] for b in p)


def test_compose_SZ_series_argument_exponential():
    # S = exp on the series argument 2x + 3x^2
    poly = [F(0), F(2), F(3), F(0), F(0)]
    out = _composite_coefficients(_product_family(), lambda k: F(1),
                                  _map_from_series(poly), poly[1], 4)
    assert out == _exp_oracle(poly, 4)


def test_compose_SZ_with_nontrivial_prefactor():
    # prefactor p^k turns the composite into exp(p * g)
    poly = [F(0), F(1), F(-1, 2), F(1, 3)]
    out = _composite_coefficients(_product_family(), lambda k: F(3) ** k,
                                  _map_from_series(poly), poly[1], 3)
    scaled = [F(3) * c for c in poly]
    assert out == _exp_oracle(scaled, 3)


def test_compose_SZ_exact_exponential():
    fam = _product_family()
    zfam = MultilinearFamily(
        evaluate_diagonal=lambda n, f: f if n == 1 else
        (F(4) * f * f if n == 2 else F(0)))
    out = _composite_coefficients(fam, lambda k: F(1), zfam, F(1), 4)
    # Z(x) = x + 2 x^2, so the composite is exp(x + 2 x^2)
    oracle = _exp_oracle([F(0), F(1), F(2), F(0), F(0)], 4)
    assert out == oracle


def test_compose_SZ_mixed_exact():
    # S = exp, Z_2(a, b) = 4ab, Z_3 = 0: of the five partitions of three
    # arguments, the one-block term is 0, each of the three two-block
    # terms is 4abc and the three-block term is abc
    zfam = MultilinearFamily(
        evaluate_mixed=lambda n, args: args[0] if n == 1 else
        (F(4) * args[0] * args[1] if n == 2 else F(0)))
    a, b, c = F(1, 2), F(-3), F(5, 7)
    got = compose_SZ(_product_family(), lambda k: F(1), zfam, [a, b, c])
    assert got == 13 * a * b * c


def test_compose_SZ_rejects_non_identity_order_one():
    fam = _product_family()
    bad = MultilinearFamily(evaluate_diagonal=lambda n, f: 2 * f)
    with pytest.raises(ValueError, match="Z4"):
        compose_SZ(fam, lambda k: F(1), bad, [F(1)] * 3)


def _per_partition_sum(family, weight, z_family, args):
    """compose_SZ as one term per set partition, added in set_partitions
    order: the reference for its grouped sum."""
    acc = None
    for blocks in set_partitions(len(args)):
        zvals = [z_family.mixed(len(b), [args[i] for i in b]) for b in blocks]
        term = family.mixed(len(blocks), zvals) * weight(len(blocks))
        acc = term if acc is None else acc + term
    return acc


def _pointwise_Z(lat, z3):
    """Z_1 = id, Z_2(a, b) = a b / 2, Z_3(a, b, c) = z3 a b c (pointwise
    products) and Z_m = 0 above."""
    def mixed(n, args):
        if n == 1:
            return args[0]
        if n == 2:
            return (args[0] * args[1]) * 0.5
        if n == 3:
            return (args[0] * args[1] * args[2]) * z3
        return PolyFunctional.zero(lat)
    return MultilinearFamily(evaluate_mixed=mixed)


@pytest.mark.parametrize("case", ["distinct-3", "distinct-4", "equal-3",
                                  "equal-4", "equal-5", "two-kinds-5"])
def test_compose_SZ_grouped_sum_matches_per_partition_sum(lat, case):
    S = build_smatrix(lat)
    kind, n = case.rsplit("-", 1)
    n = int(n)
    rng = np.random.default_rng(7)
    fs = [PolyFunctional.from_monomials(lat, [
        (complex(rng.normal(), rng.normal()),
         [LatticePoint(5 + i % 2, 3 + i)])]) for i in range(n)]
    args = {"distinct": fs, "equal": [fs[0]] * n,
            "two-kinds": [fs[0], fs[1], fs[0], fs[1], fs[0]]}[kind]
    # Z_3 = 0 where the sum is bitwise: the one-block term of [f] * 3 is
    # then 0, and as x + x is exact, (x + x) + x rounds like 3 x
    z3 = 0.0 if case == "equal-3" else 0.7
    zfam = _pointwise_Z(lat, z3)
    want = _per_partition_sum(S.family, prefactor, zfam, args)
    got = compose_SZ(S.family, prefactor, zfam, args)
    if kind == "distinct" or case == "equal-3":
        assert bits(got) == bits(want)
        return
    # grouping reorders the sum of the terms; each of the two sums is
    # within (B_n - 1) u sum_pi |term_pi| of the exact one per component
    # (u = 2^-53, B_n partitions), and a complex modulus at most sqrt(2)
    # times its largest component
    terms = [S.family.mixed(len(b), [zfam.mixed(len(x), [args[i] for i in x])
                                     for x in b]) * prefactor(len(b))
             for b in set_partitions(n)]
    bound = 2 * math.sqrt(2) * len(terms) * 2.0 ** -53 * sum(
        t.max_norm() for t in terms)
    assert (got - want).max_norm() <= bound
    assert want.max_norm() > 1e3 * bound


def test_diagonal_only_family_equal_arguments_are_diagonal(lat):
    # a map replaying one extracted value: Z_2(f, f) = v for any f, which
    # polarization would turn into -v/2
    v = PolyFunctional.from_monomials(lat, [(0.75, [LatticePoint(5, 4)])])
    f = PolyFunctional.from_monomials(lat, [(1.5, [LatticePoint(5, 2)])])
    fam = RenormalizationMap.from_values(lat, {2: v}).family
    assert fam.mixed(2, [f, f]) is v
    assert fam.mixed(1, [f]) is f
    calls = []
    diag_only = MultilinearFamily(
        evaluate_diagonal=lambda n, x: calls.append(n) or x ** n)
    assert diag_only.mixed(3, [F(2), F(2), F(2)]) == 8
    assert diag_only.diagonal(3, F(2)) == 8
    assert calls == [3]


def test_series_on_requires_vanishing_leading_term(lat):
    S = build_smatrix(lat)
    unit = PolyFunctional.unit(lat)
    with pytest.raises(ValueError, match="vanish at order 0"):
        S.series_on(LambdaSeries(1, (unit, unit)))


@pytest.mark.parametrize("n", [3, 4])
def test_composite_mixed_matches_polarization(lat, n):
    S = build_smatrix(lat)
    window = [LatticePoint(t, x) for t in range(2, 10) for x in range(lat.nx)]
    Z = make_handcrafted_Z(lat, 0.25, window)
    # overlapping supports, so that the pairing Z_2 does not vanish
    rng = np.random.default_rng(3)
    sites = [LatticePoint(t, x) for t in (5, 6) for x in (3, 4)]
    args = [PolyFunctional.from_monomials(lat, [
        (rng.normal(), [sites[i % 4]]),
        (rng.normal(), [sites[i % 4], sites[(i + 1) % 4]])])
        for i in range(n)]
    direct = compose(S, Z).family.mixed(n, args)
    polarized = polarize(compose(S, Z).family, n, args)
    scale = direct.max_norm()
    assert (direct - S.family.mixed(n, args)).max_norm() > 0.1 * scale
    assert (direct - polarized).max_norm() <= 1e-10 * scale
