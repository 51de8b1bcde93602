import functools
import gc
import operator
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paqft.functionals import HbarScalar, PolyFunctional
from paqft.lattice import Kernel, Lattice, LatticePoint
from paqft.smatrix_renorm import build_smatrix
from paqft.star_algebra import StarAlgebraContext, _site_selections

from oracles import (against, assert_within_bound, bits, exact_contract,
                     poly, reference_permanent, reference_selections,
                     stored_z_monomials, time_ordered_fold)


def _phi(lat, t, x):
    return PolyFunctional.field_at(lat, LatticePoint(t, x))


def _random_poly(lat, rng, degree=2, n_terms=4, t_lo=2, t_hi=9, scale=0.5):
    terms = []
    for _ in range(n_terms):
        d = int(rng.integers(1, degree + 1))
        pts = [LatticePoint(int(rng.integers(t_lo, t_hi + 1)),
                            int(rng.integers(0, lat.nx)))
               for _ in range(d)]
        terms.append((scale * rng.normal(), pts))
    return PolyFunctional.from_monomials(lat, terms)


# -- Wick-formula oracles --------------------------------------------------


def test_phi_star_phi_pair(lat, ctx):
    a, b = LatticePoint(3, 4), LatticePoint(7, 4)
    fa, fb = _phi(lat, *a), _phi(lat, *b)
    w = ctx.wightman.entries[lat.site_index(a), lat.site_index(b)]
    want = fa * fb + PolyFunctional.constant(lat, HbarScalar({1: w}))
    assert ctx.star(fa, fb).distance(want) < 1e-12


def test_time_ordered_pair(lat, ctx):
    a, b = LatticePoint(3, 4), LatticePoint(7, 4)
    fa, fb = _phi(lat, *a), _phi(lat, *b)
    df = ctx.feynman.entries[lat.site_index(a), lat.site_index(b)]
    want = fa * fb + PolyFunctional.constant(lat, HbarScalar({1: df}))
    assert ctx.time_ordered(fa, fb).distance(want) < 1e-12


def test_wick_square_star(lat, ctx):
    a, b = LatticePoint(2, 1), LatticePoint(8, 2)
    fa, fb = _phi(lat, *a), _phi(lat, *b)
    w = ctx.wightman.entries[lat.site_index(a), lat.site_index(b)]
    got = ctx.star(fa * fa, fb * fb)
    want = (fa * fa) * (fb * fb) \
        + (fa * fb).scaled(HbarScalar({1: 4.0 * w})) \
        + PolyFunctional.constant(lat, HbarScalar({2: 2.0 * w * w}))
    assert got.distance(want) < 1e-12


def test_unit_is_multiplicative_unit(lat, ctx, rng):
    F = _random_poly(lat, rng)
    one = PolyFunctional.unit(lat)
    assert ctx.star(one, F).distance(F) == 0.0
    assert ctx.star(F, one).distance(F) == 0.0
    assert ctx.time_ordered(one, F).distance(F) == 0.0


# -- algebraic laws --------------------------------------------------------


def test_commutator_hbar1_is_poisson_bracket(lat, ctx, rng):
    for _ in range(6):
        F = _random_poly(lat, rng)
        G = _random_poly(lat, rng)
        comm = ctx.star(F, G) - ctx.star(G, F)
        phi = rng.normal(size=lat.n_sites)
        got = comm.evaluate(phi).coeffs.get(1, 0j)
        want = 1j * lat.poisson_bracket(F, G, phi).coeffs.get(0, 0j)
        assert abs(got - want) < 1e-10


def test_star_associative(lat, ctx, rng):
    for _ in range(3):
        F = _random_poly(lat, rng, n_terms=3)
        G = _random_poly(lat, rng, n_terms=3)
        H = _random_poly(lat, rng, n_terms=3)
        left = ctx.star(ctx.star(F, G), H)
        right = ctx.star(F, ctx.star(G, H))
        assert left.distance(right) < 1e-10


def test_star_noncommutative_time_ordered_commutative(lat, ctx):
    # timelike-separated points: the Wightman kernel is asymmetric there,
    # the Feynman kernel symmetric everywhere
    fa, fb = _phi(lat, 2, 3), _phi(lat, 6, 3)
    assert ctx.star(fa, fb).distance(ctx.star(fb, fa)) > 1e-3
    assert ctx.time_ordered(fa, fb).distance(ctx.time_ordered(fb, fa)) < 1e-14


def test_time_ordered_n_fold(lat, ctx, rng):
    assert time_ordered_fold(ctx, []).distance(PolyFunctional.unit(lat)) == 0.0
    F = _random_poly(lat, rng)
    assert time_ordered_fold(ctx, [F]).distance(F) == 0.0
    G = _random_poly(lat, rng, n_terms=3)
    H = _random_poly(lat, rng, n_terms=3)
    a = time_ordered_fold(ctx, [F, G, H])
    b = time_ordered_fold(ctx, [H, F, G])
    assert a.distance(b) < 1e-10


def test_classical_limit_is_pointwise_product(lat, ctx, rng):
    F = _random_poly(lat, rng)
    G = _random_poly(lat, rng)
    phi = rng.normal(size=lat.n_sites)
    classical = (F * G).evaluate(phi).coeffs.get(0, 0j)
    for product in (ctx.star, ctx.time_ordered):
        got = product(F, G).evaluate(phi).coeffs.get(0, 0j)
        assert abs(got - classical) < 1e-12


# -- the per-term contraction loop (its exact twin is in tests/oracles.py) --


def _reference_contract(lat, F, G, entries):
    """The per-term contraction loop: numpy submatrices, every index
    selection and one HbarScalar per term."""
    acc: dict = {}

    def add(key, term):
        prev = acc.get(key)
        acc[key] = term if prev is None else prev + term

    for da, ka, ca in F.monomials():
        for db, kb, cb in G.monomials():
            cc = ca * cb
            for r in range(min(da, db) + 1):
                if r == 0:
                    add(tuple(sorted(ka + kb)), cc)
                    continue
                weight = HbarScalar({r: 1.0})
                for sa, ra in reference_selections(da, r):
                    rows = [ka[i] for i in sa]
                    for sb, rb in reference_selections(db, r):
                        cols = [kb[j] for j in sb]
                        per = complex(reference_permanent(
                            entries[np.ix_(rows, cols)]))
                        if per == 0:
                            continue
                        add(tuple(sorted(
                            [ka[i] for i in ra] + [kb[j] for j in rb])),
                            cc * (per * weight))
    nested: dict = {}
    for key, coeff in acc.items():
        nested.setdefault(len(key), {})[key] = coeff
    return PolyFunctional(lat, nested)


# the stated bound of every float coefficient against the exact one:
# BOUND_C units of 2^-53 of the sum of |terms|, plus the subnormal floor
BOUND_C = 32


# a few neighbouring sites, so keys share sites and may repeat them
_SITES = [5 * 16 + 3, 5 * 16 + 4, 6 * 16 + 3, 6 * 16 + 4, 7 * 16 + 9]
_parts = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_hbar = st.dictionaries(st.integers(-2, 2),
                        st.builds(complex, _parts, _parts | st.just(-0.0)),
                        min_size=1, max_size=3)
_monomial = st.tuples(st.lists(st.sampled_from(_SITES), max_size=4), _hbar)
_poly_terms = st.lists(_monomial, min_size=1, max_size=4)
# keys with no repeated site: every site multiset is one index selection
_distinct_terms = st.lists(
    st.tuples(st.lists(st.sampled_from(_SITES), max_size=4, unique=True),
              _hbar), min_size=1, max_size=4)
_constant_terms = _hbar.map(lambda c: [([], c)])


def _products(ctx):
    return ((ctx.star, ctx.wightman), (ctx.time_ordered, ctx.feynman))


# The three checks below asserted, before the contraction was factorized,
# bitwise equality with the per-term loop (the first two) and a 1e-14
# relative bound against it (the third).  The factorized engine sums in
# another order, so each now holds every coefficient to the stated bound
# against the exact contraction; the names are kept.


@settings(max_examples=60, deadline=None)
@given(_distinct_terms, _distinct_terms)
def test_contract_bitwise_matches_per_term_hbar_loop(lat, ctx, fm, gm):
    # keys with no repeated site: the engine and the per-term loop both
    # within the stated bound of the exact contraction
    F, G = poly(lat, fm), poly(lat, gm)
    for product, kernel in _products(ctx):
        exact = exact_contract([(F, G)], kernel)
        assert_within_bound(product(F, G), exact, BOUND_C)
        assert_within_bound(
            _reference_contract(lat, F, G, kernel.entries), exact, BOUND_C)


@settings(max_examples=60, deadline=None)
@given(_constant_terms, st.one_of(_constant_terms, _poly_terms))
def test_contract_bitwise_with_a_constant_operand(lat, ctx, cm, gm):
    # F constant, G constant, or both, with one or several hbar exponents
    # each: the r = 0 loop alone
    C, G = poly(lat, cm), poly(lat, gm)
    for product, kernel in _products(ctx):
        for F, H in ((C, G), (G, C)):
            assert_within_bound(product(F, H),
                                exact_contract([(F, H)], kernel), BOUND_C)


@settings(max_examples=100, deadline=None)
@given(_poly_terms, _poly_terms)
def test_contract_multisets_match_the_per_selection_loop(lat, ctx, fm, gm):
    # keys that repeat sites: each distinct site multiset is summed once,
    # times its multiplicity, against every index selection of the exact
    # contraction
    F, G = poly(lat, fm), poly(lat, gm)
    for product, kernel in _products(ctx):
        assert_within_bound(product(F, G), exact_contract([(F, G)], kernel),
                            BOUND_C)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_poly_terms, _poly_terms), min_size=1,
                max_size=3))
def test_contract_sum_is_within_the_bound_of_the_exact_sum(lat, ctx, terms):
    # several pairs, one of them with the first pair's G again, contracted
    # into one accumulator: every coefficient within the stated bound of
    # the exact sum of the products
    pairs = [(poly(lat, fm), poly(lat, gm)) for fm, gm in terms]
    pairs.append((pairs[-1][0], pairs[0][1]))
    for product, kernel in _products(ctx):
        got = ctx.contract_sum(pairs, kernel)
        assert_within_bound(got, exact_contract(pairs, kernel), BOUND_C)
        F, G = pairs[0]
        assert bits(ctx.contract_sum([(F, G)], kernel)) == \
            bits(product(F, G))


def test_smatrix_multiply_and_invert_are_within_the_bound(lat, S):
    # each coefficient of S.multiply and S.invert is one accumulation;
    # it, and the per-product route (each star product formed, then
    # added), are within the stated bound of the exact sum, and of each
    # other
    from paqft.formal_series import series_invert, series_multiply

    a, b = LatticePoint(5, 3), LatticePoint(6, 4)
    f1 = PolyFunctional.from_monomials(lat, [(0.5, [a, a]), (0.3j, [b])])
    f2 = PolyFunctional.from_monomials(lat, [(-0.7, [b]), (0.2, [a, b])])
    A, B = S.series(f1, 3), S.series(f2, 3)
    W = S.context.wightman
    fused = S.multiply(A, B)

    def per_product(pairs):
        return functools.reduce(operator.add, (S.context.star(x, y)
                                               for x, y in pairs))

    per = series_multiply(A, B, product_sum=per_product)
    for n in range(4):
        exact = exact_contract([(A.coeff(k), B.coeff(n - k))
                                for k in range(n + 1)], W)
        assert_within_bound(fused.coeff(n), exact, BOUND_C)
        assert_within_bound(per.coeff(n), exact, BOUND_C)
        assert_within_bound(fused.coeff(n), against(per.coeff(n), exact),
                            BOUND_C)
    unit = PolyFunctional.unit(lat)
    fused = S.invert(A)
    per = series_invert(A, unit=unit, product_sum=per_product)
    assert fused.coeff(0) == unit
    for n in range(1, 4):
        # b_n = -sum_k a_k b_(n-k), exact on each route's own b_(n-k)
        for inv in (fused, per):
            exact = {k: (v * -1, m) for k, (v, m) in exact_contract(
                [(A.coeff(k), inv.coeff(n - k)) for k in range(1, n + 1)],
                W).items()}
            assert_within_bound(inv.coeff(n), exact, BOUND_C)
        assert_within_bound(fused.coeff(n), against(per.coeff(n), exact),
                            BOUND_C)


def test_site_selections_are_multisets_with_multiplicities():
    a, b = 3, 7
    assert _site_selections((a, a, b), 1) == [((a,), (a, b), 2),
                                              ((b,), (a, a), 1)]
    assert _site_selections((a, a, b), 2) == [((a, a), (b,), 1),
                                              ((a, b), (a,), 2)]
    assert _site_selections((a, a, a, a), 2) == [((a, a), (a, a), 6)]
    # without a repeated site, the index selections in their order
    assert _site_selections((1, 2, 3), 2) == [((1, 2), (3,), 1),
                                              ((1, 3), (2,), 1),
                                              ((2, 3), (1,), 1)]


def test_contract_keeps_hbar_window(lat, ctx):
    a = LatticePoint(5, 3)
    F = PolyFunctional.from_monomials(
        lat, [(HbarScalar({4: 1.0}), [a, a, a, a])])
    with pytest.raises(ValueError, match="outside window"):
        ctx.star(F, F)
    # G's contraction with the site carries hbar^9, past the window, but
    # every term of the result lands inside it: no error
    G = PolyFunctional.from_monomials(lat, [(HbarScalar({8: 1.0}), [a])])
    H = PolyFunctional.from_monomials(lat, [(HbarScalar({-1: 1.0}), [a])])
    for product, _kernel in _products(ctx):
        assert product(H, G).hbar_exponent_range() == (7, 8)


@pytest.mark.parametrize("c_const", [{5: 1.0}, {5: 1.0, -1: 2.0}])
def test_contract_keeps_hbar_window_with_a_constant_operand(lat, ctx,
                                                           c_const):
    # the product of the coefficients leaves the window: a single exponent
    # pair (formed inline) and a multi-exponent one (HbarScalar product)
    const = PolyFunctional.constant(lat, HbarScalar(c_const))
    F = PolyFunctional.from_monomials(
        lat, [(HbarScalar({4: 1.0}), [LatticePoint(5, 3)])])
    for G, H in ((const, F), (F, const), (const, PolyFunctional.constant(
            lat, HbarScalar({4: 1.0})))):
        with pytest.raises(ValueError, match="outside window"):
            ctx.star(G, H)
        with pytest.raises(ValueError, match="outside window"):
            ctx.time_ordered(G, H)


# -- the selection cache -----------------------------------------------------


def test_selection_cache_does_not_change_products(lat, ctx, rng):
    F = _random_poly(lat, rng, degree=4, n_terms=5, t_lo=5, t_hi=6)
    G = _random_poly(lat, rng, degree=4, n_terms=5, t_lo=5, t_hi=6)
    warm = StarAlgebraContext.default(lat)
    for _ in range(2):
        warm.star(G, F)
        warm.time_ordered(F, G)
    assert warm._selection_cache
    fresh = StarAlgebraContext.default(lat)
    assert not fresh._selection_cache
    assert fresh == warm  # the cache takes no part in equality
    for one, other in ((fresh.star, warm.star),
                       (fresh.time_ordered, warm.time_ordered)):
        assert bits(one(F, G)) == bits(other(F, G))


def test_a_dropped_smatrix_frees_its_selection_cache():
    # the cache lives on the context alone, so reference counting frees it
    # with the SMatrix that holds the context: no cyclic collection needed
    lat = Lattice(8, 8, 0.5)
    F = _phi(lat, 3, 2) * _phi(lat, 3, 2) + _phi(lat, 4, 5)
    gc.disable()
    try:
        S = build_smatrix(lat)
        S.context.time_ordered(F, F)
        cache = S.context._selection_cache
        assert cache
        # held by the context (or its instance dict) and nothing else
        holder, = gc.get_referrers(cache)
        assert holder is S.context or holder == vars(S.context)
        ref = weakref.ref(S.context)
        del S, cache, holder
        assert ref() is None
    finally:
        gc.enable()


# -- context validation ----------------------------------------------------


def test_context_rejects_non_hadamard_wightman(lat):
    def context(**kernels):
        return StarAlgebraContext(**dict(
            lattice=lat, wightman=lat.wightman(), feynman=lat.feynman(),
            pauli_jordan=lat.pauli_jordan()) | kernels)

    blocks = lat.wightman().blocks.copy()
    blocks[0, 1, 3] += 0.25  # breaks the symmetric real part
    imag = lat.wightman().blocks + 1e-6j  # W - (i/2) Delta not real
    for bad in (blocks, imag):
        with pytest.raises(ValueError, match="real symmetric"):
            context(wightman=Kernel("wightman", lat, bad))
    # a site diagonal of Delta is imaginary in W - (i/2) Delta; one of W
    # is real and symmetric
    d = np.zeros(lat.n_sites)
    d[5] = 1e-6
    with pytest.raises(ValueError, match="real symmetric"):
        context(pauli_jordan=Kernel("pauli_jordan", lat,
                                    lat.pauli_jordan().blocks, d))
    context(wightman=Kernel("wightman", lat, lat.wightman().blocks, d))


def test_context_rejects_foreign_lattice(lat):
    other = Lattice(6, 6, 0.5)
    with pytest.raises(ValueError, match="context lattice"):
        StarAlgebraContext(lattice=lat, wightman=other.wightman(),
                           feynman=lat.feynman(),
                           pauli_jordan=lat.pauli_jordan())


def test_contract_rejects_foreign_functional(lat, ctx):
    other = Lattice(6, 6, 0.5)
    F = PolyFunctional.field_at(other, LatticePoint(1, 1))
    with pytest.raises(ValueError, match="context lattice"):
        ctx.star(F, F)


# -- stored extract-z values do not depend on the summation order -------------


def test_extract_z_stores_the_monomial_sets_of_the_per_term_loop(
        monkeypatch):
    # two-hadamard at the default point: order-3 coefficients at rounding
    # level come and go with the summation order; the cut leaves them out,
    # so the per-term loop and the factorized engine store the same sets
    from paqft import cli

    cfg = cli.load_config(None, ["extract.mode=two-hadamard"])

    def stored():
        lat, S = cli._build(cfg)
        f_units, _z_units = cli._extract_z_units(cfg, lat, S)
        return stored_z_monomials(f_units)

    factorized = stored()
    monkeypatch.setattr(
        StarAlgebraContext, "contract_sum",
        lambda self, pairs, kernel: functools.reduce(
            operator.add, (_reference_contract(self.lattice, F, G,
                                               kernel.entries)
                           for F, G in pairs)))
    per_term = stored()
    assert {n for _i, n, _p, _e in factorized[0]} == {"2", "3"}
    assert per_term == factorized
