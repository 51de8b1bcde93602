import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paqft.functionals import HbarScalar, PolyFunctional
from paqft.lattice import Kernel, Lattice, LatticePoint
from paqft.smatrix_renorm import build_smatrix
from paqft.star_algebra import StarAlgebraContext, _site_selections, beta


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


def _time_ordered_fold(ctx, factors):
    """n-ary time-ordered product as a left fold of the binary one; the
    empty product is the unit functional."""
    out = None
    for f in factors:
        out = f if out is None else ctx.time_ordered(out, f)
    if out is None:
        return PolyFunctional.unit(ctx.lattice)
    return out


# -- Wick-formula oracles --------------------------------------------------


def test_phi_star_phi_pair(lat, ctx):
    a, b = LatticePoint(3, 4), LatticePoint(7, 4)
    fa, fb = _phi(lat, *a), _phi(lat, *b)
    w = ctx.wightman.entry(a, b)
    want = fa * fb + PolyFunctional.constant(lat, HbarScalar({1: w}))
    assert ctx.star(fa, fb).distance(want) < 1e-12


def test_time_ordered_pair(lat, ctx):
    a, b = LatticePoint(3, 4), LatticePoint(7, 4)
    fa, fb = _phi(lat, *a), _phi(lat, *b)
    df = ctx.feynman.entry(a, b)
    want = fa * fb + PolyFunctional.constant(lat, HbarScalar({1: df}))
    assert ctx.time_ordered(fa, fb).distance(want) < 1e-12


def test_wick_square_star(lat, ctx):
    a, b = LatticePoint(2, 1), LatticePoint(8, 2)
    fa, fb = _phi(lat, *a), _phi(lat, *b)
    w = ctx.wightman.entry(a, b)
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
        comm = ctx.commutator(F, G)
        phi = rng.normal(size=lat.n_sites)
        got = comm.evaluate(phi).at(1)
        want = 1j * lat.poisson_bracket(F, G, phi).at(0)
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
    assert _time_ordered_fold(ctx, []).distance(PolyFunctional.unit(lat)) == 0.0
    F = _random_poly(lat, rng)
    assert _time_ordered_fold(ctx, [F]).distance(F) == 0.0
    G = _random_poly(lat, rng, n_terms=3)
    H = _random_poly(lat, rng, n_terms=3)
    a = _time_ordered_fold(ctx, [F, G, H])
    b = _time_ordered_fold(ctx, [H, F, G])
    assert a.distance(b) < 1e-10


def test_classical_limit_is_pointwise_product(lat, ctx, rng):
    F = _random_poly(lat, rng)
    G = _random_poly(lat, rng)
    phi = rng.normal(size=lat.n_sites)
    classical = (F * G).evaluate(phi).at(0)
    assert abs(ctx.star(F, G).evaluate(phi).at(0) - classical) < 1e-12
    assert abs(ctx.time_ordered(F, G).evaluate(phi).at(0) - classical) < 1e-12


# -- bitwise oracle: the contraction loop with one HbarScalar per term ------


def _reference_permanent(mat):
    r = mat.shape[0]
    if r == 1:
        return complex(mat[0, 0])
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(r)):
        p = 1.0 + 0.0j
        for i, j in enumerate(perm):
            p *= mat[i, j]
            if p == 0:
                break
        total += p
    return total


def _reference_selections(degree, r):
    return [(sel, tuple(i for i in range(degree) if i not in sel))
            for sel in itertools.combinations(range(degree), r)]


def _reference_contract(lat, F, G, entries, mags=None):
    """The contraction as it was written before flat accumulation: numpy
    submatrices, every index selection and one HbarScalar per term.  With
    `mags`, {(key, exponent): sum of |term|} is added up in it."""
    acc: dict = {}

    def add(key, term):
        prev = acc.get(key)
        acc[key] = term if prev is None else prev + term
        if mags is not None:
            for e, v in term.coeffs.items():
                mags[key, e] = mags.get((key, e), 0.0) + abs(v)

    for da, ka, ca in F.monomials():
        for db, kb, cb in G.monomials():
            cc = ca * cb
            for r in range(min(da, db) + 1):
                if r == 0:
                    add(tuple(sorted(ka + kb)), cc)
                    continue
                weight = HbarScalar({r: 1.0})
                for sa, ra in _reference_selections(da, r):
                    rows = [ka[i] for i in sa]
                    for sb, rb in _reference_selections(db, r):
                        cols = [kb[j] for j in sb]
                        per = _reference_permanent(entries[np.ix_(rows, cols)])
                        if per == 0:
                            continue
                        add(tuple(sorted(
                            [ka[i] for i in ra] + [kb[j] for j in rb])),
                            cc * (per * weight))
    nested: dict = {}
    for key, coeff in acc.items():
        nested.setdefault(len(key), {})[key] = coeff
    return PolyFunctional(lat, nested)


def _bits(F):
    """Every term with its coefficient's exponents and float bit patterns,
    in iteration order (signed zeros and dict order included)."""
    return [(deg, key, [(e, v.real.hex(), v.imag.hex())
                        for e, v in c.coeffs.items()])
            for deg, t in F.terms.items() for key, c in t.items()]


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


def _poly(lat, monos):
    terms: dict = {}
    for sites, coeffs in monos:
        terms.setdefault(len(sites), {})[tuple(sorted(sites))] = \
            HbarScalar(coeffs)
    return PolyFunctional(lat, terms)


def _products(ctx):
    return ((ctx.star, ctx.wightman), (ctx.time_ordered, ctx.feynman))


@settings(max_examples=60, deadline=None)
@given(_distinct_terms, _distinct_terms)
def test_contract_bitwise_matches_per_term_hbar_loop(lat, ctx, fm, gm):
    F, G = _poly(lat, fm), _poly(lat, gm)
    for product, kernel in _products(ctx):
        want = _reference_contract(lat, F, G, kernel.entries)
        assert _bits(product(F, G)) == _bits(want)


@settings(max_examples=60, deadline=None)
@given(_constant_terms, st.one_of(_constant_terms, _poly_terms))
def test_contract_bitwise_with_a_constant_operand(lat, ctx, cm, gm):
    # the pointwise-product branch: F constant, G constant, or both, with
    # one or several hbar exponents each
    C, G = _poly(lat, cm), _poly(lat, gm)
    for product, kernel in _products(ctx):
        for F, H in ((C, G), (G, C)):
            want = _reference_contract(lat, F, H, kernel.entries)
            assert _bits(product(F, H)) == _bits(want)


@settings(max_examples=60, deadline=None)
@given(_poly_terms, _poly_terms)
def test_contract_multisets_match_the_per_selection_loop(lat, ctx, fm, gm):
    # keys that repeat a site sum each distinct site multiset once, times
    # its multiplicity: a different summation order, so every coefficient
    # is compared within 1e-14 of the sum of |terms| added into it
    F, G = _poly(lat, fm), _poly(lat, gm)
    for product, kernel in _products(ctx):
        mags: dict = {}
        want = _reference_contract(lat, F, G, kernel.entries, mags)
        got = product(F, G)
        pairs = {(key, e) for P in (got, want)
                 for _d, key, c in P.monomials() for e in c.coeffs}
        for key, e in pairs:
            g, w = (P.terms.get(len(key), {}).get(key, HbarScalar())
                    .at(e) for P in (got, want))
            assert abs(g - w) <= 1e-14 * mags.get((key, e), 0.0), (key, e)


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
        assert _bits(one(F, G)) == _bits(other(F, G))


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


# -- factorization of pointwise products ------------------------------------


def _region(lat, rows, cols):
    return [LatticePoint(t, x) for t in rows for x in cols]


def test_beta_roundtrip(lat):
    g1 = _phi(lat, 1, 2) * _phi(lat, 1, 3)
    g2 = _phi(lat, 5, 8).scaled(2.0) + _phi(lat, 5, 9)
    g3 = _phi(lat, 10, 1) * _phi(lat, 10, 1)
    F = (g1 * g2) * g3
    regions = [_region(lat, [1], range(lat.nx)),
               _region(lat, [5], range(lat.nx)),
               _region(lat, [10], range(lat.nx))]
    factors = beta(F, regions)
    assert len(factors) == 3
    prod = factors[0] * factors[1] * factors[2]
    assert prod.distance(F) < 1e-12
    for fac, reg in zip(factors, regions):
        allowed = {lat.site_index(p) for p in reg}
        assert {lat.site_index(p) for p in fac.support()} <= allowed


def test_beta_rejects_bad_inputs(lat):
    fa, fb = _phi(lat, 1, 2), _phi(lat, 8, 2)
    F = fa * fb
    r_early = _region(lat, [1], range(lat.nx))
    r_late = _region(lat, [8], range(lat.nx))
    with pytest.raises(ValueError, match="overlap"):
        beta(F, [r_early, r_early])
    with pytest.raises(ValueError, match="lies in no region"):
        beta(F, [r_early, _region(lat, [9], range(lat.nx))])
    # sum of two cross products is not a single product: grid not full
    G = fa * fb + _phi(lat, 2, 2) * _phi(lat, 9, 2)
    with pytest.raises(ValueError, match="not a pointwise product"):
        beta(G, [_region(lat, [1, 2], range(lat.nx)),
                 _region(lat, [8, 9], range(lat.nx))])
    # full rectangle but rank-two coefficients: caught by reconstruction
    H = fa * fb + fa * _phi(lat, 9, 2) + _phi(lat, 2, 2) * fb \
        + (_phi(lat, 2, 2) * _phi(lat, 9, 2)).scaled(2.0)
    with pytest.raises(ValueError, match="not the pointwise product"):
        beta(H, [_region(lat, [1, 2], range(lat.nx)),
                 _region(lat, [8, 9], range(lat.nx))])
