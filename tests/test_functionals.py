import functools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paqft.lattice import HBAR_WINDOW, HbarWindowError, Lattice, LatticePoint
from paqft import functionals
from paqft.functionals import (DensityTerm, GeneralizedLagrangian, HbarScalar,
                               PolyFunctional, additivity_samples,
                               check_additivity, chebyshev_extent,
                               cutoff_lagrangian, free_scalar_lagrangian,
                               is_local_at_scale, monomial_extent,
                               poly_from_json_dict, MAX_DEGREE)

from oracles import assert_within_bound, bits, exact_weighted_sum, poly


# -- HbarScalar ----------------------------------------------------------


def test_hbar_scalar_arithmetic():
    a = HbarScalar({0: 2.0, 1: 1j})
    b = HbarScalar({-1: 0.5})
    assert (a * b).coeffs.get(-1, 0j) == 1.0
    assert (a * b).coeffs.get(0, 0j) == 0.5j
    assert (a + b - b) == a
    assert HbarScalar.coerce(Fraction(1, 4)).coeffs.get(0, 0j) == 0.25


def test_hbar_scalar_window_guard():
    big = HbarScalar({8: 1.0})
    with pytest.raises(ValueError, match="outside window"):
        big * big


def test_hbar_scalar_json_roundtrip():
    a = HbarScalar({-2: 1 + 2j, 3: -0.5})
    assert HbarScalar.from_json(a.to_json()) == a


# -- PolyFunctional basics -----------------------------------------------


def test_monomial_normalization(lat):
    a, b = LatticePoint(2, 3), LatticePoint(5, 7)
    F = PolyFunctional.from_monomials(lat, [(1.0, [b, a]), (2.0, [a, b])])
    (deg, key, coeff), = list(F.monomials())
    assert deg == 2 and coeff.coeffs.get(0, 0j) == 3.0
    assert key == tuple(sorted((lat.site_index(a), lat.site_index(b))))


def test_degree_cap_enforced(lat):
    pts = [LatticePoint(2, 3)] * (MAX_DEGREE + 1)
    with pytest.raises(ValueError, match="degree"):
        PolyFunctional.from_monomials(lat, [(1.0, pts)])


def test_evaluate_matches_manual(lat, rng):
    a, b = LatticePoint(3, 4), LatticePoint(4, 4)
    F = PolyFunctional.from_monomials(
        lat, [(2.0, [a, a]), (0.5, [a, b]), (-1.0, [b])])
    phi = rng.normal(size=lat.n_sites)
    va, vb = phi[lat.site_index(a)], phi[lat.site_index(b)]
    assert F.evaluate(phi).coeffs.get(0, 0j) == pytest.approx(
        2 * va * va + 0.5 * va * vb - vb, rel=1e-14)


def test_support_variational_oracle(lat, rng):
    a, b = LatticePoint(3, 4), LatticePoint(6, 9)
    F = PolyFunctional.from_monomials(lat, [(1.0, [a, a]), (2.0, [b])])
    supp = F.support()
    assert supp == frozenset({a, b})
    phi = rng.normal(size=lat.n_sites)
    base = F.evaluate(phi).coeffs.get(0, 0j)
    for p in (a, b, LatticePoint(8, 2)):
        bumped = phi.copy()
        bumped[lat.site_index(p)] += 1.0
        changed = F.evaluate(bumped).coeffs.get(0, 0j) != base
        assert changed == (p in supp)


def test_shift_field_series_consistency(lat, rng):
    a, b = LatticePoint(3, 4), LatticePoint(4, 4)
    F = PolyFunctional.from_monomials(lat, [(1.0, [a, a, b]), (2.0, [b])])
    psi = rng.normal(size=lat.n_sites)
    phi = rng.normal(size=lat.n_sites)
    rows = F.shift_field_series(psi)
    s = 0.7
    direct = F.evaluate(phi + s * psi).coeffs.get(0, 0j)
    series = sum(r.evaluate(phi).coeffs.get(0, 0j) * s ** k
                 for k, r in enumerate(rows))
    assert series == pytest.approx(direct, rel=1e-13)
    assert (F.shift_field(psi) - sum(rows[1:], rows[0])).max_norm() == 0.0


def test_json_roundtrip(lat):
    F = PolyFunctional.from_monomials(
        lat, [(1 + 2j, [LatticePoint(2, 3), LatticePoint(2, 4)]),
              (0.5, [LatticePoint(7, 0)])])
    G = poly_from_json_dict(lat, F.to_json_dict())
    assert (F - G).max_norm() == 0.0


def test_unit_and_zero(lat):
    unit = PolyFunctional.unit(lat)
    assert unit.evaluate(np.zeros(lat.n_sites)).coeffs.get(0, 0j) == 1.0
    assert unit.support() == frozenset()
    assert PolyFunctional.zero(lat).is_zero()


# -- locality ------------------------------------------------------------


def test_extents(lat):
    pts = [LatticePoint(2, 3), LatticePoint(3, 5)]
    assert chebyshev_extent(lat, pts) == 2
    F = PolyFunctional.from_monomials(lat, [(1.0, pts)])
    assert monomial_extent(F) == 2


def test_is_local_at_scale(lat):
    near = PolyFunctional.from_monomials(
        lat, [(1.0, [LatticePoint(4, 4), LatticePoint(4, 5)])])
    far = PolyFunctional.from_monomials(
        lat, [(1.0, [LatticePoint(2, 2), LatticePoint(9, 9)])])
    ok, rep = is_local_at_scale(near, radius=1)
    assert ok and rep["additivity_pass"]
    ok2, rep2 = is_local_at_scale(far, radius=1)
    assert not ok2 and rep2["monomial_extent"] == 7


def _reference_evaluate(F, phi):
    """F(phi) one field at a time through the HbarScalar arithmetic."""
    vals = np.asarray(phi).reshape(F.lattice.n_sites)
    out = HbarScalar()
    for _deg, key, coeff in F.monomials():
        prod = 1.0 + 0j
        for i in key:
            prod *= complex(vals[i])
        out = out + coeff * prod
    return out


def _reference_is_local(F, radius=1, seed=7, count=20, tol=1e-10):
    """is_local_at_scale with fresh samples and one field at a time."""
    lat = F.lattice
    samples = additivity_samples(lat, np.random.default_rng(seed), count,
                                 separation=radius + 1)
    ev = functools.partial(_reference_evaluate, F)
    F0 = ev(np.zeros(lat.n_sites))
    eq11 = []
    add_ok = True
    for v1, v2, v3 in samples:
        if set(np.flatnonzero(v1)) & set(np.flatnonzero(v3)):
            add_ok = False
            continue
        lhs = ev(v1 + v2 + v3)
        rhs = ev(v1 + v2) + ev(v2 + v3) - ev(v2)
        e11 = (lhs - rhs).norm()
        padd = (ev(v1 + v3) - F0) - (ev(v1) - F0) - (ev(v3) - F0)
        eq11.append(e11)
        add_ok = add_ok and e11 <= tol and padd.norm() <= tol
    ext = monomial_extent(F)
    return ext <= radius and add_ok, {
        "monomial_extent": ext, "radius": radius, "additivity_pass": add_ok,
        "worst_eq11": max(eq11, default=0.0)}


def test_batched_locality_check_returns_the_per_field_result(lat, rng,
                                                             monkeypatch):
    # the samples drawn once per (nt, nx, separation), and F
    # evaluated at every field of a call in one pass: the (ok, report) of
    # fresh samples evaluated one field at a time, bit for bit
    drawn = []
    monkeypatch.setattr(functionals, "_LOCALITY_SAMPLES", {})
    monkeypatch.setattr(functionals, "additivity_samples",
                        lambda *a, **k: drawn.append(a) or
                        additivity_samples(*a, **k))
    L = free_scalar_lagrangian(lat)
    f = np.zeros(lat.n_sites)
    f[[lat.site_index(LatticePoint(5, x)) for x in (3, 4)]] = [0.7, -1.3]
    cubic = GeneralizedLagrangian(
        lat, (DensityTerm(0.2 + 0.1j, 3, 0, 0), DensityTerm(-0.4, 1, 1, 1)))(
        _indicator(lat, [LatticePoint(4, x) for x in range(3, 6)]))
    far = PolyFunctional.from_monomials(
        lat, [(1.0, [LatticePoint(2, 2), LatticePoint(9, 9)]),
              (HbarScalar({-1: 0.5, 1: 2j}), [LatticePoint(3, 3)] * 3)])
    rand = PolyFunctional.from_monomials(lat, [
        (rng.normal() + 1j * rng.normal(),
         [LatticePoint(int(rng.integers(2, 10)), int(rng.integers(lat.nx)))
          for _ in range(d)]) for d in (1, 2, 2, 3)])
    for F in (L(f), cubic, far, rand, PolyFunctional.unit(lat)):
        for radius in (1, 2):
            got = is_local_at_scale(F, radius=radius)
            want = _reference_is_local(F, radius=radius)
            assert got == want
            assert got[1]["worst_eq11"].hex() == want[1]["worst_eq11"].hex()
    assert len(drawn) == 2  # one draw per radius
    # every value bit for bit, signed zeros included; a sum that cancels
    # exactly drops its exponent
    fields = [rng.normal(size=lat.n_sites) for _ in range(3)]
    fields += [np.zeros((lat.nt, lat.nx)), np.ones(lat.n_sites)]
    cancel = PolyFunctional.from_monomials(
        lat, [(1.0, [LatticePoint(3, 3)]), (-1.0, [LatticePoint(4, 4)])])
    assert cancel.evaluate(np.ones(lat.n_sites)).coeffs == {}
    for F in (cubic, far, cancel):
        for got, phi in zip(F.evaluate_many(fields), fields):
            want = _reference_evaluate(F, phi)
            assert bits(got) == bits(want)


def test_check_additivity_detects_straddling(lat):
    F = PolyFunctional.from_monomials(
        lat, [(1.0, [LatticePoint(2, 2), LatticePoint(9, 9)])])
    phi1 = np.zeros(lat.n_sites)
    phi3 = np.zeros(lat.n_sites)
    phi1[lat.site_index(LatticePoint(2, 2))] = 1.0
    phi3[lat.site_index(LatticePoint(9, 9))] = 1.0
    rows = check_additivity(F, [(phi1, np.zeros(lat.n_sites), phi3)])
    assert not rows[0]["pass"]


# -- Lagrangians ---------------------------------------------------------


def test_free_lagrangian_euler_lagrange_is_wave_operator(lat, rng):
    # the gradient of L(1) at phi is the degree-1 part of L(1)(. + phi)
    L = free_scalar_lagrangian(lat)
    phi = rng.normal(size=lat.n_sites)
    grad = np.zeros(lat.n_sites, dtype=complex)
    for (i,), c in L(np.ones(lat.n_sites)).shift_field(phi).terms[1].items():
        assert set(c.coeffs) == {0}
        grad[i] = c.coeffs[0]
    Pphi = lat.klein_gordon_apply(phi)
    interior = lat.interior_mask()
    assert np.max(np.abs((grad - Pphi)[interior])) < 1e-12


def test_lagrangian_support_preserving(lat):
    L = free_scalar_lagrangian(lat)
    f = np.zeros(lat.n_sites)
    w = [LatticePoint(5, 5), LatticePoint(5, 6)]
    for p in w:
        f[lat.site_index(p)] = 1.0
    rows = {p.t for p in L(f).support()}
    cols = {p.x for p in L(f).support()}
    assert rows <= {5, 6} and cols <= {5, 6, 7}  # forward stencil fattening


def _per_site_pairs(L, w):
    """The (weight, density built at the site) pairs of L(w)."""
    lat = L.lattice
    points = [LatticePoint(t, x) for t in L._rows() for x in range(lat.nx)]
    return [(complex(w[lat.site_index(p)]), L._build_density(p))
            for p in points if w[lat.site_index(p)] != 0]


@pytest.mark.parametrize("shape", [(12, 16), (5, 7)])
def test_translated_densities_equal_the_per_site_route(shape):
    # one density per row type, translated: the densities built at every
    # site, bit for bit; L(f) summed in one pass has the keys of the fold
    # of those densities, every coefficient within the weighted-sum bound
    lat = Lattice(*shape, 0.5)
    rng = np.random.default_rng(11)
    general = GeneralizedLagrangian(lat, (
        DensityTerm(0.3, 3, 0, 1), DensityTerm(1.5j, 1, 1, 1),
        DensityTerm(-0.25, 0, 2, 0), DensityTerm(0.75, 2, 0, 0)))
    static = GeneralizedLagrangian(lat, (DensityTerm(0.5, 2, 0, 2),))
    for L in (free_scalar_lagrangian(lat), general, static):
        for p in map(lat.point, range(lat.n_sites)):
            assert bits(L.density_at(p)) == bits(L._build_density(p))
        for w in (np.ones(lat.n_sites), rng.normal(size=lat.n_sites),
                  np.where(rng.random(lat.n_sites) < 0.3, 1.0, 0.0)):
            pairs = _per_site_pairs(L, w)
            fold = PolyFunctional.zero(lat)
            for c, density in pairs:
                fold = fold + density.scaled(c)
            got = L(w)
            assert ({(d, k) for d, k, _c in got.monomials()}
                    == {(d, k) for d, k, _c in fold.monomials()})
            assert_within_bound(got, exact_weighted_sum(pairs), WEIGHTED_C)


def test_density_degree_cap(lat):
    with pytest.raises(ValueError, match="degree"):
        GeneralizedLagrangian(lat, (DensityTerm(1.0, MAX_DEGREE + 1, 0, 0),))


def test_delta_L_cutoff_independence_and_value(lat, rng):
    L = free_scalar_lagrangian(lat)
    psi = np.zeros(lat.n_sites)
    for t in (5, 6):
        for x in (7, 8):
            psi[lat.site_index(LatticePoint(t, x))] = rng.normal()
    phi = rng.normal(size=lat.n_sites)
    _Lf, func = cutoff_lagrangian(L, psi)
    # oracle: evaluate L with a manual cutoff wide enough to be exact
    f = np.zeros(lat.n_sites)
    for p in map(lat.point, range(lat.n_sites)):
        if any(abs(p.t - q.t) <= 3 and lat.torus_dist(p.x, q.x) <= 3
               for q in (LatticePoint(5, 7), LatticePoint(6, 8))):
            f[lat.site_index(p)] = 1.0
    Lf = L(f)
    oracle = (Lf.evaluate(phi + psi).coeffs.get(0, 0j)
              - Lf.evaluate(phi).coeffs.get(0, 0j))
    assert func.evaluate(phi).coeffs.get(0, 0j) == pytest.approx(
        oracle, rel=1e-12)


def test_delta_L_full_support_rejected(lat):
    L = free_scalar_lagrangian(lat)
    with pytest.raises(ValueError, match="no compactly supported cutoff"):
        cutoff_lagrangian(L, np.ones(lat.n_sites))


def _indicator(lat, points):
    w = np.zeros(lat.n_sites)
    w[[lat.site_index(p) for p in points]] = 1.0
    return w


def test_local_functional_from_density(lat):
    window = [LatticePoint(4, x) for x in range(3, 6)]
    F = GeneralizedLagrangian(lat, (DensityTerm(0.2, 3, 0, 0),))(
        _indicator(lat, window))
    ok, _ = is_local_at_scale(F, radius=1)
    assert ok
    assert {p.t for p in F.support()} == {4}


# -- algebraic properties ------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_add_scale_properties(seed):
    lat = Lattice(6, 6, 0.5)
    r = np.random.default_rng(seed)

    def rand_poly():
        monos = []
        for _ in range(3):
            d = int(r.integers(1, 4))
            pts = [LatticePoint(int(r.integers(0, 6)), int(r.integers(0, 6)))
                   for _ in range(d)]
            monos.append((complex(r.normal(), r.normal()), pts))
        return PolyFunctional.from_monomials(lat, monos)

    F, G = rand_poly(), rand_poly()
    phi = r.normal(size=lat.n_sites)
    lhs = (F + G).evaluate(phi)
    rhs = F.evaluate(phi) + G.evaluate(phi)
    assert (lhs - rhs).norm() < 1e-10 * max(1.0, rhs.norm())
    c = complex(r.normal(), r.normal())
    assert ((F.scaled(c)).evaluate(phi) - F.evaluate(phi) * c).norm() < 1e-10


# -- bitwise oracle: the builders against an independent merge loop ------


def _reference_build(lattice, items):
    """The functional of (key, coefficient) items by the merge loop the
    constructor ran before from_terms: HbarScalar additions, a zero
    coefficient skipped, and a key whose sum is zero deleted (and put at
    the end if it comes again)."""
    clean = {}
    for key, coeff in items:
        key = tuple(sorted(int(i) for i in key))
        assert all(0 <= i < lattice.n_sites for i in key)
        coeff = HbarScalar.coerce(coeff)
        if coeff.norm() == 0.0:
            continue
        bucket = clean.setdefault(len(key), {})
        if key in bucket:
            merged = bucket[key] + coeff
            if merged.norm() == 0.0:
                del bucket[key]
            else:
                bucket[key] = merged
        else:
            bucket[key] = coeff
    return PolyFunctional._canonical(
        lattice, {d: clean[d] for d in sorted(clean) if clean[d]})


def _reference_from_sums(lattice, sums):
    return _reference_build(
        lattice, [(key, HbarScalar(cell)) for key, cell in sums.items()])


def _assert_canonical(R):
    assert all(R.terms.values()), "empty degree"
    assert PolyFunctional(R.lattice, R.terms).content_key() == R.content_key()


def test_content_key_is_built_once_and_keeps_its_value(lat):
    F = PolyFunctional.from_monomials(lat, [
        (2.0, [LatticePoint(1, 1)]), (0.5j, [LatticePoint(2, 3)] * 2)])
    key = F.content_key()
    assert F.content_key() is key
    # the value, hash and unpacking of the plain (lattice, terms) tuple
    plain = (lat, tuple(
        (deg, tuple((k, tuple(c.coeffs.items())) for k, c in t.items()))
        for deg, t in F.terms.items()))
    assert key == plain and hash(key) == hash(plain)
    lattice, terms = key
    assert lattice is lat and terms == plain[1]
    # an equal functional built apart keys equal, not identical
    G = PolyFunctional(lat, F.terms)
    assert G.content_key() == key and G.content_key() is not key
    assert {key: 1}[G.content_key()] == 1


# few sites, so keys overlap and repeat sites; parts that cancel exactly
_SITES = [0, 1, 7, 35]
_part = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])
         | st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
_complex = st.builds(complex, _part, _part)
_hbar = st.dictionaries(st.integers(-2, 2), _complex, max_size=3)
_key = st.lists(st.sampled_from(_SITES), max_size=3).map(
    lambda s: tuple(sorted(s)))
_monos = st.lists(st.tuples(_key, _hbar), max_size=6)
_scalar = (_complex | st.fractions(-4, 4, max_denominator=7)
           | _hbar.map(HbarScalar) | st.integers(-2, 2))


@settings(max_examples=150, deadline=None)
@given(_monos, _monos, _scalar)
def test_arithmetic_is_within_the_bound_of_the_exact_sum(fm, gm, c):
    # sums, differences, negation and scalings are weighted sums, each
    # coefficient within the bound below of the exact one
    lat = Lattice(6, 6, 0.5)
    F, G = poly(lat, fm), poly(lat, gm)
    cases = [(F + G, [(1, F), (1, G)]),
             (G + F, [(1, G), (1, F)]),
             (F + F, [(1, F), (1, F)]),
             (F - G, [(1, F), (-1, G)]),
             (-F, [(-1, F)]),
             (F.scaled(c), [(c, F)]),
             (F * c, [(c, F)])]
    for got, pairs in cases:
        assert_within_bound(got, exact_weighted_sum(pairs), WEIGHTED_C)
        _assert_canonical(got)
    assert (F - F).terms == {}


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_key, _hbar, max_size=6))
def test_from_sums_bitwise_matches_validating_reference(sums):
    lat = Lattice(6, 6, 0.5)
    got = PolyFunctional._from_sums(lat, sums)
    assert bits(got) == bits(_reference_from_sums(lat, sums))
    _assert_canonical(got)


# unsorted keys over few sites, so that keys repeat in either form
_site_list = st.lists(st.sampled_from(_SITES), max_size=3).map(tuple)


@st.composite
def _items(draw):
    """(key, coefficient) items with repeated keys; some items come back
    negated with their sites reversed, so that sums cancel exactly."""
    items = draw(st.lists(st.tuples(_site_list,
                                    _hbar.map(HbarScalar) | _complex),
                          max_size=6))
    for key, c in list(items):
        if draw(st.booleans()):
            items.append((key[::-1], -c))
    return items


def _assert_matches_reference(got, ref, items):
    # the same keys per degree and equal sums; bit for bit where a key
    # occurs once (a zero coefficient does not count)
    assert {d: set(t) for d, t in got.terms.items()} == \
        {d: set(t) for d, t in ref.terms.items()}
    seen = Counter(tuple(sorted(k)) for k, c in items
                   if HbarScalar.coerce(c).coeffs)
    for d, t in got.terms.items():
        for key, c in t.items():
            want = ref.terms[d][key]
            assert c.coeffs == want.coeffs
            if seen[key] == 1:
                assert bits(c) == bits(want)
    _assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(_items())
def test_builders_match_the_merge_loop_reference(items):
    lat = Lattice(6, 6, 0.5)
    _assert_matches_reference(PolyFunctional.from_terms(lat, items),
                              _reference_build(lat, items), items)
    # the constructor, on the items a {degree: {key: coefficient}} keeps
    terms = {}
    for key, c in items:
        terms.setdefault(len(key), {})[key] = c
    kept = [item for t in terms.values() for item in t.items()]
    _assert_matches_reference(PolyFunctional(lat, terms),
                              _reference_build(lat, kept), kept)


def test_from_terms_keeps_a_single_coefficient_bitwise(lat):
    c = HbarScalar({1: complex(-0.0, 1.0), -2: complex(0.5, -0.0)})
    F = PolyFunctional.from_terms(lat, [((3, 1), c), ((1, 3, 5), 0j)])
    assert list(F.terms) == [2] and bits(F.terms[2][(1, 3)]) == bits(c)
    with pytest.raises(ValueError, match="site index -1 out of range"):
        PolyFunctional.from_terms(lat, [((0, -1), 1.0)])
    with pytest.raises(ValueError, match=f"site index {lat.n_sites} out"):
        PolyFunctional.from_terms(lat, [((lat.n_sites, 2, lat.n_sites + 1),
                                         1.0)])


@settings(max_examples=150, deadline=None)
@given(_monos, _monos)
def test_distance_bitwise_matches_the_difference_norm(fm, gm):
    # shared and disjoint keys, several hbar exponents, signed zeros and
    # exact cancellation (F against F, and F + G against F)
    lat = Lattice(6, 6, 0.5)
    F, G = poly(lat, fm), poly(lat, gm)
    zero = PolyFunctional.zero(lat)
    for a, b in [(F, G), (G, F), (F, F), (F + G, F), (F, -F), (F, zero),
                 (zero, G)]:
        assert a.distance(b).hex() == (a - b).max_norm().hex()
    assert F.distance(F) == 0.0


def test_norms_keep_a_nan_wherever_it_stands(lat):
    # max() over a generator keeps a NaN only when it comes first; the
    # norms make any NaN the result, so a NaN residual fails its row
    nan = float("nan")
    for coeffs in ({0: nan, 1: 1.0}, {0: 1.0, 1: nan}, {0: 2.0, 1: nan}):
        assert np.isnan(HbarScalar(coeffs).norm())
    keys = [(3,), (4, 5)]
    for first, later in ((nan, 1.0), (1.0, nan), (2.0, nan)):
        F = poly(lat, [((3,), {0: first}), ((4, 5), {0: later})])
        assert np.isnan(F.max_norm())
        assert np.isnan(F.distance(PolyFunctional.zero(lat)))
    # the pair of the report: a NaN at the first key, a larger difference
    # at the later one, in either operand order, and on either side alone
    F = poly(lat, [(k, {0: 1.0}) for k in keys])
    for bad in ([nan, 2.0], [1.0, nan], [nan, 1.0]):
        G = poly(lat, [(k, {0: v}) for k, v in zip(keys, bad)])
        assert np.isnan(F.distance(G)) and np.isnan(G.distance(F))
    G = poly(lat, [((3,), {0: nan})])
    H = poly(lat, [((4, 5), {0: 2.0})])
    assert np.isnan(G.distance(H)) and np.isnan(H.distance(G))
    # finite values keep their largest difference
    assert F.distance(poly(lat, [(k, {0: v})
                                 for k, v in zip(keys, [1.0, 2.0])])) == 1.0


def test_from_sums_keeps_hbar_window(lat):
    lo, hi = HBAR_WINDOW
    F = PolyFunctional._from_sums(lat, {(0,): {hi: 1j}, (): {lo: 2.0}})
    assert F.hbar_exponent_range() == (lo, hi)
    for e in (hi + 1, lo - 1):
        with pytest.raises(HbarWindowError, match=f"exponent {e} outside"):
            PolyFunctional._from_sums(lat, {(0,): {0: 1.0, e: 0.5}})


# -- guards of the validating constructor and the window -----------------


def test_constructor_rejects_bad_keys(lat):
    with pytest.raises(ValueError, match="out of range"):
        PolyFunctional(lat, {2: {(0, lat.n_sites): 1}})
    with pytest.raises(ValueError, match="length"):
        PolyFunctional(lat, {2: {(1,): 1}})


def test_arithmetic_keeps_hbar_window(lat):
    a = LatticePoint(5, 3)
    F = PolyFunctional.from_monomials(lat, [(HbarScalar({1: 1.0}), [a])])
    with pytest.raises(ValueError, match="outside window"):
        F.scaled(HbarScalar({8: 1.0}))
    G = PolyFunctional.from_monomials(lat, [(HbarScalar({5: 1.0}), [a])])
    with pytest.raises(ValueError, match="outside window"):
        G * G


# -- weighted sums against the exact sum --------------------------------
#
# weighted_sum forms every product v * w and sums them in one pass, so it
# is not bitwise the scale-then-add route; it is held to the bound that the
# contraction states (tests/oracles.py), with its own c: every
# coefficient within WEIGHTED_C * 2^-53 * sum |w| |t| + 2^-1064 of the
# exact Gaussian-rational sum.  A product's components are each within
# about 2 u |w| |t| (u = 2^-53), a Fraction weight's conversion adds u,
# and a coefficient sums at most 12 products here (4 pairs, 3 weight
# exponents), which gives c <= 16.  The worst ratio measured over 20 000
# examples was 1.8.

WEIGHTED_C = 16
_weight = (_scalar | st.sampled_from([0, Fraction(0), 0j, HbarScalar()]))


def _first_insertion_order(pairs, deg):
    """The keys of degree `deg` in the order the pairs with a non-zero
    weight first bring them."""
    order: dict = {}
    for w, F in pairs:
        if HbarScalar.coerce(w).coeffs:
            order.update(dict.fromkeys(F.terms.get(deg, {})))
    return list(order)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_weight, _monos), min_size=1, max_size=4),
       st.booleans())
def test_weighted_sum_is_within_the_bound_of_the_exact_sum(terms, cancel):
    # few sites, so keys overlap; with `cancel` the first pair comes again
    # with the opposite weight, so its keys cancel in part or in full
    lat = Lattice(6, 6, 0.5)
    pairs = [(w, poly(lat, monos)) for w, monos in terms]
    if cancel:
        w, F = pairs[0]
        pairs.append((-w, F))
    got = PolyFunctional.weighted_sum(lat, pairs)
    assert_within_bound(got, exact_weighted_sum(pairs), WEIGHTED_C)
    _assert_canonical(got)
    for deg, t in got.terms.items():
        order = _first_insertion_order(pairs, deg)
        assert list(t) == [key for key in order if key in t]
    # a pair and its negation cancel exactly where the weight has one
    # exponent, so that each coefficient is one product minus itself
    w, F = pairs[0]
    if len(HbarScalar.coerce(w).coeffs) <= 1:
        assert PolyFunctional.weighted_sum(lat, [(w, F), (-w, F)]).terms == {}


def test_weighted_sum_keeps_hbar_window(lat):
    a = LatticePoint(5, 3)
    F = PolyFunctional.from_monomials(
        lat, [(HbarScalar({2: 1.0, -1: 0.5}), [a])])
    assert PolyFunctional.weighted_sum(
        lat, [(HbarScalar({6: 1.0}), F)]).hbar_exponent_range() == (5, 8)
    for w in (HbarScalar({7: 1.0}), HbarScalar({-8: 1.0}),
              HbarScalar({0: 1.0, 7: 2.0})):
        with pytest.raises(HbarWindowError, match="outside window"):
            PolyFunctional.weighted_sum(lat, [(1, F), (w, F)])
    assert PolyFunctional.weighted_sum(lat, []).terms == {}
    G = PolyFunctional.from_monomials(Lattice(6, 6, 0.5), [(1.0, [a])])
    with pytest.raises(ValueError, match="lattice mismatch"):
        PolyFunctional.weighted_sum(lat, [(1, F), (1, G)])
