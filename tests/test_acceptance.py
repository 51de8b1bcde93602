"""Acceptance battery at desk scale (12x16 lattice, m = 0.5).

One test per headline property, with the tolerance pinned next to the
assertion.  Derived quantities are checked against oracles built in the
tests (direct cone masks, pairing enumerations) rather than against the
module's own reporting helpers.
"""

import itertools

import numpy as np

from paqft.functionals import (HbarScalar, PolyFunctional,
                               free_scalar_lagrangian)
from paqft.lattice import LatticePoint, bisolution_residual
from paqft.relations import hammerstein_sides
from paqft.smatrix_renorm import (RenormalizationMap, _check_causal_triples,
                                  build_smatrix,
                                  check_schwinger_dyson, check_Z_axioms,
                                  compose, correlation,
                                  default_z_plan, extract_Z,
                                  make_handcrafted_Z, random_local_functional,
                                  verify_extracted_locality)

from oracles import pairing_contract

# -- shared samplers -------------------------------------------------------


def _window_poly(lat, rng, t0, x0, degree=2, n_terms=2, scale=0.15):
    """Random polynomial on a 2x2 window anchored at (t0, x0)."""
    window = [LatticePoint(min(t0 + dt, lat.nt - 1), (x0 + dx) % lat.nx)
              for dt in (0, 1) for dx in (0, 1)]
    monos = []
    for _ in range(n_terms):
        d = int(rng.integers(1, degree + 1))
        pts = [window[int(rng.integers(0, len(window)))] for _ in range(d)]
        monos.append((complex(rng.normal() * scale), pts))
    return PolyFunctional.from_monomials(lat, monos)


def _spacelike_pair(lat, rng, **kw):
    # half-torus x offset with |dt| <= 2 guarantees spacelike separation
    ta = int(rng.integers(1, lat.nt - 3))
    tb = int(rng.integers(max(1, ta - 1), min(lat.nt - 3, ta + 1) + 1))
    xa = int(rng.integers(0, lat.nx))
    f1 = _window_poly(lat, rng, ta, xa, **kw)
    f2 = _window_poly(lat, rng, tb, (xa + lat.nx // 2) % lat.nx, **kw)
    assert lat.spacelike(f1.support(), f2.support())
    return f1, f2


def _causal_triple(lat, rng, **kw):
    nt = lat.nt
    f1 = _window_poly(lat, rng, int(rng.integers(1, 3)),
                      int(rng.integers(0, lat.nx)), **kw)
    fm = _window_poly(lat, rng, int(rng.integers(4, nt - 6)),
                      int(rng.integers(0, lat.nx)), **kw)
    f2 = _window_poly(lat, rng, int(rng.integers(nt - 5, nt - 3)),
                      int(rng.integers(0, lat.nx)), **kw)
    assert lat.not_later_than(f1.support(), fm.support())
    assert lat.not_later_than(fm.support(), f2.support())
    return f1, fm, f2


def _mid_window(lat):
    rows = range(max(2, lat.nt // 3), min(lat.nt - 2, 2 * lat.nt // 3 + 2))
    return [LatticePoint(t, x) for t in rows for x in range(lat.nx)]


def _site_shift(lat, seed, scale):
    return scale * np.random.default_rng(seed).standard_normal(lat.n_sites)


# -- kernels ----------------------------------------------------------------


def test_green_identity_and_exact_cone_support(lat):
    P = lat.klein_gordon_apply(np.eye(lat.n_sites))  # dense oracle
    R = lat.green_retarded().entries
    A = lat.green_advanced().entries
    eye = np.eye(lat.n_sites)
    interior = lat.interior_mask()
    res = max(float(np.max(np.abs((P @ R - eye)[interior]))),
              float(np.max(np.abs((P @ A - eye)[interior]))))
    assert res < 1e-10

    # independent cone mask: unit speed on the spatial torus, no time wrap
    t, x = np.divmod(np.arange(lat.n_sites), lat.nx)
    dt = t[:, None] - t[None, :]
    wrap = np.abs(x[:, None] - x[None, :]) % lat.nx
    dx = np.minimum(wrap, lat.nx - wrap)
    future = (dt >= 0) & (dx <= dt)  # row point inside J^+(column point)
    assert not np.any(R[~future])    # bitwise zero outside the cone
    assert not np.any(A[~future.T])
    print(f"[acceptance] green identity {res:.2e} (tol 1e-10); "
          "cone leakage: none")


def test_hadamard_h1_h2_h3(lat):
    D = lat.pauli_jordan().entries
    W = lat.wightman().entries
    H = lat.hadamard_kernel().entries
    assert np.array_equal(2.0 * W.imag, D.real)  # H1, bitwise
    assert not np.any(D.imag)

    P = lat.klein_gordon_apply(np.eye(lat.n_sites))  # dense oracle
    interior = lat.interior_mask()

    def wave_residual(K):
        return max(float(np.max(np.abs((P @ K)[interior]))),
                   float(np.max(np.abs((K @ P.T)[:, interior]))))

    h2 = max(wave_residual(W), wave_residual(H))
    assert h2 < 1e-10
    gram_min = float(np.min(np.linalg.eigvalsh((W + W.conj().T) / 2)))
    assert gram_min >= -1e-10
    print(f"[acceptance] H1 exact; H2 {h2:.2e} (tol 1e-10); "
          f"H3 min eig {gram_min:.2e} (floor -1e-10)")


# -- deformation ------------------------------------------------------------


def test_star_commutator_deforms_poisson_bracket(lat, ctx, rng):
    worst = 0.0
    for _ in range(20):
        F = _window_poly(lat, rng, int(rng.integers(0, lat.nt - 1)),
                         int(rng.integers(0, lat.nx)),
                         degree=3, n_terms=3, scale=0.3)
        G = _window_poly(lat, rng, int(rng.integers(0, lat.nt - 1)),
                         int(rng.integers(0, lat.nx)),
                         degree=3, n_terms=3, scale=0.3)
        phi = rng.normal(size=lat.n_sites)
        comm = ctx.star(F, G) - ctx.star(G, F)
        got = comm.evaluate(phi).coeffs.get(1, 0j)
        want = 1j * lat.poisson_bracket(F, G, phi).coeffs.get(0, 0j)
        worst = max(worst, abs(got - want))
    assert worst < 1e-10
    print(f"[acceptance] hbar^1 commutator vs Poisson bracket: "
          f"worst {worst:.2e} over 20 pairs (tol 1e-10)")


# -- S-matrix axioms ---------------------------------------------------------


def test_spacelike_smatrix_factors_commute_to_order_four(lat, S, rng):
    cap = 4
    worst = 0.0
    for _ in range(10):
        f1, f2 = _spacelike_pair(lat, rng, scale=0.1)
        a = S.series(f1, cap)
        b = S.series(f2, cap)
        ab = S.multiply(a, b)
        ba = S.multiply(b, a)
        assert ab.coeff(cap).max_norm() > 0  # the products are not trivial
        for n in range(cap + 1):
            worst = max(worst, (ab.coeff(n) - ba.coeff(n)).max_norm())
    assert worst < 1e-10
    print(f"[acceptance] spacelike commutators: worst {worst:.2e} "
          "over 10 pairs, orders <= 4 (tol 1e-10)")


def test_time_ordered_two_block_factorization(lat, S, rng):
    starts = [10, 7, 4, 1]
    lengths = [4, 3, 2, 4, 3, 2, 4, 3, 2, 4]
    worst = 0.0
    for n in lengths:
        chain = [_window_poly(lat, rng, t0, int(rng.integers(0, lat.nx)),
                              scale=0.1) for t0 in starts[:n]]
        for early, late in itertools.combinations(range(n), 2):
            assert lat.not_later_than(chain[late].support(),
                                      chain[early].support())
        full = S.family.mixed(n, chain)
        assert full.max_norm() > 0
        for k in range(1, n):
            left = S.family.mixed(k, chain[:k])
            right = S.family.mixed(n - k, chain[k:])
            res = (full - S.context.star(left, right)).max_norm()
            worst = max(worst, res)
    assert worst < 1e-10
    print(f"[acceptance] two-block causal factorization: worst {worst:.2e} "
          "over 10 factor lists, n <= 4 (tol 1e-10)")


def test_causal_triple_factorization_to_order_three(lat, S, rng):
    cap = 3
    worst = 0.0
    for _ in range(10):
        f1, fm, f2 = _causal_triple(lat, rng, scale=0.2)
        lhs = S.series(f1 + fm + f2, cap)
        rhs = S.multiply(
            S.multiply(S.series(f2 + fm, cap), S.invert(S.series(fm, cap))),
            S.series(fm + f1, cap))
        for n in range(cap + 1):
            worst = max(worst, (lhs.coeff(n) - rhs.coeff(n)).max_norm())
    assert worst < 1e-9
    print(f"[acceptance] middle-term factorization: worst {worst:.2e} "
          "over 10 triples, orders <= 3 (tol 1e-9)")


# -- equations of motion ------------------------------------------------------


def test_schwinger_dyson_exact_and_perturbed_kernel(lat, S, rng):
    L = free_scalar_lagrangian(lat)
    assert bisolution_residual(lat, S.context.wightman) <= 1e-10
    mid = lat.nt // 2

    def sample(i):
        F = _window_poly(lat, rng, mid - 1, int(rng.integers(0, lat.nx)),
                         scale=0.3)
        phi0 = np.zeros(lat.n_sites)
        for t in (mid - 1, mid):
            for dx in range(3):
                p = LatticePoint(t, (3 + 4 * i + dx) % lat.nx)
                phi0[lat.site_index(p)] = rng.normal() * 0.3
        return F, phi0

    worst = 0.0
    for i in range(3):
        F, phi0 = sample(i)
        rows = check_schwinger_dyson(S, L, F, phi0, cap=2, tol=1e-8)
        assert rows and all(r["pass"] for r in rows)
        assert all(r["bound"] == 1e-8 for r in rows)  # exact-kernel branch
        worst = max(worst, max(r["residual"] for r in rows))
    assert worst < 1e-8

    Sp = build_smatrix(lat, site_shift=_site_shift(lat, 7, 1e-3))
    h2 = bisolution_residual(lat, Sp.context.wightman)
    assert h2 > 1e-10  # the perturbation must actually break the bisolution
    F, phi0 = sample(3)
    prows = check_schwinger_dyson(Sp, L, F, phi0, cap=2, tol=1e-8)
    pworst = max(r["residual"] for r in prows)
    assert all(r["residual"] <= 10.0 * h2 for r in prows)
    assert all(r["pass"] for r in prows)
    print(f"[acceptance] equations of motion: exact-kernel worst {worst:.2e} "
          f"(tol 1e-8); perturbed worst {pworst:.2e} <= {10 * h2:.2e}")


# -- renormalization ----------------------------------------------------------


def test_roundtrip_recovers_planted_map_to_order_four(lat, S, rng):
    cap = 4
    Z = make_handcrafted_Z(lat, 0.3, _mid_window(lat))
    St = compose(S, Z)
    worst_plant = worst_round = 0.0
    for _ in range(2):
        f = _window_poly(lat, rng, int(rng.integers(4, 8)),
                         int(rng.integers(0, lat.nx)), scale=0.1)
        vals = extract_Z(S, St, f, cap)
        assert vals[2].max_norm() > 1e-6  # extraction sees the pairing term
        worst_plant = max(worst_plant,
                          (vals[2] - Z.family.diagonal(2, f)).max_norm())
        for n in (3, 4):
            worst_plant = max(worst_plant, vals[n].max_norm())
        back = compose(S, RenormalizationMap.from_values(lat, vals)
                       ).series(f, cap)
        target = St.series(f, cap)
        for n in range(cap + 1):
            worst_round = max(worst_round,
                              (back.coeff(n) - target.coeff(n)).max_norm())
    assert worst_plant < 1e-8
    assert worst_round < 1e-8
    print(f"[acceptance] roundtrip: planted-match {worst_plant:.2e}, "
          f"recomposed {worst_round:.2e} through order 4 (tol 1e-8)")


def test_two_hadamard_extraction_matches_kernel_difference(lat, S, rng):
    cap = 2
    St = build_smatrix(lat, site_shift=_site_shift(lat, 11, 5e-3))
    FK = S.context.feynman.entries
    FKt = St.context.feynman.entries
    worst = 0.0
    fs = []
    for k in range(2):
        f = _window_poly(lat, rng, 4 + 2 * k, 3 + 5 * k, scale=0.2)
        fs.append(f)
        z2 = extract_Z(S, St, f, cap)[2]
        assert z2.max_norm() > 1e-6
        diff = pairing_contract(lat, FKt, f, f) - pairing_contract(lat, FK, f, f)
        oracle = diff * HbarScalar({-1: 1j})
        worst = max(worst, (z2 - oracle).max_norm())
    assert worst < 1e-8

    plan = default_z_plan(lat, seed=33, count=3, cap=cap)
    rows = verify_extracted_locality(S, St, fs, cap, plan=plan)
    assert rows and all(r["pass"] for r in rows)
    assert {"Z1", "Z2", "Z3", "Z4", "additivity"} <= {r["axiom"]
                                                      for r in rows}
    print(f"[acceptance] two-Hadamard extraction: oracle gap {worst:.2e} "
          f"(tol 1e-8); reconstructed map passes {len(rows)} suite rows")


def test_relative_map_residuals_track_zero_reference(lat, rng):
    Z = make_handcrafted_Z(lat, 0.25, _mid_window(lat))
    plan = {
        "cap": 3, "tol": 1e-9,
        "causal_triples": [_causal_triple(lat, rng, scale=0.3)
                           for _ in range(10)],
        "singles": [random_local_functional(lat, rng, (4, 7))
                    for _ in range(4)],
    }
    rows = check_Z_axioms(Z, lat, plan)
    assert rows and all(r["pass"] for r in rows)
    grouped = {}
    for r in rows:
        if r["axiom"] not in ("Z3", "Z2"):
            continue
        base, tag = r["sample-id"].rsplit("-", 1)
        grouped.setdefault((r["axiom"], r["order"], base), {})[tag] = \
            r["residual"]
    assert grouped
    worst_ratio_excess = 0.0
    for pair in grouped.values():
        assert set(pair) == {"gen", "f0"}
        excess = pair["gen"] - (10.0 * pair["f0"] + 1e-12)
        worst_ratio_excess = max(worst_ratio_excess, excess)
    assert worst_ratio_excess <= 0.0
    print(f"[acceptance] shifted-map residuals track the f = 0 reference "
          f"on {len(grouped)} rows (bound 10x + 1e-12)")


# -- the Hammerstein identity -------------------------------------------------


def test_hammerstein_on_the_support_model_and_planted_violations(lat):
    # an additive map on the support model: finite site sets, their union
    # the sum, given as tuples of parts; the identity holds exactly
    def total(parts):
        return float(sum(frozenset().union(*parts)))

    def sides(phi, f1, f, f2):
        return hammerstein_sides(phi, lambda a, b: a + b, lambda v: -v,
                                 (f1,), f, (f2,))

    samples = [(frozenset({0}), frozenset({1}), frozenset({4})),
               (frozenset({1}), frozenset(), frozenset({5})),
               (frozenset({0, 1}), frozenset({4}), frozenset({5}))]
    for f1, f, f2 in samples:
        for mid in ((f,), ()):
            lhs, rhs = sides(total, f1, mid, f2)
            assert lhs - rhs == 0.0

    # planted violations must all be caught: a map that is not additive
    # fails the identity, and a misordered triple is refused
    flaws = 0
    lhs, rhs = sides(lambda parts: total(parts) ** 2, frozenset({1}),
                     (frozenset({4}),), frozenset({5}))
    flaws += abs(lhs - rhs) > 1.0
    f1, f, f2 = default_z_plan(lat, seed=3, count=1, cap=1)["causal_triples"][0]
    try:
        _check_causal_triples(lat, [(f2, f, f1)])
    except ValueError as e:
        flaws += "not causally ordered" in str(e)
    assert flaws == 2
    print("[acceptance] hammerstein: exact on the support model; "
          "2/2 planted flaws caught")


# -- correlations -------------------------------------------------------------


def test_free_field_correlations_match_wick_oracle(lat, S, rng):
    W = lat.wightman().entries
    a, b = LatticePoint(5, 3), LatticePoint(6, 9)
    ia, ib = lat.site_index(a), lat.site_index(b)
    pa = PolyFunctional.field_at(lat, a)
    pb = PolyFunctional.field_at(lat, b)
    V = PolyFunctional.zero(lat)
    ser = correlation(S, V, [pa, pb], 1)
    assert ser.coeff(0) == HbarScalar({1: complex(W[ia, ib])})  # exact
    assert ser.coeff(1).norm() == 0.0

    sq = correlation(S, V, [pa * pa, pb * pb], 0).coeff(0)
    w = complex(W[ia, ib])
    assert (sq - HbarScalar({2: 2 * w * w})).norm() < 1e-10

    worst, phi0 = 0.0, np.zeros(lat.n_sites)
    for _ in range(6):
        A = _window_poly(lat, rng, int(rng.integers(1, lat.nt - 2)),
                         int(rng.integers(0, lat.nx)), scale=0.4, n_terms=3)
        B = _window_poly(lat, rng, int(rng.integers(1, lat.nt - 2)),
                         int(rng.integers(0, lat.nx)), scale=0.4, n_terms=3)
        got = correlation(S, V, [A, B], 0).coeff(0)
        assert got.norm() > 0
        # the cross-pairing Gaussian moment: the contraction at phi = 0
        moment = pairing_contract(lat, W, A, B).evaluate(phi0)
        worst = max(worst, (got - moment).norm())
    assert worst < 1e-10
    print(f"[acceptance] free correlations: two-point exact; degree-2 vs "
          f"pairing oracle worst {worst:.2e} (tol 1e-10)")
