import gc
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paqft
from paqft import cli
from paqft.cli import main
from paqft.lattice import (THETA, Kernel, Lattice, LatticePoint, _feynman,
                           _transposed, _wightman, bisolution_residual,
                           field_values, kernel_residuals)
from paqft.functionals import PolyFunctional


def test_constructor_validation():
    with pytest.raises(ValueError, match="lattice too small"):
        Lattice(3, 16, 0.5)
    with pytest.raises(ValueError, match="lattice too small"):
        Lattice(12, 2, 0.5)
    with pytest.raises(ValueError, match="mass"):
        Lattice(8, 8, -1.0)


def test_site_indexing_roundtrip(lat):
    for idx in range(lat.n_sites):
        assert lat.site_index(lat.point(idx)) == idx
    with pytest.raises(ValueError):
        lat.site_index(LatticePoint(lat.nt, 0))


def _in_causal_future(lat, q, p):
    """q in J^+(p), one pair at a time: the scalar reference for the
    library's vectorized cone."""
    return q.t >= p.t and lat.torus_dist(q.x, p.x) <= q.t - p.t


def test_causal_cone_geometry(lat):
    p = LatticePoint(4, 5)
    pts = list(map(lat.point, range(lat.n_sites)))
    fut = {q for q in pts if lat.count_in_future({q}, {p})}
    assert fut == {q for q in pts if _in_causal_future(lat, q, p)}
    assert p in fut  # reflexive
    assert LatticePoint(5, 5) in fut and LatticePoint(5, 6) in fut
    assert LatticePoint(5, 7) not in fut


@pytest.mark.parametrize("nt, nx", [(8, 8), (12, 16)])
def test_count_in_future_matches_the_scalar_reference(nt, nx):
    lat = Lattice(nt, nx, 0.5)
    pts = list(map(lat.point, range(lat.n_sites)))
    rng = np.random.default_rng(nt * nx)

    def region():  # 0 to 7 distinct points, so empty regions come up too
        size = rng.integers(0, 8)
        return {pts[i] for i in rng.choice(len(pts), size, replace=False)}

    for _ in range(60):
        A, B = region(), region()
        want = sum(1 for a in A
                   if any(_in_causal_future(lat, a, b) for b in B))
        got = lat.count_in_future(A, B)
        assert type(got) is int and got == want
    assert lat.count_in_future(set(), set(pts)) == 0
    assert lat.count_in_future(set(pts), set()) == 0


def test_not_later_than_and_spacelike(lat):
    early = {LatticePoint(1, 0)}
    late = {LatticePoint(8, 0)}
    side = {LatticePoint(1, 8)}
    assert lat.not_later_than(early, late)
    assert not lat.not_later_than(late, early)
    assert lat.count_in_future(late | side, early) == 1
    assert lat.count_in_future(early | side, late) == 0
    assert lat.spacelike(early, side)
    # overlap is never "not later": points lie in their own future
    assert not lat.not_later_than(early, early)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_torus_dist_metric(a, b, c):
    lat = Lattice(4, 16, 0.5)
    assert lat.torus_dist(a, b) == lat.torus_dist(b, a)
    assert lat.torus_dist(a, a) == 0
    assert lat.torus_dist(a, c) <= lat.torus_dist(a, b) + lat.torus_dist(b, c)


def test_green_identities_and_cone_support():
    lat = Lattice(8, 8, 0.7)
    res = kernel_residuals(lat)
    assert res["green_retarded_identity"] < 1e-10
    assert res["green_advanced_identity"] < 1e-10
    assert res["reciprocity"] == 0.0
    assert res["cone_support_violations"] == 0
    # P is time-symmetric, so A (R under time reversal) meets it as R does
    assert res["green_advanced_identity"] == res["green_retarded_identity"]


def _split_mass(lat):
    """(a, c): the split mass term's weights of the time neighbours and of
    the site, a = 1 + (1 - THETA) m^2 / 2 and c = THETA m^2."""
    m2 = lat.mass ** 2
    return 1 + (1 - THETA) * m2 / 2, THETA * m2


def _backward_leapfrog(lat):
    """The advanced kernel stepped backward in time from a unit source: the
    mirror of the retarded construction (u(tp-1, xp) = -1/a, u = 0 for
    t >= tp)."""
    nt, nx = lat.nt, lat.nx
    a, c = _split_mass(lat)
    G = np.zeros((nt, nx, nt, nx))
    for tp in range(nt - 1, -1, -1):
        u = np.zeros((nt, nx, nx))
        if tp - 1 >= 0:
            u[tp - 1] = -np.eye(nx) / a
            for t in range(tp - 1, 0, -1):
                u[t - 1] = ((np.roll(u[t], -1, axis=0)
                             + np.roll(u[t], 1, axis=0) - c * u[t]) / a
                            - u[t + 1])
        G[:, :, tp, :] = u
    return G.reshape(lat.n_sites, lat.n_sites).astype(complex)


def _per_row_leapfrog(lat):
    """The retarded kernel stepped forward from all nx sources of each
    time row at once (u(tp+1, xp) = -1/a, u = 0 for t <= tp)."""
    nt, nx = lat.nt, lat.nx
    a, c = _split_mass(lat)
    G = np.zeros((nt, nx, nt, nx))
    for tp in range(nt):
        u = np.zeros((nt, nx, nx))  # u[t, x, xp] for sources on row tp
        if tp + 1 < nt:
            u[tp + 1] = -np.eye(nx) / a
            for t in range(tp + 1, nt - 1):
                u[t + 1] = ((np.roll(u[t], -1, axis=0)
                             + np.roll(u[t], 1, axis=0) - c * u[t]) / a
                            - u[t - 1])
        G[:, :, tp, :] = u
    return G.reshape(lat.n_sites, lat.n_sites).astype(complex)


def _kron_sum_hadamard(lat):
    """The Hadamard part as a dense sum of kron(H_k, cos(k (x - x'))) / nx
    over the modes, with the vacuum blocks H_k = cos(w (t - t')) /
    (2 a sin w) at the frequency 4 sin^2(w/2) = (4 sin^2(k/2) + m^2) / a."""
    nt, nx = lat.nt, lat.nx
    a = _split_mass(lat)[0]
    modes = lat.hadamard_mode_classification()
    tgrid = np.arange(nt)
    tau = tgrid[:, None] - tgrid[None, :]
    Hk = np.zeros((nx, nt, nt))
    for j in modes["stable"]:
        k = 2 * np.pi * j / nx
        s = (4 * np.sin(k / 2) ** 2 + lat.mass ** 2) / a
        om = 2 * np.arcsin(np.sqrt(s) / 2)
        Hk[j] = np.cos(om * tau) / (2 * a * np.sin(om))
    xs = np.arange(nx)
    xi_mat = (xs[:, None] - xs[None, :]) % nx
    H = np.zeros((lat.n_sites, lat.n_sites))
    for j in range(nx):
        k = 2 * np.pi * j / nx
        H += np.kron(Hk[j], np.cos(k * xi_mat)) / nx
    H = (H + H.T) / 2
    return H.astype(complex)


def _translation_invariant(lat, K):
    """K[t, x+1, t', x'+1] == K[t, x, t', x'] for every entry, x wrapping:
    the dense K is exactly invariant under spatial translation."""
    K4 = K.reshape(lat.nt, lat.nx, lat.nt, lat.nx)
    return np.array_equal(K4, np.roll(K4, (1, 1), axis=(1, 3)))


BITWISE_SIZES = [
    (12, 16, 0.5), (16, 32, 0.5),
    (8, 10, 2.3),   # m > 2, where a site mass term leaves no mode stable
    (6, 8, 0.0)]    # zero and edge modes


@pytest.mark.parametrize("nt, nx, mass", BITWISE_SIZES)
def test_green_advanced_is_the_backward_leapfrog_bitwise(nt, nx, mass):
    lat = Lattice(nt, nx, mass)
    A = lat.green_advanced().entries
    assert A.tobytes() == _backward_leapfrog(lat).tobytes()
    assert A.tobytes() == lat.green_retarded().entries.T.tobytes()


@pytest.mark.parametrize("nt, nx, mass", BITWISE_SIZES)
def test_one_source_kernels_are_the_dense_constructions_bitwise(nt, nx, mass):
    # tobytes, not array_equal: the signed zeros must match as well
    lat = Lattice(nt, nx, mass)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        H = lat.hadamard_kernel().entries
    assert lat.green_retarded().entries.tobytes() == \
        _per_row_leapfrog(lat).tobytes()
    assert H.tobytes() == _kron_sum_hadamard(lat).tobytes()
    # what lets kernel_residuals read only the x' = 0 columns
    for name in ("green_retarded", "green_advanced", "pauli_jordan",
                 "hadamard_kernel", "wightman", "feynman"):
        assert _translation_invariant(lat, getattr(lat, name)().entries), name


def test_massless_step_is_the_site_mass_leapfrog():
    # at m = 0 the mass term is gone (a = 1, c = 0): the retarded column is
    # the plain five-point leapfrog u(t+1) = u(x+1) + u(x-1) - u(t-1)
    lat = Lattice(9, 8, 0.0)
    u = np.zeros((lat.nt, lat.nx))
    u[1, 0] = -1.0
    for t in range(1, lat.nt - 1):
        u[t + 1] = np.roll(u[t], -1) + np.roll(u[t], 1) - u[t - 1]
    assert np.array_equal(lat.green_retarded().blocks[:, 0], u)


def test_a_dropped_lattice_frees_its_kernels():
    # by reference counting alone: no cycle is left for the cyclic collector
    gc.disable()
    try:
        lat = Lattice(8, 8, 0.5)
        ref = weakref.ref(lat.wightman())
        assert lat.wightman() is ref()  # built once per lattice
        assert ref().lattice == lat
        del lat
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("nt, nx", [(12, 16), (16, 32)])
def test_stencil_residuals_match_the_dense_operator(nt, nx):
    lat = Lattice(nt, nx, 0.5)
    eye = np.eye(lat.n_sites)
    P = lat.klein_gordon_apply(eye)  # dense oracle
    for j in range(0, lat.n_sites, 7):
        assert np.array_equal(P[:, j], lat.klein_gordon_apply(eye[:, j]))
    interior = lat.interior_mask()

    def green_identity(G):
        return float(np.max(np.abs((P @ G - eye)[interior])))

    def two_sided(K):
        return max(float(np.max(np.abs((P @ K)[interior]))),
                   float(np.max(np.abs((K @ P.T)[:, interior]))))

    R, A = lat.green_retarded().entries, lat.green_advanced().entries
    H, W = lat.hadamard_kernel().entries, lat.wightman().entries
    res = kernel_residuals(lat)
    for key, K, want in (
            ("green_retarded_identity", R, green_identity(R)),
            ("green_advanced_identity", A, green_identity(A)),
            ("H2_interior_H", H, two_sided(H)),
            ("H2_interior_W", W, two_sided(W))):
        assert abs(res[key] - want) <= 1e-14 * np.max(np.abs(K)), key
    # per-mode eigenvalues against the dense eigensolve: a different
    # rounding route, 1.4e-14 relative at 12x16
    gram_min = float(np.min(np.linalg.eigvalsh((W + W.conj().T) / 2)))
    assert abs(res["H3_gram_min_eigenvalue"] - gram_min) <= \
        1e-13 * np.max(np.abs(W))


def _reference_cone(lat, R):
    """Per-point double loop over site pairs: the count of retarded entries
    outside the cone, and the mask of pairs whose column point is not in
    the causal future of the row point."""
    n = lat.n_sites
    cone_leaks = 0
    off_future = np.zeros((n, n), dtype=bool)
    pts = list(map(lat.point, range(lat.n_sites)))
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            inside = _in_causal_future(lat, p, q)  # q source, p field point
            if not inside and R[i, j] != 0:
                cone_leaks += 1
            off_future[i, j] = not _in_causal_future(lat, q, p)
    return cone_leaks, off_future


def _plant(monkeypatch, lat, **planted):
    """Serve each planted `name=blocks` (or `name=(blocks, diagonal)`) as
    <name>() of every lattice equal to lat.  lat builds (and caches) its
    true kernels first, so its other kernels stay true; an equal lattice
    built later, as the CLI builds its own, derives them from the planted
    ones."""
    kernel_residuals(lat)
    for name, held in planted.items():
        blocks, diagonal = held if isinstance(held, tuple) else (held, None)
        bad = Kernel(getattr(lat, name)().kind, lat, blocks, diagonal)
        orig = getattr(Lattice, name)
        monkeypatch.setattr(
            Lattice, name,
            lambda self, bad=bad, orig=orig: bad if self == lat else orig(self))


KERNELS = ("green_retarded", "green_advanced", "pauli_jordan",
           "hadamard_kernel", "wightman", "feynman")


@pytest.mark.parametrize("nt, nx, mass", [
    (12, 16, 0.5), (16, 32, 0.5), (24, 48, 0.5),
    (8, 10, 2.3),   # m > 2, where a site mass term leaves no mode stable
    (7, 8, math.sqrt(2.0)),  # on a site mass term's band edge at nx = 8
    (7, 8, 0.0)])   # zero and edge modes excluded
def test_dense_copies_give_the_block_route_residuals(monkeypatch, nt, nx,
                                                     mass):
    # the kernels with a zero site diagonal are read on all their columns,
    # as a dense matrix is: bisolution_residual must give the x' = 0 value,
    # and kernel_residuals, which reads only the x' = 0 columns, must
    # refuse them
    lat = Lattice(nt, nx, mass)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        blocks = kernel_residuals(lat)
        zero = np.zeros(lat.n_sites)
        _plant(monkeypatch, lat, **{name: (getattr(lat, name)().blocks, zero)
                                    for name in KERNELS})
        with pytest.raises(ValueError, match="site diagonal"):
            kernel_residuals(Lattice(nt, nx, mass))
    H, W = (getattr(Lattice(nt, nx, mass), name)()
            for name in ("hadamard_kernel", "wightman"))
    assert H.diagonal is W.diagonal is zero
    assert bisolution_residual(lat, H) == blocks["H2_interior_H"]
    assert bisolution_residual(lat, W) == blocks["H2_interior_W"]


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_residuals_rejects_a_kernel_with_a_site_diagonal(monkeypatch,
                                                                name):
    # the x' = 0 columns hold every block value but only nt of the n_sites
    # diagonal entries, so a diagonal could slip past every row
    lat = Lattice(8, 8, 0.5)
    d = np.zeros(lat.n_sites)
    d[lat.site_index(LatticePoint(4, 5))] = 1e-3
    _plant(monkeypatch, lat, **{name: (getattr(lat, name)().blocks, d)})
    with pytest.raises(ValueError, match="site diagonal"):
        kernel_residuals(Lattice(8, 8, 0.5))


def test_bisolution_residual_of_a_zero_diagonal_reads_every_column(
        monkeypatch):
    lat = Lattice(12, 16, 0.5)
    W = lat.wightman()
    W0 = Kernel("wightman", lat, W.blocks, np.zeros(lat.n_sites))
    read = []
    columns = Kernel.columns
    monkeypatch.setattr(Kernel, "columns", lambda self, sites: (
        read.append(lat.n_sites if sites is None else len(sites))
        or columns(self, sites)))
    want = bisolution_residual(lat, W)
    assert read == [lat.nt]
    got = bisolution_residual(lat, W0)
    # one source row of nx columns at a time
    assert read == [lat.nt] + [lat.nx] * lat.nt
    assert got == want == kernel_residuals(lat)["H2_interior_W"]


def test_the_block_route_materializes_no_dense_kernel(monkeypatch, tmp_path,
                                                      capsys):
    lat = Lattice(12, 16, 0.5)
    kernel_residuals(lat)
    kernels = [getattr(lat, name)() for name in KERNELS]
    assert all(K._entries is None for K in kernels)
    built = []
    monkeypatch.setattr(cli, "Lattice",
                        lambda *args: built.append(Lattice(*args)) or built[-1])
    assert main(["propagators", "--set", f"output={tmp_path}"]) == 0
    capsys.readouterr()
    (lat,) = built
    assert sorted(b.__name__ for b in lat._kernels) == sorted(
        f"_{name.removesuffix('_kernel')}" for name in KERNELS)
    assert all(K.diagonal is None and K._entries is None
               for K in lat._kernels.values())
    with np.load(tmp_path / cli.KERNELS_FILE) as z:
        for name, K in zip(KERNELS, kernels):
            assert z[name].tobytes() == K.blocks.tobytes(), name


def test_block_kernel_accessors_are_the_dense_slices():
    lat = Lattice(8, 10, 2.3)
    sites = np.random.default_rng(3).integers(0, lat.n_sites, 12)
    for name in KERNELS:
        K = getattr(lat, name)()
        dense = K.columns(None)
        assert K._entries is None  # a gather that is not kept
        assert K.entries is K.entries  # gathered once, the same array
        assert K.entries.tobytes() == dense.tobytes()
        assert not K.entries.flags.writeable and not K.blocks.flags.writeable
        assert K.columns(sites).tobytes() == dense[:, sites].tobytes()
        assert K.rows(sites).tobytes() == dense[sites].tobytes()


def test_block_kernel_is_its_definition():
    # random blocks, unlike every built kernel, differ under x -> -x, so a
    # gather or a transpose with the offset's sign flipped shows here
    lat = Lattice(4, 5, 0.5)
    rng = np.random.default_rng(8)
    C = rng.standard_normal((4, 4, 5)) + 1j * rng.standard_normal((4, 4, 5))
    K = Kernel("planted", lat, C)
    want = np.zeros((lat.n_sites, lat.n_sites), dtype=complex)
    pts = list(map(lat.point, range(lat.n_sites)))
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            want[i, j] = C[p.t, q.t, (p.x - q.x) % lat.nx]
    assert K.columns(None).tobytes() == want.tobytes()
    assert K.entries.tobytes() == want.tobytes()
    sites = [0, 7, 19, 3]
    assert K.columns(sites).tobytes() == want[:, sites].tobytes()
    assert K.rows(sites).tobytes() == want[sites].tobytes()
    # a site diagonal adds where the row site is the column site, repeated
    # sites included
    d = rng.standard_normal(lat.n_sites)
    Kd = Kernel("planted", lat, C, d)
    want[np.diag_indices_from(want)] += d
    sites = [0, 7, 19, 3, 7]
    assert Kd.columns(None).tobytes() == want.tobytes()
    assert Kd.entries.tobytes() == want.tobytes()
    assert Kd.columns(sites).tobytes() == want[:, sites].tobytes()
    assert Kd.rows(sites).tobytes() == want[sites].tobytes()


def test_rows_with_a_diagonal_are_the_dense_rows_at_32x64():
    # rows reads the blocks in place; at nx = 64 an offset taken with the
    # wrong sign or the wrong modulus lands on another entry
    lat = Lattice(32, 64, 0.5)
    d = np.random.default_rng(4).standard_normal(lat.n_sites)
    K = Kernel("wightman", lat, lat.wightman().blocks, d)
    sites = [0, 63, 64, 1000, 2047, 1000]
    assert K.rows(sites).tobytes() == K.entries[sites].tobytes()


def test_kernel_residuals_at_32x64_stay_small():
    # six dense 32x64 kernels alone would be 6 x 67 MB.  The peak is the
    # child's VmHWM: its ru_maxrss would start from the RSS of this test
    # process, which Linux carries across the fork and exec
    code = ("import json, re, warnings\n"
            "from pathlib import Path\n"
            "from paqft.lattice import Lattice, kernel_residuals\n"
            "warnings.simplefilter('ignore')\n"
            "res = kernel_residuals(Lattice(32, 64, 0.5))\n"
            "status = Path('/proc/self/status').read_text()\n"
            "kb = int(re.search(r'VmHWM:\\s+(\\d+) kB', status)[1])\n"
            "print(json.dumps([res, kb / 1024]))\n")
    src = str(Path(paqft.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    res, peak_mb = json.loads(out.stdout)
    assert peak_mb < 150
    assert res["cone_support_violations"] == 0
    assert res["reciprocity"] == res["pauli_jordan_antisymmetry"] == 0.0
    assert res["H1_imaginary_part"] == res["feynman_symmetry"] == 0.0
    assert res["feynman_equals_wightman_off_future"] == 0.0


def _gathered(lat, C):
    return Kernel("planted", lat, C).entries


def _outside_cone_blocks(lat):
    """The block positions (t, t', xi) of the retarded kernel whose field
    point (t, xi) lies outside J^+ of the source (t', 0)."""
    return [(t, tp, xi) for t in range(lat.nt) for tp in range(lat.nt)
            for xi in range(lat.nx)
            if not _in_causal_future(lat, LatticePoint(t, xi),
                                     LatticePoint(tp, 0))]


@pytest.mark.parametrize("nt, nx", [(8, 8), (12, 16)])
def test_vectorized_cone_check_matches_reference_loop(monkeypatch, nt, nx):
    lat = Lattice(nt, nx, 0.5)
    rng = np.random.default_rng(nt * nx)
    R = lat.green_retarded().blocks.copy()
    # random block entries anywhere, inside the cone and outside it
    for t, tp, xi in zip(rng.integers(0, nt, 40), rng.integers(0, nt, 40),
                         rng.integers(0, nx, 40)):
        R[t, tp, xi] = rng.normal()
    # symmetric defects keep the Feynman kernel exactly symmetric
    delta = np.zeros((nt, nt, nx), dtype=complex)
    for t, tp, xi in zip(rng.integers(0, nt, 10), rng.integers(0, nt, 10),
                         rng.integers(0, nx, 10)):
        delta[t, tp, xi] += rng.normal()
    DF = lat.feynman().blocks + (delta + _transposed(delta)) / 2
    leaks, off_future = _reference_cone(lat, _gathered(lat, R))
    assert leaks > 0 and leaks % nx == 0  # each block entry in nx columns
    _plant(monkeypatch, lat, green_retarded=R, feynman=DF)
    res = kernel_residuals(lat)
    assert type(res["cone_support_violations"]) is int
    assert res["cone_support_violations"] == leaks
    assert res["feynman_symmetry"] == 0.0
    W = lat.wightman().entries
    want = float(np.max(np.abs((_gathered(lat, DF) - W)[off_future])))
    assert want > 0
    assert res["feynman_equals_wightman_off_future"] == want


@pytest.mark.parametrize("k", [1, 5])
def test_planted_cone_leaks_counted_exactly(monkeypatch, tmp_path, capsys, k):
    # each planted block entry leaks in all nx columns of its source row
    lat = Lattice(8, 8, 0.5)
    R = lat.green_retarded().blocks.copy()
    outside = _outside_cone_blocks(lat)
    picks = np.random.default_rng(k).choice(len(outside), k, replace=False)
    for i in picks:
        R[outside[i]] = 1e-30  # far below every float gate: only the count sees it
    leaks, _ = _reference_cone(lat, _gathered(lat, R))
    assert leaks == k * lat.nx
    _plant(monkeypatch, lat, green_retarded=R)
    assert kernel_residuals(lat)["cone_support_violations"] == leaks
    code = main(["propagators", "--set", f"output={tmp_path}",
                 "--set", "lattice.nt=8", "--set", "lattice.nx=8"])
    assert code == 1
    rep = json.loads((tmp_path / "propagators.json").read_text())
    assert rep["residuals"]["cone_support_violations"] == leaks
    assert [c for c, ok in rep["checks"].items() if not ok] == \
        ["cone_support_violations"]
    capsys.readouterr()


def test_translation_invariant_cone_leak_is_counted_in_every_column(
        monkeypatch):
    # one block entry is the same leak at every spatial shift: only the
    # x' = 0 columns are read, so the count must be scaled by nx
    lat = Lattice(8, 8, 0.5)
    R = lat.green_retarded().blocks.copy()
    R[4, 3, 3] = 1e-30  # (4, x + 3) is spacelike to (3, x)
    leaks, _ = _reference_cone(lat, _gathered(lat, R))
    assert leaks == lat.nx
    _plant(monkeypatch, lat, green_retarded=R)
    assert kernel_residuals(lat)["cone_support_violations"] == leaks


def test_planted_feynman_defect_off_future_fails(monkeypatch):
    lat = Lattice(8, 8, 0.5)
    DF = lat.feynman().blocks.copy()
    # (3, x) and (3, x + 4) are spacelike; offset 4 is its own negative at
    # nx = 8, so the plant keeps the kernel symmetric
    DF[3, 3, 4] += 1e-6
    _plant(monkeypatch, lat, feynman=DF)
    res = kernel_residuals(lat)
    assert res["feynman_symmetry"] == 0.0
    assert res["feynman_equals_wightman_off_future"] > 1e-10


def _symmetric_plant(C, a, b, delta):
    """C with K[a, b] and K[b, a] both moved by delta, for sites a = (t, x)
    and b = (t', x') of an 8-site ring: the block entries C[t, t', x - x']
    and C[t', t, x' - x]."""
    C = C.copy()
    (t, x), (tp, xp) = a, b
    C[t, tp, (x - xp) % 8] += delta
    C[tp, t, (xp - x) % 8] += delta
    return C


@pytest.mark.parametrize("name, key", [
    ("green_retarded", "green_retarded_identity"),
    ("hadamard_kernel", "H2_interior_H"),
    ("wightman", "H2_interior_W"),
    ("wightman", "H3_gram_min_eigenvalue")])
def test_planted_defect_off_the_x0_columns_fails_its_gate(monkeypatch,
                                                          name, key):
    # a block entry is the kernel at every spatial shift, so the defect
    # sits in the columns off x' = 0 as much as in the ones that are read
    lat = Lattice(8, 8, 0.5)
    C = getattr(lat, name)().blocks
    if key == "H3_gram_min_eigenvalue":
        C = C.copy()
        C[3, 3, 0] -= 1e-3  # pushes a null direction of W below zero
    elif key == "green_retarded_identity":
        C = C.copy()
        C[4, 3, 1] += 1e-6
    else:
        C = _symmetric_plant(C, (3, 5), (4, 6), 1e-6)
    assert kernel_residuals(lat)[key] == pytest.approx(0.0, abs=1e-12)
    _plant(monkeypatch, lat, **{name: C})
    res = kernel_residuals(lat)
    if key == "H3_gram_min_eigenvalue":
        assert res[key] < -1e-10
    else:
        assert res[key] > 1e-10


# (kernel, block entry, change) that breaks each gate of kernel_residuals
GATE_PLANTS = {
    "green_retarded_identity": ("green_retarded", (4, 3, 1), 1e-6),
    "green_advanced_identity": ("green_advanced", (3, 4, 1), 1e-6),
    "reciprocity": ("green_advanced", (3, 4, 1), 1e-6),
    "cone_support_violations": ("green_retarded", (4, 3, 3), 1e-30),
    "pauli_jordan_antisymmetry": ("pauli_jordan", (4, 3, 1), 1e-6),
    "H1_imaginary_part": ("wightman", (4, 3, 1), 1e-6j),
    "H2_interior_H": ("hadamard_kernel", (4, 3, 1), 1e-6),
    "H2_interior_W": ("wightman", (4, 3, 1), 1e-6),
    "H3_gram_min_eigenvalue": ("wightman", (3, 3, 0), -1e-3),
    "feynman_symmetry": ("feynman", (4, 3, 1), 1e-6),
    "feynman_equals_wightman_off_future": ("feynman", (3, 3, 4), 1e-6),
}


@pytest.mark.parametrize("key", sorted(GATE_PLANTS))
def test_every_kernel_gate_fails_on_a_block_plant(monkeypatch, key):
    lat = Lattice(8, 8, 0.5)
    assert sorted(GATE_PLANTS) == sorted(kernel_residuals(lat))
    assert cli._kernel_check(key, kernel_residuals(lat)[key], 1e-10)
    name, index, change = GATE_PLANTS[key]
    C = getattr(lat, name)().blocks.copy()
    C[index] += change
    _plant(monkeypatch, lat, **{name: C})
    assert not cli._kernel_check(key, kernel_residuals(lat)[key], 1e-10)


def test_pauli_jordan_antisymmetric_and_spacelike_zero(lat):
    D = lat.pauli_jordan().entries
    assert np.max(np.abs(D + D.T)) == 0.0
    a = lat.site_index(LatticePoint(3, 2))
    b = lat.site_index(LatticePoint(3, 10))  # spacelike separated
    assert D[a, b] == 0.0


def test_hadamard_conditions(lat):
    res = kernel_residuals(lat)
    assert res["H1_imaginary_part"] == 0.0
    assert res["H2_interior_H"] < 1e-10
    assert res["H2_interior_W"] < 1e-10
    assert res["H3_gram_min_eigenvalue"] > -1e-10


def test_feynman_equals_wightman_off_future(lat):
    res = kernel_residuals(lat)
    assert res["feynman_symmetry"] == 0.0
    assert res["feynman_equals_wightman_off_future"] == 0.0


@pytest.mark.parametrize("mass", [0.5, math.sqrt(2.0), 2.3, 5.0, 1e3])
def test_every_massive_mode_is_stable(mass):
    # 4 sin^2(w/2) = (4 sin^2(k/2) + m^2) / a < 4 for THETA < 1/2, also
    # at m = sqrt(2) (which a site mass term puts on the band edge at
    # nx = 8) and beyond m = 2
    for nx in (8, 10):
        lat = Lattice(7, nx, mass)
        assert lat.hadamard_mode_classification() == {
            "stable": list(range(nx)), "excluded": []}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kernel_residuals(lat)
        assert res["H2_interior_W"] < 1e-10
        assert res["H3_gram_min_eigenvalue"] > -1e-10


def test_wightman_stays_bounded_as_the_lattice_grows():
    # the kernels oscillate rather than grow: max|W| does not rise with nt
    size = {(nt, nx): float(np.max(np.abs(Lattice(nt, nx, 0.5)
                                          .wightman().blocks)))
            for nt, nx in ((12, 16), (32, 64), (64, 64))}
    for key in ((32, 64), (64, 64)):
        assert size[key] <= 10 * size[12, 16], size


def test_mode_classification(lat):
    rep = lat.hadamard_mode_classification()
    assert not rep["excluded"]
    assert rep["stable"] == list(range(lat.nx))
    rep0 = Lattice(6, 8, 0.0).hadamard_mode_classification()
    kinds = dict(rep0["excluded"])
    assert kinds[0] == "zero-mode"
    assert kinds[4] == "edge-mode"


def test_zero_mass_warns():
    with pytest.warns(RuntimeWarning) as rec:
        Lattice(6, 8, 0.0).hadamard_kernel()
    assert any("zero mode" in str(w.message) for w in rec)


def test_edge_mode_warns_and_is_left_out():
    # at m = 0, 4 sin^2(k/2) = 4 at k = pi: mode j = nx/2 sits at w = pi,
    # beside the zero mode j = 0; an odd nx has no such mode
    lat = Lattice(7, 8, 0.0)
    assert lat.hadamard_mode_classification()["excluded"] == \
        [(0, "zero-mode"), (4, "edge-mode")]
    with pytest.warns(RuntimeWarning) as rec:
        lat.hadamard_kernel()
    assert sorted(str(w.message) for w in rec) == [
        "mode j=0: zero mode excluded from the Hadamard sum "
        "(infrared regularization)",
        "mode j=4: edge mode (w = pi) excluded from the Hadamard sum"]
    assert Lattice(7, 9, 0.0).hadamard_mode_classification()["excluded"] == \
        [(0, "zero-mode")]


def test_field_values_shapes(lat):
    grid = np.arange(lat.n_sites, dtype=float).reshape(lat.nt, lat.nx)
    flat = field_values(lat, grid)
    assert flat[lat.site_index(LatticePoint(1, 2))] == grid[1, 2]
    assert np.array_equal(field_values(lat, flat), flat)
    with pytest.raises(ValueError, match="field shape"):
        field_values(lat, np.zeros(7))


def test_kernel_npz_roundtrip(tmp_path):
    lat = Lattice(4, 4, 1.0)
    K = lat.wightman()
    np.savez(tmp_path / "k.npz", wightman=K.blocks)
    with np.load(tmp_path / "k.npz") as z:
        K2 = Kernel("wightman", lat, z["wightman"])
    assert K2.entries.dtype == np.complex128
    assert K2.entries.tobytes() == K.entries.tobytes()


def test_hadamard_part_must_be_real_and_symmetric(monkeypatch, lat):
    # the lattice's own Hadamard part is checked on its blocks
    for build in (_feynman, _wightman):
        assert build(lat).blocks.tobytes() == \
            getattr(lat, build.__name__[1:])().blocks.tobytes()
    C = lat.hadamard_kernel().blocks
    asym = C.copy()
    asym[2, 1, 3] += 1e-3  # its transpose entry C[1, 2, -3] stays
    for bad, match in ((C + 1e-3j, "real"), (asym, "symmetric")):
        H = Kernel("hadamard", lat, bad)
        monkeypatch.setattr(Lattice, "hadamard_kernel", lambda self: H)
        for build in (_feynman, _wightman):
            with pytest.raises(ValueError, match=match):
                build(lat)


def test_kernel_validation(lat):
    nt, nx, n = lat.nt, lat.nx, lat.n_sites
    blocks = np.zeros((nt, nt, nx), dtype=complex)
    # the blocks: C[t, t', xi] of shape (nt, nt, nx), finite
    with pytest.raises(ValueError, match="kernel shape"):
        Kernel("bad", lat, np.zeros((nt, nt, nx + 1)))
    with pytest.raises(ValueError, match="kernel shape"):
        Kernel("bad", lat, np.zeros((n, n)))
    bad = blocks.copy()
    bad[2, 1, 3] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match="non-finite"):
        Kernel("bad", lat, bad)
    # the site diagonal: real, finite, of shape (n_sites,)
    for shape in ((n + 1,), (nt, nx), (n, n)):
        with pytest.raises(ValueError, match="diagonal must be a real"):
            Kernel("bad", lat, blocks, np.zeros(shape))
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            Kernel("bad", lat, blocks, np.full(n, value))
    with pytest.raises(ValueError, match="diagonal must be a real"):
        Kernel("bad", lat, blocks, np.zeros(n, dtype=complex))
    K = Kernel("good", lat, blocks, np.ones(n))
    assert not K.blocks.flags.writeable and not K.diagonal.flags.writeable


def test_poisson_bracket_is_pauli_jordan(lat):
    a, b = LatticePoint(4, 3), LatticePoint(6, 3)
    fa = PolyFunctional.field_at(lat, a)
    fb = PolyFunctional.field_at(lat, b)
    phi = np.zeros(lat.n_sites)
    val = lat.poisson_bracket(fa, fb, phi).coeffs.get(0, 0j)
    assert val == pytest.approx(
        lat.pauli_jordan().entries[lat.site_index(a), lat.site_index(b)],
                                abs=1e-14)


def test_retarded_propagation_matches_wave_solution():
    # source at one site: P u = delta  =>  u = Delta^R delta, supported in
    # the forward cone and solving the leapfrog recursion there
    lat = Lattice(8, 8, 0.5)
    R = lat.green_retarded().entries
    src = lat.site_index(LatticePoint(2, 4))
    u = R[:, src]
    Pu = lat.klein_gordon_apply(u)
    interior = lat.interior_mask()
    target = np.zeros(lat.n_sites)
    target[src] = 1.0
    assert np.max(np.abs((Pu - target)[interior])) < 1e-12


def test_klein_gordon_apply_transforms_each_column_of_a_stack():
    lat = Lattice(12, 16, 0.5)
    rng = np.random.default_rng(4)
    U = rng.standard_normal((lat.n_sites, 5)) \
        + 1j * rng.standard_normal((lat.n_sites, 5))
    PU = lat.klein_gordon_apply(U)
    assert PU.shape == U.shape
    for j in range(U.shape[1]):
        assert np.array_equal(PU[:, j], lat.klein_gordon_apply(U[:, j]))


def test_klein_gordon_apply_commutes_with_time_reversal_bitwise():
    # what makes green_advanced_identity equal green_retarded_identity
    lat = Lattice(12, 16, 0.5)
    U = np.random.default_rng(6).standard_normal((lat.n_sites, 5))

    def reverse(V):
        return V.reshape(lat.nt, lat.nx, -1)[::-1].reshape(V.shape)

    assert np.array_equal(lat.klein_gordon_apply(reverse(U)),
                          reverse(lat.klein_gordon_apply(U)))
