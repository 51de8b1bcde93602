"""Finite 1+1D Minkowski lattice: causal structure and propagator kernels.

Conventions
-----------
Sites are (t, x) with 0 <= t < nt and 0 <= x < nx, spacing dt = dx = 1
(CFL = 1, so the numerical domain of dependence is the exact discrete light
cone).  The spatial direction is periodic; time is a finite slab.  Flat site
index is ``t * nx + x``.

The wave operator is P = -(box + m^2), discretized with centered second
differences.  Operator identities (P applied to a kernel in either argument)
hold on interior time rows 1 <= t <= nt-2 only; the two boundary rows carry
the stencil truncation and are excluded from residual norms.  Every residual
comes from the stencil itself (klein_gordon_apply on K for the first
argument, on K^T for the second); no dense operator matrix is formed.

Kernel direction convention: the retarded Green function satisfies
Delta_R(x, y) != 0 only if y is in the causal past J^-(x), i.e. the column
at source y spreads toward the future of y.  The advanced kernel is the
retarded one under time reversal t -> nt-1-t in both arguments, which is
its transpose (reciprocity), bitwise.

Causal structure: J^+(p) is the unit-speed cone on the spatial torus.
One vectorized formula over flat site indices (_in_future) serves
count_in_future, and through it "not later than" and spacelike, and the
cone rows of kernel_residuals.

Translation symmetry: a kernel is held as blocks C[t, t', xi], its x' = 0
column, plus an optional real site diagonal d (Kernel): nt * nt * nx +
n_sites numbers where the dense matrix has (nt * nx)^2.  Callers read the
blocks, or the few columns or rows they need (Kernel.columns, Kernel.rows);
the dense layout is known only inside Kernel.  The lattice's kernels have
no diagonal.  The retarded blocks come from a single leapfrog source; the
advanced ones are their time reversal; Delta, W and Delta_F are formed
entry by entry on the blocks, which commutes with the gather, and the
Hadamard blocks are a sum of closed-form mode blocks.
So every gathered entry is the same bits as the source-by-source and kron
constructions, signed zeros included.  Without a diagonal, every column of
a kernel, and of P applied to it, is its column at the same t' and x' = 0
rolled by x'.  So kernel_residuals reads the nt columns at x' = 0: maxima
are the same and the cone count is nx times theirs; H3 comes from the nx
Hermitian nt x nt mode blocks.  Those columns miss most of a diagonal,
such as the perturbed Hadamard part of a caller's W and Delta_F:
kernel_residuals rejects one, and bisolution_residual reads such a kernel
on all its columns, nx at a time.

Mass term: -(m^2/2)[THETA phi(t)^2 + (1-THETA) phi(t) phi(t+1)], split
between the site and the forward time link.  For THETA < 1/2 every mode with
m > 0 has a real frequency (the CFL condition), so no kernel grows with nt.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .functionals import HbarScalar, PolyFunctional


# the caps of the functional layer, which re-exports them: they live here
# so that the command line checks a config and reports a window breach
# without loading that layer
MAX_DEGREE = 8
HBAR_WINDOW = (-8, 8)

# the site share of the mass term; below 1/2 every massive mode is stable
THETA = 0.25


class HbarWindowError(ValueError):
    """An hbar exponent outside HBAR_WINDOW."""


class LatticePoint(NamedTuple):
    t: int
    x: int


Region = frozenset  # of LatticePoint


@dataclass(frozen=True)
class Lattice:
    """Spacetime carrier: nt time rows, nx periodic spatial sites, mass m.

    >>> lat = Lattice(nt=8, nx=8, mass=0.5)
    >>> lat.n_sites
    64
    """

    nt: int
    nx: int
    mass: float
    _kernels: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if self.nt < 4 or self.nx < 4:
            raise ValueError(f"lattice too small: nt={self.nt}, nx={self.nx} (need >= 4)")
        if not (math.isfinite(self.mass) and self.mass >= 0.0):
            raise ValueError(f"mass must be finite and >= 0, got {self.mass}")

    @property
    def n_sites(self) -> int:
        return self.nt * self.nx

    def site_index(self, p: LatticePoint) -> int:
        if not (0 <= p.t < self.nt and 0 <= p.x < self.nx):
            raise ValueError(f"point {p} outside lattice {self.nt}x{self.nx}")
        return p.t * self.nx + p.x

    def point(self, idx: int) -> LatticePoint:
        if not (0 <= idx < self.n_sites):
            raise ValueError(f"site index {idx} out of range")
        return LatticePoint(idx // self.nx, idx % self.nx)

    def torus_dist(self, x1: int, x2: int) -> int:
        d = abs(x1 - x2) % self.nx
        return min(d, self.nx - d)

    def interior_mask(self) -> np.ndarray:
        """Sites on the rows 1 <= t <= nt-2, where the centered operator
        stencil is complete."""
        m = np.zeros((self.nt, self.nx), dtype=bool)
        m[1:-1] = True
        return m.reshape(self.n_sites)

    # -- causal structure ---------------------------------------------------

    def count_in_future(self, A, B) -> int:
        """Number of points of A inside the causal future J^+ of B (zero iff
        A is not later than B)."""
        a, b = (np.array([self.site_index(p) for p in S], dtype=int)
                for S in (A, B))
        return int(np.count_nonzero(_in_future(self, a, b).any(axis=1)))

    def not_later_than(self, A, B) -> bool:
        """A does not meet the causal future of B (A "not later than" B).

        Never true when A and B intersect (p is in its own future).
        """
        return self.count_in_future(A, B) == 0

    def spacelike(self, A, B) -> bool:
        return self.not_later_than(A, B) and self.not_later_than(B, A)

    # -- operator and kernels -----------------------------------------------

    def klein_gordon_apply(self, phi):
        """Apply P = -(a (u(t+1) + u(t-1)) - u(x+1) - u(x-1) + c u)
        row-wise (_mass_split), zero-padding outside the slab.

        Only interior rows of the result are meaningful.  Accepts a flat
        (n_sites,) array or an (n_sites, k) stack of columns (each column
        transformed on its own) and returns an array of the same shape.
        """
        a, c = _mass_split(self)
        phi = np.asarray(phi)
        u = phi.reshape(self.nt, self.nx, *phi.shape[1:])
        up = np.zeros_like(u)
        dn = np.zeros_like(u)
        up[:-1] = u[1:]
        dn[1:] = u[:-1]
        # the -2u of the time and space second differences cancel; leaving
        # them out saves rounding, and up + dn keeps the stencil exactly
        # symmetric under time reversal
        return (-(a * (up + dn) - np.roll(u, -1, axis=1)
                  - np.roll(u, 1, axis=1) + c * u)).reshape(phi.shape)

    def _kernel(self, build) -> "Kernel":
        """build(self), built once per lattice instance.  The kernels go
        with the lattice: each holds a cache-free copy of it, not the
        lattice itself."""
        kernel = self._kernels.get(build)
        if kernel is None:
            kernel = self._kernels[build] = build(self)
        return kernel

    def green_retarded(self) -> "Kernel":
        return self._kernel(_green_retarded)

    def green_advanced(self) -> "Kernel":
        return self._kernel(_green_advanced)

    def pauli_jordan(self) -> "Kernel":
        return self._kernel(_pauli_jordan)

    def hadamard_kernel(self) -> "Kernel":
        return self._kernel(_hadamard)

    def wightman(self) -> "Kernel":
        return self._kernel(_wightman)

    def feynman(self) -> "Kernel":
        return self._kernel(_feynman)

    def hadamard_mode_classification(self) -> dict:
        """Per-mode dispersion bookkeeping: stable / excluded (m = 0 only)."""
        report = {"stable": [], "excluded": []}
        for j in range(self.nx):
            s = _dispersion(self, j)
            if abs(s) < _MODE_EPS:
                report["excluded"].append((j, "zero-mode"))
            elif abs(s - 4.0) < _MODE_EPS:
                report["excluded"].append((j, "edge-mode"))
            else:
                report["stable"].append(j)
        return report

    def poisson_bracket(self, F: "PolyFunctional", G: "PolyFunctional",
                        phi: np.ndarray) -> "HbarScalar":
        """{F, G} = <F^(1)(phi), Delta G^(1)(phi)>, the first derivatives
        read as the degree-1 parts of F(. + phi) and G(. + phi)."""
        from .functionals import HbarScalar

        if F.lattice != self or G.lattice != self:
            raise ValueError("functionals live on a different lattice")
        dF, dG = (H.shift_field(phi).terms.get(1, {}) for H in (F, G))
        D = self.pauli_jordan().rows([i for (i,) in dF])
        out = HbarScalar()
        for ((i,), ci), Di in zip(dF.items(), D):
            for (j,), cj in dG.items():
                out = out + ci * cj * complex(Di[j])
        return out


def field_values(lattice: Lattice, phi) -> np.ndarray:
    """Coerce an array-like to a flat value vector.

    Accepts flat (n_sites,) vectors or (nt, nx) grids in row-major site
    order.
    """
    v = np.asarray(phi)
    if v.shape == (lattice.nt, lattice.nx):
        v = v.reshape(lattice.n_sites)
    if v.shape != (lattice.n_sites,):
        raise ValueError(f"field shape {v.shape} != ({lattice.n_sites},)")
    return v


class Kernel:
    """Complex two-point function on lattice sites: blocks C of shape
    (nt, nt, nx) and an optional real site diagonal d of shape (n_sites,),
    K[(t, x), (t', x')] = C[t, t', (x - x') mod nx] + d[(t, x)] [same site].

    `columns` and `rows` read K[:, sites] and K[sites] from the blocks;
    `Kernel(kind, lattice, blocks)` rebuilds a kernel from saved blocks.
    `entries` is the dense matrix, gathered on first access and kept, so it
    is the same array every time.  No package code reads it: it stays for
    the tests' dense oracles and for tracing tools that key a kernel by the
    id of that array.  The stored arrays are write-protected.

    It holds an equal copy of its lattice with an empty kernel cache, so a
    lattice and the kernels cached on it make no reference cycle: dropping
    the lattice frees them by reference counting alone.
    """

    def __init__(self, kind: str, lattice: Lattice, blocks: np.ndarray,
                 diagonal: np.ndarray | None = None):
        self.kind = kind
        self.lattice = replace(lattice)
        shape, n = (lattice.nt, lattice.nt, lattice.nx), lattice.n_sites
        if blocks.shape != shape:
            raise ValueError(f"kernel shape {blocks.shape} != {shape}")
        held = (blocks,) if diagonal is None else (blocks, diagonal)
        if diagonal is not None and (diagonal.shape != (n,)
                                     or np.iscomplexobj(diagonal)):
            raise ValueError(f"kernel diagonal must be a real ({n},) array, "
                             f"got {diagonal.dtype} {diagonal.shape}")
        if not all(np.all(np.isfinite(a)) for a in held):
            raise ValueError("kernel has non-finite entries")
        for a in held:
            a.setflags(write=False)
        self.blocks, self.diagonal = blocks, diagonal
        self._entries = None

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = self.columns(None)
            self._entries.setflags(write=False)
        return self._entries

    def columns(self, sites) -> np.ndarray:
        """K[:, sites] (every column for None)."""
        return _gather(self.lattice, self.blocks, self.diagonal, sites)

    def rows(self, sites) -> np.ndarray:
        """K[sites], read from the blocks as
        K[(t, x), (t', x')] = C[t, t', (x - x') mod nx]."""
        lat = self.lattice
        s = np.asarray(sites, int)
        K = self.blocks[(s // lat.nx)[:, None, None],
                        np.arange(lat.nt)[:, None],
                        ((s % lat.nx)[:, None] - np.arange(lat.nx))[:, None]
                        % lat.nx].reshape(len(s), lat.n_sites)
        if self.diagonal is not None:
            K[np.arange(len(s)), s] += self.diagonal[s]
        return K


_MODE_EPS = 1e-12

# warning text for each kind of mode hadamard_mode_classification excludes
_EXCLUDED_MODE_WARNINGS = {
    "zero-mode": "zero mode excluded from the Hadamard sum "
                 "(infrared regularization)",
    "edge-mode": "edge mode (w = pi) excluded from the Hadamard sum",
}


def _mass_split(lat: Lattice) -> tuple[float, float]:
    """(a, c) = (1 + (1-THETA) m^2 / 2, THETA m^2): the weight of the time
    neighbours and of the site in the stencil of the split mass term."""
    m2 = lat.mass ** 2
    return 1 + (1 - THETA) * m2 / 2, THETA * m2


def _dispersion(lat: Lattice, j: int) -> float:
    """s = 4 sin^2(w/2) = (4 sin^2(k/2) + m^2) / a of spatial mode j
    (k = 2 pi j / nx); s < 4 for every mode when m > 0."""
    k = 2 * np.pi * j / lat.nx
    return (4 * np.sin(k / 2) ** 2 + lat.mass ** 2) / _mass_split(lat)[0]


def _gather(lat: Lattice, C: np.ndarray, d, sites=None) -> np.ndarray:
    """K[:, sites] (every column by default) of the kernel with blocks C
    and site diagonal d (or None)."""
    s = np.arange(lat.n_sites) if sites is None else np.asarray(sites, int)
    ts, xs = np.arange(lat.nt), np.arange(lat.nx)
    K = C[ts[:, None, None], (s // lat.nx)[None, None, :],
          (xs[:, None] - s % lat.nx) % lat.nx].reshape(lat.n_sites, len(s))
    if d is not None:
        K[s, np.arange(len(s))] += d[s]
    return K


def _transposed(C: np.ndarray) -> np.ndarray:
    """The blocks of K^T: K^T[(t, x), (t', x')] = C[t', t, (x' - x) mod nx]."""
    nx = C.shape[2]
    return C.transpose(1, 0, 2)[:, :, -np.arange(nx) % nx]


def _green_retarded(lat: Lattice) -> Kernel:
    """One column, stepped by forward leapfrog from a unit source at
    (0, 0), gathered into every other.

    u = 0 on row 0, the P u = delta relation forces u(1, 0) = -1/a, and
    then u(t+1, x) = (u(t, x+1) + u(t, x-1) - c u(t, x)) / a - u(t-1, x)
    (_mass_split).  The step does the same operations at every site, so
    the column of the source (t', x') is u shifted by t' in time and rolled
    by x', bitwise: G[t, x, t', x'] = u[t - t', (x - x') mod nx] for
    t >= t', else 0.
    """
    nt, nx = lat.nt, lat.nx
    a, c = _mass_split(lat)
    # rows nt.. stay zero: a negative t - t' indexes them
    u = np.zeros((2 * nt - 1, nx))
    u[1] = -np.eye(nx)[0] / a  # -0.0 off the source, as all sources give
    for t in range(1, nt - 1):
        u[t + 1] = ((np.roll(u[t], -1) + np.roll(u[t], 1) - c * u[t]) / a
                    - u[t - 1])
    tau = np.subtract.outer(np.arange(nt), np.arange(nt))
    return Kernel("retarded", lat, u.astype(complex)[tau])


def _green_advanced(lat: Lattice) -> Kernel:
    """The retarded kernel under time reversal t -> nt-1-t in both
    arguments, C_A[t, t'] = C_R[nt-1-t, nt-1-t'].  The leapfrog step is
    time-symmetric, so this is exactly the backward-stepping construction,
    and A = R^T bitwise."""
    return Kernel("advanced", lat, lat.green_retarded().blocks[::-1, ::-1])


def _pauli_jordan(lat: Lattice) -> Kernel:
    return Kernel("pauli_jordan", lat,
                  lat.green_retarded().blocks - lat.green_advanced().blocks)


def _hadamard(lat: Lattice) -> Kernel:
    """Real symmetric H with W = (i/2) Delta + H a positive bisolution.

    Per spatial mode k the frequency w of s = 4 sin^2(w/2) (_dispersion) is
    real, and H_k(t, t') = cos(w (t - t')) / (2 a sin w) is the real part
    of W_k = exp(-i w (t - t')) / (2 a sin w), whose imaginary part is
    Delta_k / 2.  At m = 0 the zero mode (s = 0) and, for even nx, the edge
    mode (s = 4) are excluded with a warning (hadamard_mode_classification):
    the massless infrared divergence has no finite regularization.

    The mode blocks are summed into the kernel's blocks
    C[t, t', xi] = sum_k H_k(t, t') cos(k xi) / nx: gathered at
    xi = x - x', entry for entry the products and sums of the sum of
    kron(H_k, cos(k (x - x'))) / nx, so the same bits.
    """
    nt, nx = lat.nt, lat.nx
    a = _mass_split(lat)[0]
    modes = lat.hadamard_mode_classification()
    for j, kind in modes["excluded"]:
        warnings.warn(f"mode j={j}: {_EXCLUDED_MODE_WARNINGS[kind]}",
                      RuntimeWarning, stacklevel=2)
    tau = np.subtract.outer(np.arange(nt), np.arange(nt))
    phases = np.arange(nx)
    Hk = np.zeros((nx, nt, nt))
    for j in modes["stable"]:
        om = 2 * np.arcsin(np.sqrt(_dispersion(lat, j)) / 2)
        Hk[j] = np.cos(om * tau) / (2 * a * np.sin(om))

    C = np.zeros((nt, nt, nx))
    for j in range(nx):
        k = 2 * np.pi * j / nx
        C += Hk[j][:, :, None] * np.cos(k * phases) / nx
    C = (C + _transposed(C)) / 2  # (H + H^T) / 2
    return Kernel("hadamard", lat, C.astype(complex))


def _hadamard_blocks(lat: Lattice) -> np.ndarray:
    """The blocks of the lattice's Hadamard part, which must be real and
    exactly symmetric."""
    C = lat.hadamard_kernel().blocks
    if not np.array_equal(C, _transposed(C)):
        raise ValueError("Hadamard part must be exactly symmetric")
    if np.max(np.abs(C.imag)) > 0:
        raise ValueError("Hadamard part must be real")
    return C


def _wightman(lat: Lattice) -> Kernel:
    """(i/2) Delta + H."""
    return Kernel("wightman", lat,
                  0.5j * lat.pauli_jordan().blocks + _hadamard_blocks(lat))


def _feynman(lat: Lattice) -> Kernel:
    """(i/2)(A + R) + H."""
    return Kernel("feynman", lat,
                  0.5j * (lat.green_advanced().blocks
                          + lat.green_retarded().blocks)
                  + _hadamard_blocks(lat))


def bisolution_residual(lat: Lattice, K: Kernel) -> float:
    """Interior residual of P applied to K in both arguments: the largest
    |P K| on interior rows and |K P^T| on interior columns (zero for an
    exact bisolution).  Read on the x' = 0 columns, or, when K carries a
    site diagonal, on all columns, one source row of nx at a time."""
    chunks = np.arange(lat.n_sites).reshape(lat.nt, lat.nx)
    if K.diagonal is None:
        chunks = [chunks[:, 0]]
    interior = lat.interior_mask()
    return float(max(
        max(np.max(np.abs(lat.klein_gordon_apply(K.columns(c))[interior])),
            np.max(np.abs(lat.klein_gordon_apply(K.rows(c).T)[interior])))
        for c in chunks))


def _green_identity_residual(lat: Lattice, Gc: np.ndarray, cols) -> float:
    """Largest |P G - 1| on interior rows, from the columns Gc = G[:, cols]."""
    PG = lat.klein_gordon_apply(Gc)
    PG[cols, np.arange(len(cols))] -= 1
    return float(np.max(np.abs(PG[lat.interior_mask()])))


def _in_future(lat: Lattice, a, b) -> np.ndarray:
    """m[i, j]: site a[i] lies in J^+(site b[j]), the unit-speed cone on the
    spatial torus: torus distance <= dt (which also forces dt >= 0)."""
    nx = lat.nx
    dt = a[:, None] // nx - b[None, :] // nx
    wrap = np.abs(a[:, None] % nx - b[None, :] % nx) % nx
    return np.minimum(wrap, nx - wrap) <= dt


def kernel_residuals(lat: Lattice) -> dict:
    """Identity/support/symmetry residual summary for all kernels, read on
    their x' = 0 columns.  The lattice's kernels carry no site diagonal;
    one that does is rejected, as those columns would miss it."""
    n = lat.n_sites
    kernels = R, A, D, H, W, DF = (
        lat.green_retarded(), lat.green_advanced(), lat.pauli_jordan(),
        lat.hadamard_kernel(), lat.wightman(), lat.feynman())
    if any(K.diagonal is not None for K in kernels):
        raise ValueError("kernel_residuals reads no site diagonal")
    c = np.arange(0, n, lat.nx)  # the x' = 0 columns
    Rc, Ac, Dc, Wc, DFc = (K.columns(c) for K in (R, A, D, W, DF))
    Wr = W.rows(c).T
    everywhere = np.arange(n)
    # R[i, j] with site i not in J^+(site j), over the columns read
    cone_leaks = int(np.count_nonzero(~_in_future(lat, everywhere, c)
                                      & (Rc != 0))) * lat.nx
    reciprocity = float(np.max(np.abs(Ac - R.rows(c).T)))
    antisymmetry = float(np.max(np.abs(Dc + D.rows(c).T)))
    h1 = float(np.max(np.abs(2 * Wc.imag - Dc.real)))
    feynman_symmetry = float(np.max(np.abs(DFc - DF.rows(c).T)))
    # column site not in J^+(row site)
    off_future = ~_in_future(lat, c, everywhere).T
    off_future_gap = float(np.max(np.abs((DFc - Wc)[off_future])))
    # (W + W^H) / 2 is block circulant: the FFT over the offset xi of its
    # x' = 0 columns gives its nx Hermitian nt x nt mode blocks
    G = np.fft.fft(((Wc + Wr.conj()) / 2).reshape(lat.nt, lat.nx, lat.nt),
                   axis=1)
    return {
        "green_retarded_identity": _green_identity_residual(lat, Rc, c),
        "green_advanced_identity": _green_identity_residual(lat, Ac, c),
        "reciprocity": reciprocity,
        "cone_support_violations": cone_leaks,
        "pauli_jordan_antisymmetry": antisymmetry,
        "H1_imaginary_part": h1,
        "H2_interior_H": bisolution_residual(lat, H),
        "H2_interior_W": bisolution_residual(lat, W),
        "H3_gram_min_eigenvalue": float(
            np.min(np.linalg.eigvalsh(G.transpose(1, 0, 2)))),
        "feynman_symmetry": feynman_symmetry,
        "feynman_equals_wightman_off_future": off_future_gap,
    }
