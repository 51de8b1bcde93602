"""Deformation quantization on the lattice: star product from the Wightman
two-point kernel, time-ordered product from the Feynman kernel, and the
classical-limit bridges.

Both products expand a polynomial functional pair as

    F . G = sum_r (hbar^r / r!) < F^(r), K^{tensor r} G^(r) >

which, per monomial pair, reduces to a sum over r-subsets of each side's
field slots weighted by a permanent of the kernel submatrix.  The 1/r!
cancels against ordered slot selection, so the implementation sums over
unordered selections and matrix permanents with no factorial division.
Polynomial degree means r <= 8 throughout.

The contraction accumulates flat: the kernel rows of F's sites are read
once per call as Python lists, and each output monomial collects one plain
complex per hbar exponent.  Terms are formed and added in the order, and
with the exact complex operations, of the HbarScalar arithmetic
``acc[key] += (c_F * c_G) * (per * HbarScalar({r: 1}))``; zero terms and
zero sums are dropped the way HbarScalar drops them.  For finite
coefficients the result is bitwise that of the HbarScalar loop, with one
HbarScalar per output monomial built at the end and stored by
_poly_from_flat without a second validation (the keys are sorted merges
of canonical keys).  The r = 0 term is the same loop with the empty
selection, whose permanent is 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .functionals import HBAR_WINDOW, HbarScalar, PolyFunctional
from .lattice import Kernel, Lattice, Region


@functools.cache
def _selections(degree: int, r: int):
    """All (selected, remaining) index-tuple pairs choosing r of `degree` slots."""
    idx = tuple(range(degree))
    out = []
    for sel in itertools.combinations(idx, r):
        sel_set = set(sel)
        rem = tuple(i for i in idx if i not in sel_set)
        out.append((sel, rem))
    return tuple(out)


def _site_selections(key: tuple, r: int):
    """_selections(len(key), r) mapped to the sites of a monomial key."""
    get = key.__getitem__
    return [(tuple(map(get, sel)), tuple(map(get, rem)))
            for sel, rem in _selections(len(key), r)]


def _poly_from_flat(lattice: Lattice, flat: dict) -> PolyFunctional:
    """{sorted in-range key: HbarScalar} grouped by degree, in ascending
    degree order, stored without validation; zero coefficients and the
    degrees left empty are dropped."""
    nested: dict[int, dict] = {}
    for key, coeff in flat.items():
        if coeff.coeffs:
            nested.setdefault(len(key), {})[key] = coeff
    return PolyFunctional._canonical(
        lattice, {d: nested[d] for d in sorted(nested)})


def _permanent(mat) -> complex:
    """Permanent of a small square matrix, given as rows indexable by
    column, by direct permutation sum (r <= 8)."""
    r = len(mat)
    if r == 1:
        return complex(mat[0][0])
    total = 0.0 + 0.0j
    rows = range(r)
    for perm in itertools.permutations(rows):
        p = 1.0 + 0.0j
        for i, j in enumerate(perm):
            p *= mat[i][j]
            if p == 0:
                break
        total += p
    return total


@dataclass(frozen=True)
class StarAlgebraContext:
    """Kernels and conventions for one lattice's quantum algebra.

    wightman drives the star product, feynman the time-ordered one; both
    must share the lattice and satisfy K - (i/2) Delta real and symmetric
    for a Hadamard-type splitting (checked at construction).
    """

    lattice: Lattice
    wightman: Kernel
    feynman: Kernel
    pauli_jordan: Kernel
    max_contraction_order: int | None = None

    def __post_init__(self):
        for k in (self.wightman, self.feynman, self.pauli_jordan):
            if k.lattice != self.lattice:
                raise ValueError("kernels must live on the context lattice")
        h = self.wightman.entries - 0.5j * self.pauli_jordan.entries
        if np.max(np.abs(h.imag)) > 1e-12 or np.max(np.abs(h - h.T)) > 1e-12:
            raise ValueError(
                "wightman minus (i/2) pauli_jordan must be real symmetric")

    @classmethod
    def default(cls, lattice: Lattice) -> "StarAlgebraContext":
        return cls(lattice=lattice,
                   wightman=lattice.wightman(),
                   feynman=lattice.feynman(),
                   pauli_jordan=lattice.pauli_jordan())

    @classmethod
    def from_hadamard(cls, lattice: Lattice, hadamard: np.ndarray
                      ) -> "StarAlgebraContext":
        from .lattice import feynman_from_hadamard, wightman_from_hadamard
        return cls(lattice=lattice,
                   wightman=wightman_from_hadamard(lattice, hadamard),
                   feynman=feynman_from_hadamard(lattice, hadamard),
                   pauli_jordan=lattice.pauli_jordan())

    def _contract(self, F: PolyFunctional, G: PolyFunctional,
                  entries: np.ndarray) -> PolyFunctional:
        """Exponentiated-contraction product of F and G along `entries`."""
        if F.lattice != self.lattice or G.lattice != self.lattice:
            raise ValueError("functionals must live on the context lattice")
        f_monos = list(F.monomials())
        g_monos = list(G.monomials())
        kernel = {s: entries[s].tolist()
                  for s in {s for _d, ka, _c in f_monos for s in ka}}
        lo, hi = HBAR_WINDOW
        picks: dict = {}
        acc: dict = {}
        cap = self.max_contraction_order
        for da, ka, ca in f_monos:
            for db, kb, cb in g_monos:
                rmax = min(da, db)
                if cap is not None:
                    rmax = min(rmax, cap)
                cc = list((ca * cb).coeffs.items())
                for r in range(rmax + 1):
                    shifted = [(e + r, v) for e, v in cc]
                    sels_a = picks.get((ka, r))
                    if sels_a is None:
                        sels_a = picks[ka, r] = _site_selections(ka, r)
                    sels_b = picks.get((kb, r))
                    if sels_b is None:
                        sels_b = picks[kb, r] = _site_selections(kb, r)
                    for sa, rest in sels_a:
                        krows = [kernel[s] for s in sa]
                        for sb, rb in sels_b:
                            if r == 1:
                                per = krows[0][sb[0]]
                            elif r:
                                per = _permanent([[row[s] for s in sb]
                                                  for row in krows])
                            else:
                                per = 1 + 0j
                            if per == 0:
                                continue
                            # the weight HbarScalar({r: 1}) * per, then
                            # cc * weight, each term as HbarScalar forms it
                            w = 0j + (1 + 0j) * per
                            key = tuple(sorted(rest + rb))
                            coeffs = acc.get(key)
                            if coeffs is None:
                                coeffs = acc[key] = {}
                            for e, v in shifted:
                                z = 0j + v * w
                                if z == 0:
                                    continue
                                prev = coeffs.get(e)
                                if prev is None:
                                    if not lo <= e <= hi:
                                        raise ValueError(
                                            f"hbar exponent {e} outside "
                                            f"window {[lo, hi]}")
                                    coeffs[e] = z
                                    continue
                                # HbarScalar addition drops a zero sum; a
                                # later term re-enters it at the end
                                z = prev + z
                                if z == 0:
                                    del coeffs[e]
                                else:
                                    coeffs[e] = z
        # one HbarScalar per output monomial; the keys are sorted merges of
        # canonical keys, so the result is stored without re-validation
        return _poly_from_flat(self.lattice, {
            key: HbarScalar(coeffs) for key, coeffs in acc.items()})

    def star(self, F: PolyFunctional, G: PolyFunctional) -> PolyFunctional:
        """Star product along the Wightman kernel (associative,
        noncommutative; hbar^1 commutator part is i times the Poisson
        bracket)."""
        return self._contract(F, G, self.wightman.entries)

    def time_ordered(self, F: PolyFunctional, G: PolyFunctional
                     ) -> PolyFunctional:
        """Binary time-ordered product along the Feynman kernel
        (commutative and associative since the kernel is symmetric)."""
        return self._contract(F, G, self.feynman.entries)

    def commutator(self, F: PolyFunctional, G: PolyFunctional
                   ) -> PolyFunctional:
        return self.star(F, G) - self.star(G, F)

def beta(F: PolyFunctional, regions: Sequence[Iterable]) -> list:
    """Split a pointwise product of local factors with pairwise disjoint
    supports back into the factors, one per region, in the given order.

    Every monomial key of F is partitioned by region membership; the
    coefficient table must then be rank one across regions (the defining
    property of a product).  Functionals that are not such products, or
    regions that overlap or miss support sites, are rejected.  The overall
    normalization is attached to the first factor.
    """
    if not regions:
        raise ValueError("need at least one region")
    lat = F.lattice
    region_sets = []
    for reg in regions:
        rs = frozenset(lat.site_index(p) for p in reg)
        region_sets.append(rs)
    for i in range(len(region_sets)):
        for j in range(i + 1, len(region_sets)):
            if region_sets[i] & region_sets[j]:
                raise ValueError(f"regions {i} and {j} overlap")
    m = len(region_sets)
    table: dict[tuple, HbarScalar] = {}
    parts_seen: list[set] = [set() for _ in range(m)]
    for _deg, key, coeff in F.monomials():
        parts = [[] for _ in range(m)]
        for s in key:
            hits = [i for i, rs in enumerate(region_sets) if s in rs]
            if not hits:
                raise ValueError(f"site {lat.point(s)} lies in no region")
            parts[hits[0]].append(s)
        split = tuple(tuple(sorted(p)) for p in parts)
        for i in range(m):
            parts_seen[i].add(split[i])
        table[split] = coeff
    n_expected = math.prod(len(p) for p in parts_seen)
    if len(table) != n_expected:
        raise ValueError(
            "functional is not a pointwise product over the regions: "
            "monomial grid is not a full rectangle")
    refs = tuple(min(p) for p in parts_seen)
    c_ref = table[refs]
    inv_ref = _invert_hbar_monomial(c_ref)
    factors = []
    for i in range(m):
        terms: dict[int, dict] = {}
        for part in sorted(parts_seen[i]):
            probe = refs[:i] + (part,) + refs[i + 1:]
            coeff = table[probe]
            if i > 0:
                coeff = coeff * inv_ref
            terms.setdefault(len(part), {})[part] = coeff
        factors.append(PolyFunctional(lat, terms))
    prod = factors[0]
    for g in factors[1:]:
        prod = prod * g
    if (prod - F).max_norm() > 1e-10 * max(1.0, F.max_norm()):
        raise ValueError(
            "functional is not the pointwise product of per-region factors")
    return factors


def _invert_hbar_monomial(c: HbarScalar) -> HbarScalar:
    items = [(e, z) for e, z in c.coeffs.items()]
    if len(items) != 1:
        raise ValueError(
            "cannot normalize factors: reference coefficient is not a "
            "single hbar monomial")
    e, z = items[0]
    return HbarScalar({-e: 1.0 / z})
