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
once per context (Kernel.rows, kept as lists in its _row_cache), and each
output monomial collects one plain complex per hbar exponent.  Terms come
out bitwise as the HbarScalar
arithmetic ``acc[key] += (c_F * c_G) * (per * HbarScalar({r: 1}))``
forms them: its steps that can only flip the sign of a zero part (the
``0j +`` and ``(1 + 0j) *`` of the weight and the term) are left out
where the ``0j +`` of a new exponent, or the sum with a stored value,
sets that sign as they would; the r = 2 permanent and the product of two
single-exponent coefficients are formed inline with the operations of
_permanent and HbarScalar.  Zero terms and zero sums are dropped the way
HbarScalar drops them, and each output HbarScalar is stored without a
second validation (its coefficients are non-zero and inside the window,
its key a sorted merge of canonical keys).  The r = 0 term of a pair is
c_F * c_G itself, under the sorted merge of the two keys.

Selections run over distinct site multisets.  A key that repeats a site,
such as (a, a, b), has index selections that pick the same (selected,
remaining) multisets; each distinct pair is enumerated once, at its first
index selection, with its multiplicity, and a term of the pair of
selections with multiplicities ma and mb is the HbarScalar-formed term
times ma * mb.  The selections of a key are cached on the context
(``StarAlgebraContext._selection_cache``, shared by both kernels and freed
with the context); they depend on the key alone, so the cache never
changes a result.  An operand with only degree 0 has only the r = 0 term:
the result is the pointwise product, formed as that term.

For finite coefficients, a product with a constant operand, and a product
whose keys repeat no site, is bitwise what the per-term HbarScalar loop
over every index selection gives: every multiplicity is 1 and the terms
come in that loop's order.  Where a key repeats a site, one weighted term
replaces ma * mb equal terms that the loop meets at different points, so
coefficients differ by rounding, within 1e-14 of the sum of the
magnitudes of their terms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .functionals import (HBAR_WINDOW, HbarScalar, HbarWindowError,
                          PolyFunctional)
from .lattice import Kernel, Lattice, Region, _transposed


@functools.cache
def _selections(degree: int, r: int):
    """All (selected, remaining) index-tuple pairs choosing r of `degree` slots."""
    idx = range(degree)
    return tuple((sel, tuple(i for i in idx if i not in sel))
                 for sel in itertools.combinations(idx, r))


def _site_selections(key: tuple, r: int) -> list:
    """The distinct (selected, remaining) site multisets of the sorted key
    `key` with r sites selected, each with its multiplicity: the number of
    index selections of _selections(len(key), r) that give it.  Ordered by
    first occurrence, so a key without a repeated site gives every index
    selection once, in _selections order."""
    get = key.__getitem__
    counts: dict = {}
    for sel, rem in _selections(len(key), r):
        pair = (tuple(map(get, sel)), tuple(map(get, rem)))
        counts[pair] = counts.get(pair, 0) + 1
    return [(sel, rem, m) for (sel, rem), m in counts.items()]


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
    for perm in itertools.permutations(range(r)):
        p = 1.0 + 0.0j
        for i, j in enumerate(perm):
            p *= mat[i][j]
            if p == 0:
                break
        total += p
    return total


def _product(ca: HbarScalar, cb: HbarScalar) -> list:
    """The (exponent, value) items of ca * cb, with HbarScalar's window
    check; a product of two single exponents is formed inline with
    HbarScalar's operations.  Each value is non-zero and, as a sum started
    at 0j, has no -0.0 part, so the r = 0 term 0j + v * (1 + 0j) is v."""
    a, b = ca.coeffs, cb.coeffs
    if len(a) != 1 or len(b) != 1:
        return list((ca * cb).coeffs.items())
    (ea, va), = a.items()
    (eb, vb), = b.items()
    z = 0j + va * vb
    if z == 0:
        return []
    e = ea + eb
    if not HBAR_WINDOW[0] <= e <= HBAR_WINDOW[1]:
        raise HbarWindowError(
            f"hbar exponent {e} outside window {list(HBAR_WINDOW)}")
    return [(e, z)]


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
    _selection_cache: dict = field(default_factory=dict, init=False,
                                   compare=False, repr=False)
    _row_cache: dict = field(default_factory=dict, init=False,
                             compare=False, repr=False)
    # contractions run to the full order min(deg F, deg G); tracing tools
    # read this attribute
    max_contraction_order = None

    def __post_init__(self):
        for k in (self.wightman, self.feynman, self.pauli_jordan):
            if k.lattice != self.lattice:
                raise ValueError("kernels must live on the context lattice")
        # h = W - (i/2) Delta on the blocks: a site diagonal of W is real
        # and symmetric, one of Delta would make h complex
        h = self.wightman.blocks - 0.5j * self.pauli_jordan.blocks
        if (self.pauli_jordan.diagonal is not None
                or np.max(np.abs(h.imag)) > 1e-12
                or np.max(np.abs(h - _transposed(h))) > 1e-12):
            raise ValueError(
                "wightman minus (i/2) pauli_jordan must be real symmetric")

    @classmethod
    def default(cls, lattice: Lattice) -> "StarAlgebraContext":
        return cls(lattice=lattice,
                   wightman=lattice.wightman(),
                   feynman=lattice.feynman(),
                   pauli_jordan=lattice.pauli_jordan())

    @classmethod
    def from_site_shift(cls, lattice: Lattice, site_shift: np.ndarray
                        ) -> "StarAlgebraContext":
        """The lattice's W and Delta_F with the real site vector
        `site_shift` added to their Hadamard part as a diagonal."""
        W, DF = (Kernel(K.kind, lattice, K.blocks, site_shift)
                 for K in (lattice.wightman(), lattice.feynman()))
        return cls(lattice, W, DF, lattice.pauli_jordan())

    def _contract(self, F: PolyFunctional, G: PolyFunctional,
                  kernel: Kernel) -> PolyFunctional:
        """Exponentiated-contraction product of F and G along `kernel`.

        Each monomial pair sums over the distinct site-multiset selections
        of its keys, each term times the multiplicities of its two
        selections, which are read from and stored in this context's
        _selection_cache; the kernel rows of F's sites are read from and
        stored in its _row_cache.  An operand with only degree 0 gives the
        pointwise product.  The result is bitwise that of the per-term
        loop over every index selection when an operand is constant or no
        key repeats a site, and within rounding otherwise (module
        docstring)."""
        if F.lattice != self.lattice or G.lattice != self.lattice:
            raise ValueError("functionals must live on the context lattice")
        f_monos = list(F.monomials())
        g_monos = list(G.monomials())
        lo, hi = HBAR_WINDOW
        acc: dict = {}
        if not (F.terms.keys() - {0} and G.terms.keys() - {0}):
            # only r = 0 contributes: one output key per monomial pair, and
            # its term 0j + v * (1 + 0j) is v (see _product)
            for _da, ka, ca in f_monos:
                for _db, kb, cb in g_monos:
                    acc[ka + kb] = dict(_product(ca, cb))
            return _poly_from_flat(self.lattice, {
                key: HbarScalar._canonical(coeffs)
                for key, coeffs in acc.items()})
        rows = self._row_cache.setdefault(kernel, {})
        new = list({s for _d, ka, _c in f_monos for s in ka} - rows.keys())
        if new:
            rows.update(zip(new, kernel.rows(new).tolist()))
        # {key: [None or _site_selections(key, r) for r in 0..len(key)]},
        # shared by both kernels
        cache = self._selection_cache
        g_sels = []
        for _db, kb, _cb in g_monos:
            sels = cache.get(kb)
            if sels is None:
                sels = cache[kb] = [None] * (len(kb) + 1)
            g_sels.append(sels)
        for da, ka, ca in f_monos:
            a_sels = cache.get(ka)
            if a_sels is None:
                a_sels = cache[ka] = [None] * (da + 1)
            for (db, kb, cb), b_sels in zip(g_monos, g_sels):
                rmax = min(da, db)
                cc = _product(ca, cb)
                # r = 0: the one empty selection, permanent 1, and the
                # term 0j + v * (1 + 0j) is v
                key = tuple(sorted(ka + kb))
                coeffs = acc.get(key)
                if coeffs is None:
                    coeffs = acc[key] = {}
                for e, z in cc:
                    prev = coeffs.get(e)
                    if prev is None:
                        coeffs[e] = z
                        continue
                    z = prev + z
                    if z == 0:
                        del coeffs[e]
                    else:
                        coeffs[e] = z
                for r in range(1, rmax + 1):
                    shifted = [(e + r, v) for e, v in cc]
                    sels_a = a_sels[r]
                    if sels_a is None:
                        sels_a = a_sels[r] = _site_selections(ka, r)
                    sels_b = b_sels[r]
                    if sels_b is None:
                        sels_b = b_sels[r] = _site_selections(kb, r)
                    for sa, rest, ma in sels_a:
                        krows = [rows[s] for s in sa]
                        for sb, rb, mb in sels_b:
                            if r == 1:
                                per = krows[0][sb[0]]
                            elif r == 2:
                                # _permanent's two permutations, inlined
                                k0, k1 = krows
                                b0, b1 = sb
                                p = (1 + 0j) * k0[b0]
                                if p != 0:
                                    p *= k1[b1]
                                q = (1 + 0j) * k0[b1]
                                if q != 0:
                                    q *= k1[b0]
                                per = 0j + p + q
                            else:
                                per = _permanent([[row[s] for s in sb]
                                                  for row in krows])
                            if per == 0:
                                continue
                            m = ma * mb
                            key = tuple(sorted(rest + rb))
                            coeffs = acc.get(key)
                            if coeffs is None:
                                coeffs = acc[key] = {}
                            # the term 0j + v * (0j + (1 + 0j) * per) of
                            # HbarScalar arithmetic, times m; the two 0j +
                            # and the 1 + 0j change only the signs of zero
                            # parts, which the sum with prev, or 0j + z for
                            # a new exponent, sets to +0.0 as they would
                            for e, v in shifted:
                                z = v * per
                                if m != 1:
                                    z *= m
                                if z == 0:
                                    continue
                                prev = coeffs.get(e)
                                if prev is None:
                                    if not lo <= e <= hi:
                                        raise HbarWindowError(
                                            f"hbar exponent {e} outside "
                                            f"window {[lo, hi]}")
                                    coeffs[e] = 0j + z
                                    continue
                                # HbarScalar addition drops a zero sum; a
                                # later term re-enters it at the end
                                z = prev + z
                                if z == 0:
                                    del coeffs[e]
                                else:
                                    coeffs[e] = z
        # one HbarScalar per output monomial; its coefficients are non-zero
        # and inside the window, and the keys are sorted merges of canonical
        # keys, so nothing is validated again
        return _poly_from_flat(self.lattice, {
            key: HbarScalar._canonical(coeffs)
            for key, coeffs in acc.items()})

    def star(self, F: PolyFunctional, G: PolyFunctional) -> PolyFunctional:
        """Star product along the Wightman kernel (associative,
        noncommutative; hbar^1 commutator part is i times the Poisson
        bracket)."""
        return self._contract(F, G, self.wightman)

    def time_ordered(self, F: PolyFunctional, G: PolyFunctional
                     ) -> PolyFunctional:
        """Binary time-ordered product along the Feynman kernel
        (commutative and associative since the kernel is symmetric)."""
        return self._contract(F, G, self.feynman)

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
    region_sets = [frozenset(map(lat.site_index, reg)) for reg in regions]
    for (i, a), (j, b) in itertools.combinations(enumerate(region_sets), 2):
        if a & b:
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
