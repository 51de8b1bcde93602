"""Deformation quantization on the lattice: star product from the Wightman
two-point kernel and time-ordered product from the Feynman kernel.

Both products expand a polynomial functional pair as

    F . G = sum_r (hbar^r / r!) < F^(r), K^{tensor r} G^(r) >

which, per monomial pair, reduces to a sum over r-subsets of each side's
field slots weighted by a permanent of the kernel submatrix.  The 1/r!
cancels against ordered slot selection, so the implementation sums over
unordered selections and matrix permanents with no factorial division.
Polynomial degree means r <= 8 throughout.

Selections run over distinct site multisets.  A key that repeats a site,
such as (a, a, b), has index selections that pick the same (selected,
remaining) multisets; each distinct pair is enumerated once, with its
multiplicity (_site_selections).  The selections of a key are cached on
the context (``StarAlgebraContext._selection_cache``, shared by both
kernels and freed with the context).

The contraction is factorized on the sites selected from F: a term reads
only the kernel rows of the r sites sa that it selects from F's key, so
G's side is summed once per distinct sa,

    D[sa] = {rest_b: sum over G's monomials and selections sb of
             perm(K[sa, sb]) * m_b * c_b * hbar^r},

and every F monomial that selects sa, with multiplicity m_a and remainder
rest_a, adds m_a * c_a * D[sa][rest_b] under the sorted merge of rest_a
and rest_b.  The r = 0 terms are the pointwise products c_a * c_b, so a
constant operand needs no branch of its own.  The kernel rows of F's
sites are read once per context (Kernel.rows, kept as lists in its
_row_cache).  The sums end in PolyFunctional._from_sums, the one
canonicalizing tail of contractions and weighted sums: each exponent that
a term of the result reaches is checked against the hbar window (an
exponent of D past it is no error unless a term of the result lands
there), and zero sums are dropped.

There is one contraction entry, StarAlgebraContext.contract_sum: it
contracts a list of (F, G) pairs along one kernel into one accumulator
and returns their summed products as one functional.  star and
time_ordered are its one-pair case.  A series coefficient
sum_k a_k . b_(n-k) is one such sum (formal_series), so its products are
neither built one by one nor added up afterwards.  D[sa] belongs to one
pair's G, so each pair forms its own.

Each coefficient sums the terms of the per-term loop over every index
selection (of every pair, for a sum), grouped and ordered differently, so
the two differ by rounding only.  tests/test_star_algebra.py checks every
coefficient against the same contraction (summed over the pairs) in exact
Gaussian-rational arithmetic on the same float kernel entries and
coefficients: |float - exact| <= 32 * 2^-53 * sum|terms| + 2^-1064, where
|term| = |c_a| |c_b| perm(|K[sa, sb]|) and the floor covers sums in the
subnormal range.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .functionals import PolyFunctional
from .lattice import Kernel, Lattice, _transposed


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


def _permanent(rows: list, cols: tuple) -> complex:
    """Permanent of the r x r matrix rows[i][cols[j]] (r <= 8): its one
    entry, the two products, or the sum over every permutation."""
    if len(cols) == 1:
        return rows[0][cols[0]]
    if len(cols) == 2:
        (a, b), (i, j) = rows, cols
        return a[i] * b[j] + a[j] * b[i]
    return sum(math.prod(row[c] for row, c in zip(rows, perm))
               for perm in itertools.permutations(cols))


def _g_contraction(krows: list, g_sel: dict) -> list:
    """G's contraction with the kernel rows `krows` of one r-site multiset
    sa selected from F: [(rest_b, exponent, value)], the sums of
    perm(K[sa, sb]) * m_b * c_b * hbar^r over the {sb: [(rest_b,
    [(e_b + r, m_b * c_b)])]} selections `g_sel` of G's monomials, zero
    sums dropped."""
    d: dict = {}
    for sb, entries in g_sel.items():
        per = _permanent(krows, sb)
        if per == 0:
            continue
        for rb, cb in entries:
            for e, v in cb:
                d[rb, e] = d.get((rb, e), 0) + per * v
    return [(rb, e, v) for (rb, e), v in d.items() if v != 0]


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

    def _key_selections(self, key: tuple, r: int) -> list:
        """_site_selections(key, r), kept in this context's
        _selection_cache: {key: [None or the selections of r sites, for r
        in 0..len(key)]}, shared by both kernels."""
        sels = self._selection_cache.get(key)
        if sels is None:
            sels = self._selection_cache[key] = [None] * (len(key) + 1)
        if sels[r] is None:
            sels[r] = _site_selections(key, r)
        return sels[r]

    def _g_selections(self, monos: list, g_max: int) -> list:
        """sel[r], for r in 1..g_max, of the right operand's monomials
        [(degree, key, [(e, c)])]: {sb: [(rest_b, [(e_b + r, m_b * c_b)])]}
        over the monomials of degree >= r (sel[0] is None)."""
        selections = self._key_selections
        sel = [None]
        for r in range(1, g_max + 1):
            by_sb: dict = {}
            for db, kb, cb in monos:
                if db >= r:
                    for sb, rb, mb in selections(kb, r):
                        by_sb.setdefault(sb, []).append(
                            (rb, [(e + r, mb * v) for e, v in cb]))
            sel.append(by_sb)
        return sel

    def contract_sum(self, pairs: Iterable, kernel: Kernel
                     ) -> PolyFunctional:
        """Sum of the exponentiated-contraction products of the (F, G)
        pairs along `kernel`, summed in one accumulator.

        For each pair, the r = 0 terms are the pointwise products of every
        monomial pair.  For r >= 1, G's contraction D[sa] with each
        distinct r-site multiset sa that F's keys select is formed once,
        and every F monomial that selects sa adds its coefficient, times
        the multiplicity, times D[sa] (module docstring).  Selections are
        read from and stored in this context's _selection_cache, the
        kernel rows of F's sites in its _row_cache.  The sums go through
        PolyFunctional._from_sums, the tail weighted sums share: zero
        coefficients are dropped and each exponent of the sum is checked
        against the hbar window."""
        lat = self.lattice
        rows = self._row_cache.setdefault(kernel, {})
        selections = self._key_selections
        acc: dict = {}
        for F, G in pairs:
            if F.lattice != lat or G.lattice != lat:
                raise ValueError(
                    "functionals must live on the context lattice")
            g_monos = [(db, kb, list(cb.coeffs.items()))
                       for db, kb, cb in G.monomials()]
            f_monos = [(da, ka, list(ca.coeffs.items()))
                       for da, ka, ca in F.monomials()]
            for _da, ka, ca in f_monos:
                for _db, kb, cb in g_monos:
                    key = tuple(sorted(ka + kb)) if ka and kb else ka or kb
                    coeffs = acc.get(key)
                    if coeffs is None:
                        coeffs = acc[key] = {}
                    for ea, va in ca:
                        for eb, vb in cb:
                            e = ea + eb
                            coeffs[e] = coeffs.get(e, 0) + va * vb
            g_max = max(G.terms, default=0)
            if not g_max or not max(F.terms, default=0):
                continue
            g_sel = self._g_selections(g_monos, g_max)
            new = list({s for _d, ka, _c in f_monos for s in ka}
                       - rows.keys())
            if new:
                rows.update(zip(new, kernel.rows(new).tolist()))
            D: dict = {}
            for da, ka, ca in f_monos:
                for r in range(1, min(da, g_max) + 1):
                    for sa, rest_a, ma in selections(ka, r):
                        d = D.get(sa)
                        if d is None:
                            d = D[sa] = _g_contraction(
                                [rows[s] for s in sa], g_sel[r])
                        mca = ca if ma == 1 else [(e, ma * v) for e, v in ca]
                        for rb, ed, vd in d:
                            key = (tuple(sorted(rest_a + rb)) if rest_a and rb
                                   else rest_a or rb)
                            coeffs = acc.get(key)
                            if coeffs is None:
                                coeffs = acc[key] = {}
                            for ea, va in mca:
                                e = ea + ed
                                coeffs[e] = coeffs.get(e, 0) + va * vd
        return PolyFunctional._from_sums(lat, acc)

    def star(self, F: PolyFunctional, G: PolyFunctional) -> PolyFunctional:
        """Star product along the Wightman kernel (associative,
        noncommutative; hbar^1 commutator part is i times the Poisson
        bracket)."""
        return self.contract_sum(((F, G),), self.wightman)

    def time_ordered(self, F: PolyFunctional, G: PolyFunctional
                     ) -> PolyFunctional:
        """Binary time-ordered product along the Feynman kernel
        (commutative and associative since the kernel is symmetric)."""
        return self.contract_sum(((F, G),), self.feynman)
