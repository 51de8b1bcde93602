"""Polynomial functionals of lattice fields.

Supports, exact field shifts, additivity and locality checks, and
generalized Lagrangians with cutoffs and the variation delta L(psi)
(cutoff_lagrangian).

Representation: a functional is a finite sum of monomials
``coeff * prod phi(p_i)`` stored as ``{degree: {sorted site-index tuple:
HbarScalar}}``.  Multiset keys encode symmetric tensors: the stored value is
the common value of the symmetric tensor at every permutation of the key.

Degree is capped (default 8) at ingestion boundaries only (from_monomials,
densities, JSON).  Products are not capped, and their degree is not
transient: at caps.degree 4, the T-values of orders 3 and 4 reach degree
12 and 16 and are used at that degree.

Canonical form: every key is sorted, its sites are in range and its length
is its degree; every coefficient is a non-zero HbarScalar inside the hbar
window; no degree is empty, and degrees are stored in ascending order.
Three accumulators build every functional, and all end in one tail,
``PolyFunctional._from_sums``, which checks the window, drops zero sums
and stores the canonical form without a second pass.
``PolyFunctional.from_terms`` adds (key, coefficient) items in order: the
constructor, from_monomials, JSON, shift_field_series, poly x poly
products and smatrix_renorm's site derivative.
``PolyFunctional.weighted_sum`` forms every sum of functionals (sums,
differences, negation, scalings, L(f), the series at sums of parts,
compose_SZ, polarization and the extracted map), each coefficient within a stated rounding bound of the exact
sum; ``StarAlgebraContext.contract_sum`` forms contractions.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .lattice import (HBAR_WINDOW, MAX_DEGREE, HbarWindowError, Lattice,
                      LatticePoint, Region, THETA, field_values)


class HbarScalar:
    """Finite Laurent polynomial in hbar with complex coefficients.

    The exponent window (default [-8, 8]) is a guard rail: breaching it
    signals runaway prefactor accounting, so construction raises.

    >>> (HbarScalar({1: 1.0}) * HbarScalar({-1: 1.0})).coeffs
    {0: (1+0j)}
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, complex] | None = None):
        c = {}
        for k, v in (coeffs or {}).items():
            v = complex(v)
            if v != 0:
                c[int(k)] = v
        for k in c:
            if not (HBAR_WINDOW[0] <= k <= HBAR_WINDOW[1]):
                raise HbarWindowError(
                    f"hbar exponent {k} outside window {list(HBAR_WINDOW)}")
        self.coeffs = c

    @classmethod
    def _canonical(cls, coeffs: dict[int, complex]) -> "HbarScalar":
        """Store {int exponent: non-zero complex inside the window} as it
        is; nothing is checked or copied."""
        c = object.__new__(cls)
        c.coeffs = coeffs
        return c

    @staticmethod
    def one() -> "HbarScalar":
        return HbarScalar({0: 1.0})

    @staticmethod
    def coerce(z) -> "HbarScalar":
        if isinstance(z, HbarScalar):
            return z
        return HbarScalar({0: complex(z)})

    def norm(self) -> float:
        """The largest |c|, 0.0 for zero; a NaN coefficient makes it NaN."""
        m = 0.0
        for v in self.coeffs.values():
            a = abs(v)
            if a > m:
                m = a
            elif a != a:
                return a
        return m

    def __add__(self, other):
        try:
            o = HbarScalar.coerce(other)
        except TypeError:
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in o.coeffs.items():
            out[k] = out.get(k, 0j) + v
        return HbarScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return HbarScalar({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        try:
            return self + (-HbarScalar.coerce(other))
        except TypeError:
            return NotImplemented

    def __rsub__(self, other):
        return HbarScalar.coerce(other) - self

    def __mul__(self, other):
        try:
            o = HbarScalar.coerce(other)
        except TypeError:
            return NotImplemented
        out: dict[int, complex] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in o.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0j) + v1 * v2
        return HbarScalar(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (HbarScalar, int, float, complex)):
            return NotImplemented
        return (self - other).norm() == 0.0

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return "HbarScalar(0)"
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.coeffs.items()))
        return f"HbarScalar({{{inner}}})"

    def to_json(self) -> list:
        return [[k, v.real, v.imag] for k, v in sorted(self.coeffs.items())]

    @staticmethod
    def from_json(data) -> "HbarScalar":
        return HbarScalar({int(k): complex(re, im) for k, re, im in data})


class PolyFunctional:
    """Polynomial functional F(phi) with HbarScalar coefficients.

    ``terms`` is ``{degree: {sorted site-index key: HbarScalar}}`` in
    canonical form (see the module docstring).  The constructor checks
    each key's length against its degree and builds through
    ``from_terms``; ``_canonical`` trusts its caller.  Degrees ascend; the
    order of the keys within a degree is part of the value: ``content_key``
    and every later summation follow it.  A functional is not changed
    after it is built, so its content key, a plain tuple, is built once
    and kept.

    >>> lat = Lattice(4, 4, 0.5)
    >>> F = PolyFunctional.from_monomials(lat, [(2.0, [LatticePoint(1, 1)])])
    >>> phi = np.zeros(lat.n_sites); phi[lat.site_index(LatticePoint(1, 1))] = 3.0
    >>> F.evaluate(phi).coeffs
    {0: (6+0j)}
    """

    __slots__ = ("lattice", "terms", "_key")

    def __init__(self, lattice: Lattice,
                 terms: Mapping[int, Mapping[tuple, HbarScalar]] | None = None):
        terms = terms or {}
        for deg, tensor in terms.items():
            for key in tensor:
                if len(key) != deg:
                    raise ValueError(
                        f"key {tuple(sorted(key))} has length != degree {deg}")
        self.lattice, self._key = lattice, None
        self.terms = PolyFunctional.from_terms(lattice, (
            item for t in terms.values() for item in t.items())).terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def _canonical(cls, lattice: Lattice,
                   terms: dict[int, dict[tuple, HbarScalar]]) -> "PolyFunctional":
        """Store terms already in canonical form (module docstring) as
        they are; nothing is checked, sorted or merged."""
        F = object.__new__(cls)
        F.lattice = lattice
        F.terms = terms
        F._key = None
        return F

    @classmethod
    def _from_sums(cls, lattice: Lattice,
                   sums: dict[tuple, dict[int, complex]]) -> "PolyFunctional":
        """The canonical functional of {sorted in-range key: {exponent:
        complex}} coefficient sums, the one tail of from_terms, weighted_sum
        and contract_sum: each exponent is checked against the hbar window,
        zero sums are dropped, and the keys are grouped by ascending
        degree, keeping their order within a degree."""
        lo, hi = HBAR_WINDOW
        terms: dict[int, dict[tuple, HbarScalar]] = {}
        for key, cell in sums.items():
            for e in cell:
                if not lo <= e <= hi:
                    raise HbarWindowError(
                        f"hbar exponent {e} outside window {[lo, hi]}")
            if 0 in cell.values():
                cell = {e: v for e, v in cell.items() if v != 0}
            if cell:
                bucket = terms.setdefault(len(key), {})
                bucket[key] = HbarScalar._canonical(cell)
        return cls._canonical(lattice, {d: terms[d] for d in sorted(terms)})

    @classmethod
    def from_terms(cls, lattice: Lattice, items: Iterable) -> "PolyFunctional":
        """The functional of (site-index key, coefficient) items, in one
        pass: each key is sorted and range-checked, and each coefficient,
        through HbarScalar.coerce, is added in item order into the sums for
        _from_sums.  A zero coefficient adds no key; a key met once keeps
        its coefficient bit for bit."""
        n = lattice.n_sites
        acc: dict[tuple, dict[int, complex]] = {}
        for key, coeff in items:
            key = tuple(sorted(int(i) for i in key))
            if key and (key[0] < 0 or key[-1] >= n):
                bad = next(i for i in key if not 0 <= i < n)
                raise ValueError(f"site index {bad} out of range")
            coeffs = HbarScalar.coerce(coeff).coeffs
            if not coeffs:
                continue
            cell = acc.get(key)
            if cell is None:
                acc[key] = dict(coeffs)
            else:
                for e, v in coeffs.items():
                    cell[e] = cell[e] + v if e in cell else v
        return cls._from_sums(lattice, acc)

    @staticmethod
    def zero(lattice: Lattice) -> "PolyFunctional":
        return PolyFunctional(lattice)

    @staticmethod
    def constant(lattice: Lattice, c) -> "PolyFunctional":
        return PolyFunctional(lattice, {0: {(): c}})

    @staticmethod
    def unit(lattice: Lattice) -> "PolyFunctional":
        return PolyFunctional.constant(lattice, 1.0)

    @staticmethod
    def field_at(lattice: Lattice, p: LatticePoint) -> "PolyFunctional":
        return PolyFunctional(lattice, {1: {(lattice.site_index(p),): HbarScalar.one()}})

    @staticmethod
    def from_monomials(lattice: Lattice,
                       monomials: Iterable[tuple]) -> "PolyFunctional":
        """Ingestion constructor: [(coeff, [LatticePoint...]), ...].

        Enforces the configured degree cap.
        """
        def items():
            for coeff, points in monomials:
                deg = len(points)
                if deg > MAX_DEGREE:
                    raise ValueError(
                        f"monomial degree {deg} exceeds cap {MAX_DEGREE}")
                yield [lattice.site_index(p) for p in points], coeff

        return PolyFunctional.from_terms(lattice, items())

    # -- structure -----------------------------------------------------------

    def degree(self) -> int:
        return max(self.terms, default=0)

    def is_zero(self) -> bool:
        return self.max_norm() == 0.0

    def max_norm(self) -> float:
        """The largest |c| over all coefficients, 0.0 for zero; a NaN
        coefficient makes it NaN."""
        m = 0.0
        for t in self.terms.values():
            for c in t.values():
                for v in c.coeffs.values():
                    a = abs(v)
                    if a > m:
                        m = a
                    elif a != a:
                        return a
        return m

    def distance(self, other: "PolyFunctional") -> float:
        """(self - other).max_norm() bit for bit (x + (-1)y is x - y),
        without building the difference; a NaN coefficient on either side
        makes it NaN.  A coefficient on one side only contributes its |c|,
        which is |c - 0| and |0 - c| bit for bit."""
        if other.lattice is not self.lattice and other.lattice != self.lattice:
            raise ValueError("lattice mismatch")
        a, b = ({k: c.coeffs for t in F.terms.values() for k, c in t.items()}
                for F in (self, other))
        m = 0.0
        for k in a.keys() | b.keys():
            ca, cb = a.get(k), b.get(k)
            if ca is None or cb is None:
                diffs = [abs(v) for v in (ca if cb is None else cb).values()]
            elif ca.keys() == cb.keys():
                diffs = [abs(v - cb[e]) for e, v in ca.items()]
            else:
                diffs = [abs(ca.get(e, 0j) - cb.get(e, 0j))
                         for e in ca.keys() | cb.keys()]
            for d in diffs:
                if d > m:
                    m = d
                elif d != d:
                    return d
        return m

    def support(self) -> Region:
        lat = self.lattice
        sites = {i for deg, t in self.terms.items() if deg >= 1
                 for key in t for i in key}
        return frozenset(lat.point(i) for i in sites)

    def hbar_exponent_range(self) -> tuple[int, int] | None:
        exps = {e for t in self.terms.values() for c in t.values()
                for e in c.coeffs}
        return (min(exps), max(exps)) if exps else None

    def content_key(self) -> tuple:
        """Hashable (lattice, terms) tuple of the lattice and the terms in
        iteration order, built on the first call and returned by every
        later one.

        Equal keys mean equal coefficients met in the same order, so any
        computation over the terms sums them in the same order."""
        if self._key is None:
            self._key = (self.lattice, tuple(
                (deg, tuple((key, tuple(c.coeffs.items()))
                            for key, c in t.items()))
                for deg, t in self.terms.items()))
        return self._key

    def monomials(self):
        for deg in sorted(self.terms):
            for key, coeff in self.terms[deg].items():
                yield deg, key, coeff

    # -- evaluation and calculus ----------------------------------------------

    def evaluate(self, phi) -> HbarScalar:
        return self.evaluate_many([phi])[0]

    def evaluate_many(self, fields) -> list[HbarScalar]:
        """[F(phi) for phi in fields] in one pass over the monomials.

        Each value sums coeff * prod over the monomials in their order, one
        plain complex per exponent: prod is the product of the field
        values from 1.0 + 0j; a zero prod or term adds nothing, and an
        exponent whose sum is zero is dropped."""
        sites = sorted({i for t in self.terms.values() for key in t
                        for i in key})
        local = {s: j for j, s in enumerate(sites)}
        values = [[complex(v) for v in
                   field_values(self.lattice, phi)[sites].tolist()]
                  for phi in fields]
        outs: list[dict] = [{} for _ in values]
        for _deg, key, coeff in self.monomials():
            slots = [local[i] for i in key]
            cs = list(coeff.coeffs.items())
            for vals, out in zip(values, outs):
                prod = 1.0 + 0j
                for j in slots:
                    prod *= vals[j]
                if prod == 0:
                    continue
                for e, c in cs:
                    z = c * prod
                    if z != 0:
                        z = out.get(e, 0j) + z
                        if z != 0:
                            out[e] = z
                        else:
                            del out[e]
        return [HbarScalar._canonical(out) for out in outs]

    def shift_field(self, psi) -> "PolyFunctional":
        """F(. + psi) expanded exactly."""
        return PolyFunctional.weighted_sum(
            self.lattice, [(1, row) for row in self.shift_field_series(psi)])

    def shift_field_series(self, psi) -> list["PolyFunctional"]:
        """Rows of F(. + s*psi) by power of s: row k collects the s^k part.

        shift_field is the row sum (s = 1); the split form feeds series
        arguments whose shift carries the expansion parameter.
        """
        vals = field_values(self.lattice, psi)
        rows: list[list] = [[] for _ in range(self.degree() + 1)]
        for deg, key, coeff in self.monomials():
            counts = Counter(key)
            pts = sorted(counts)
            bounds = [counts[p] for p in pts]
            for m in itertools.product(*(range(b + 1) for b in bounds)):
                k = sum(m)
                factor = 1.0 + 0j
                newkey = []
                for p, n_p, m_p in zip(pts, bounds, m):
                    factor *= math.comb(n_p, m_p)
                    if m_p:
                        factor *= complex(vals[p]) ** m_p
                    newkey.extend([p] * (n_p - m_p))
                if factor == 0:
                    continue
                rows[k].append((newkey, coeff * factor))
        return [PolyFunctional.from_terms(self.lattice, r) for r in rows]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolyFunctional):
            return NotImplemented
        return PolyFunctional.weighted_sum(self.lattice,
                                           [(1, self), (1, other)])

    def __sub__(self, other):
        if not isinstance(other, PolyFunctional):
            return NotImplemented
        return PolyFunctional.weighted_sum(self.lattice,
                                           [(1, self), (-1, other)])

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c) -> "PolyFunctional":
        return PolyFunctional.weighted_sum(self.lattice, [(c, self)])

    @staticmethod
    def weighted_sum(lattice: Lattice, pairs) -> "PolyFunctional":
        """sum of w * F over the (w, F) pairs, in one pass; each weight is
        an HbarScalar, complex, Fraction or int.

        The products v * w are summed, in pair order, into one plain
        {key: {exponent: complex}} dict, which _from_sums makes canonical:
        keys keep their first-insertion order within a degree.  Each
        coefficient is within a rounding bound of the exact sum
        (tests/test_functionals.py)."""
        acc: dict[tuple, dict[int, complex]] = {}
        for w, F in pairs:
            if F.lattice is not lattice and F.lattice != lattice:
                raise ValueError("lattice mismatch")
            ws = list(HbarScalar.coerce(w).coeffs.items())
            if not ws:
                continue
            for t in F.terms.values():
                for key, c in t.items():
                    cell = acc.get(key)
                    if cell is None:
                        cell = acc[key] = {}
                    for e1, v1 in c.coeffs.items():
                        for e2, v2 in ws:
                            e = e1 + e2
                            cell[e] = cell.get(e, 0j) + v1 * v2
        return PolyFunctional._from_sums(lattice, acc)

    def __mul__(self, other):
        if isinstance(other, PolyFunctional):
            if self.lattice != other.lattice:
                raise ValueError("lattice mismatch")
            return PolyFunctional.from_terms(self.lattice, (
                (ka + kb, ca * cb) for _da, ka, ca in self.monomials()
                for _db, kb, cb in other.monomials()))
        return self.scaled(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PolyFunctional):
            return NotImplemented
        return self.lattice == other.lattice and self.distance(other) == 0.0

    __hash__ = None

    def __repr__(self):
        n_mono = sum(len(t) for t in self.terms.values())
        return (f"PolyFunctional(degree={self.degree()}, monomials={n_mono}, "
                f"lattice={self.lattice.nt}x{self.lattice.nx})")

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        lat = self.lattice
        out: dict[str, list] = {}
        for deg in sorted(self.terms):
            rows = []
            for key in sorted(self.terms[deg]):
                coeff = self.terms[deg][key]
                rows.append({
                    "points": [[lat.point(i).t, lat.point(i).x] for i in key],
                    "coeff": coeff.to_json(),
                })
            out[str(deg)] = rows
        return out


def poly_from_json_dict(lattice: Lattice, data: Mapping) -> PolyFunctional:
    """The functional of a to_json_dict mapping from outside the program:
    degrees are capped, and each row has as many points as its degree."""
    def items():
        for deg_s, rows in data.items():
            deg = int(deg_s)
            if deg > MAX_DEGREE:
                raise ValueError(f"degree {deg} exceeds cap {MAX_DEGREE}")
            for row in rows:
                key = [lattice.site_index(LatticePoint(int(t), int(x)))
                       for t, x in row["points"]]
                if len(key) != deg:
                    raise ValueError(
                        f"key {tuple(sorted(key))} has length != degree {deg}")
                yield key, HbarScalar.from_json(row["coeff"])

    return PolyFunctional.from_terms(lattice, items())


# -- locality -------------------------------------------------------------------


def chebyshev_extent(lattice: Lattice, points: Iterable[LatticePoint]) -> int:
    """Max pairwise Chebyshev distance (torus in x) among the points."""
    pts = list(points)
    ext = 0
    for p, q in itertools.combinations(pts, 2):
        ext = max(ext, abs(p.t - q.t), lattice.torus_dist(p.x, q.x))
    return ext


def monomial_extent(F: PolyFunctional) -> int:
    """Largest Chebyshev extent of any monomial of F (0 if none)."""
    lat = F.lattice
    ext = 0
    for deg, key, _coeff in F.monomials():
        if deg >= 2:
            ext = max(ext, chebyshev_extent(lat, [lat.point(i) for i in set(key)]))
    return ext


def check_additivity(F: PolyFunctional, samples, tol: float = 1e-12) -> list[dict]:
    """Residuals of the additivity identity on (phi1, phi2, phi3) samples.

    Checks F(phi1+phi2+phi3) = F(phi1+phi2) + F(phi2+phi3) - F(phi2), and the
    disjoint-additivity reduction (phi2 = 0 on the unit-preserving part of F).
    Samples whose phi1/phi3 supports overlap are flagged ill-formed, not
    checked.  F is evaluated at every field of the call in one pass
    (PolyFunctional.evaluate_many).
    """
    lat = F.lattice
    fields = [np.zeros(lat.n_sites)]
    rows = []
    for i, (phi1, phi2, phi3) in enumerate(samples):
        v1 = field_values(lat, phi1)
        v2 = field_values(lat, phi2)
        v3 = field_values(lat, phi3)
        well_formed = not (set(np.flatnonzero(v1)) & set(np.flatnonzero(v3)))
        rows.append({"sample-id": i, "well-formed": well_formed,
                     "eq11": None, "eq12": None, "pass": False})
        if well_formed:
            fields += [v1 + v2 + v3, v1 + v2, v2 + v3, v2, v1 + v3, v1, v3]
    F0, *values = F.evaluate_many(fields)
    for row in (r for r in rows if r["well-formed"]):
        f123, f12, f23, f2, f13, f1, f3 = values[:7]
        del values[:7]
        row["eq11"] = (f123 - (f12 + f23 - f2)).norm()
        row["eq12"] = ((f13 - F0) - (f1 - F0) - (f3 - F0)).norm()
        row["pass"] = row["eq11"] <= tol and row["eq12"] <= tol
    return rows


def additivity_samples(lattice: Lattice, rng: np.random.Generator, count: int,
                       separation: int) -> list[tuple]:
    """Seeded (phi1, phi2, phi3) triples with supp phi1, phi3 at Chebyshev
    distance >= separation (torus in x) and phi2 supported everywhere."""
    lat = lattice
    out = []
    while len(out) < count:
        h1, w1 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        h3, w3 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        t1 = int(rng.integers(0, lat.nt - h1 + 1))
        x1 = int(rng.integers(0, lat.nx))
        t3 = int(rng.integers(0, lat.nt - h3 + 1))
        x3 = int(rng.integers(0, lat.nx))
        A = [LatticePoint(t1 + dt, (x1 + dx) % lat.nx)
             for dt in range(h1) for dx in range(w1)]
        B = [LatticePoint(t3 + dt, (x3 + dx) % lat.nx)
             for dt in range(h3) for dx in range(w3)]
        dist = min(max(abs(p.t - q.t), lat.torus_dist(p.x, q.x))
                   for p in A for q in B)
        if dist < separation:
            continue
        phi1 = np.zeros(lat.n_sites)
        phi3 = np.zeros(lat.n_sites)
        for p in A:
            phi1[lat.site_index(p)] = rng.standard_normal()
        for p in B:
            phi3[lat.site_index(p)] = rng.standard_normal()
        phi2 = rng.standard_normal(lat.n_sites)
        out.append((phi1, phi2, phi3))
    return out


# is_local_at_scale's sample seed and count, its additivity tolerance, and
# its seeded samples by (nt, nx, separation), their arrays read-only
_LOCALITY_SEED, _LOCALITY_COUNT, _LOCALITY_TOL = 7, 20, 1e-10
_LOCALITY_SAMPLES: dict = {}


def is_local_at_scale(F: PolyFunctional, radius: int = 1) -> tuple[bool, dict]:
    """Membership test for the local class at a declared stencil radius.

    Local means: every monomial has Chebyshev extent <= radius, and the
    additivity identity holds on seeded samples whose phi1/phi3 supports are
    separated by > radius (so no radius-limited stencil straddles both).
    The samples are drawn once per lattice shape and radius.
    """
    ext = monomial_extent(F)
    lat = F.lattice
    key = (lat.nt, lat.nx, radius + 1)
    samples = _LOCALITY_SAMPLES.get(key)
    if samples is None:
        samples = additivity_samples(
            lat, np.random.default_rng(_LOCALITY_SEED), _LOCALITY_COUNT,
            separation=radius + 1)
        for triple in samples:
            for phi in triple:
                phi.setflags(write=False)
        samples = _LOCALITY_SAMPLES[key] = tuple(samples)
    rows = check_additivity(F, samples, tol=_LOCALITY_TOL)
    add_ok = all(r["pass"] for r in rows)
    worst = max((r["eq11"] for r in rows if r["eq11"] is not None), default=0.0)
    ok = ext <= radius and add_ok
    return ok, {"monomial_extent": ext, "radius": radius,
                "additivity_pass": add_ok, "worst_eq11": worst}


# -- Lagrangians -----------------------------------------------------------------


class DensityTerm(NamedTuple):
    """coeff * phi^pow_phi * (forward dt phi)^pow_dt * (forward dx phi)^pow_dx."""

    coeff: complex
    pow_phi: int
    pow_dt: int
    pow_dx: int


@dataclass(frozen=True)
class GeneralizedLagrangian:
    """Map f -> L(f) = sum_sites f(site) * density(site), support preserving.

    Densities use the field value and its forward differences (stencil
    radius 1).  When any term differentiates in time, the density is summed
    over rows t <= nt-2 only (where the forward difference exists), which
    makes the Euler-Lagrange gradient of L(1) equal to the interior wave
    operator for the free density.
    """

    lattice: Lattice
    density: tuple[DensityTerm, ...]
    # {interior row: (t0, density at (t0, 0))}, each built on first use:
    # the rows with a forward time difference (t0 = 0) and the last row
    _templates: dict = field(default_factory=dict, init=False,
                             compare=False, repr=False)

    def __post_init__(self):
        for term in self.density:
            if min(term.pow_phi, term.pow_dt, term.pow_dx) < 0:
                raise ValueError("negative powers in density term")
            if term.pow_phi + term.pow_dt + term.pow_dx > MAX_DEGREE:
                raise ValueError(f"density degree exceeds cap {MAX_DEGREE}")

    def stencil_radius(self) -> int:
        return 1 if any(t.pow_dt or t.pow_dx for t in self.density) else 0

    def _rows(self):
        if any(t.pow_dt for t in self.density):
            return range(self.lattice.nt - 1)
        return range(self.lattice.nt)

    def density_at(self, p: LatticePoint) -> PolyFunctional:
        """The density at site p: the density of p's row type (a row with
        a forward time difference, or the last row), built once per
        Lagrangian at column 0 of the first row of its type, translated to
        p.  Translation moves the sites of every key and keeps the
        coefficients and their order, so it equals the density built at p
        term for term."""
        lat = self.lattice
        lat.site_index(p)
        interior = p.t + 1 < lat.nt
        template = self._templates.get(interior)
        if template is None:
            t0 = 0 if interior else lat.nt - 1
            template = self._templates[interior] = (
                t0, self._build_density(LatticePoint(t0, 0)))
        t0, density = template
        if p.t == t0 and p.x == 0:
            return density
        dt, nx = p.t - t0, lat.nx

        def move(i):
            t, x = divmod(i, nx)
            return (t + dt) * nx + (x + p.x) % nx

        return PolyFunctional._canonical(lat, {
            deg: {tuple(sorted(map(move, key))): c for key, c in t.items()}
            for deg, t in density.terms.items()})

    def _build_density(self, p: LatticePoint) -> PolyFunctional:
        lat = self.lattice
        up_t = LatticePoint(p.t + 1, p.x)
        up_x = LatticePoint(p.t, (p.x + 1) % lat.nx)
        phi = PolyFunctional.field_at(lat, p)
        dt = PolyFunctional.field_at(lat, up_t) - phi if p.t + 1 < lat.nt else None
        dx = PolyFunctional.field_at(lat, up_x) - phi
        parts = []
        for c, np_, ndt, ndx in self.density:
            if ndt and dt is None:
                continue
            acc = PolyFunctional.constant(lat, c)
            for factor in [phi] * np_ + [dt] * ndt + [dx] * ndx:
                acc = acc * factor
            parts.append((1, acc))
        return PolyFunctional.weighted_sum(lat, parts)

    def __call__(self, f) -> PolyFunctional:
        lat = self.lattice
        w = field_values(lat, f)
        points = (LatticePoint(t, x) for t in self._rows()
                  for x in range(lat.nx))
        return PolyFunctional.weighted_sum(lat, [
            (c, self.density_at(p)) for p in points
            if (c := complex(w[lat.site_index(p)])) != 0])


def free_scalar_lagrangian(lattice: Lattice) -> GeneralizedLagrangian:
    """Density (1/2)[(dt phi)^2 - (dx phi)^2] - (m^2/2)[THETA phi^2 +
    (1-THETA) phi phi(t+1)], Lattice.klein_gordon_apply's action: the last
    term, phi dt phi = phi phi(t+1) - phi^2, takes 1-THETA of m^2 back off."""
    m2 = lattice.mass ** 2
    return GeneralizedLagrangian(lattice, (
        DensityTerm(0.5, 0, 2, 0),
        DensityTerm(-0.5, 0, 0, 2),
        DensityTerm(-0.5 * m2, 2, 0, 0),
        DensityTerm(-(1 - THETA) * m2 / 2, 1, 1, 0),
    ))


def _fattened_indicator(lattice: Lattice, sites: set[int], radius: int) -> np.ndarray:
    w = np.zeros(lattice.n_sites)
    for i in sites:
        p = lattice.point(i)
        for dt in range(-radius, radius + 1):
            t = p.t + dt
            if not (0 <= t < lattice.nt):
                continue
            for dx in range(-radius, radius + 1):
                w[lattice.site_index(LatticePoint(t, (p.x + dx) % lattice.nx))] = 1.0
    return w


def cutoff_lagrangian(L: GeneralizedLagrangian, psi_vals: np.ndarray):
    """(L(f), delta L(psi) = L(f)[. + psi] - L(f)) for the cutoff f that is
    1 on the stencil-fattened support of psi; None when psi = 0.

    Cutoff independence is verified against the cutoff one site wider; a
    psi whose fattened support already covers the whole lattice admits no
    compactly supported cutoff and raises.
    """
    lat = L.lattice
    sites = set(int(i) for i in np.flatnonzero(psi_vals))
    if not sites:
        return None
    r = L.stencil_radius()
    f1 = _fattened_indicator(lat, sites, r)
    if np.all(f1 != 0):
        raise ValueError("psi support (stencil-fattened) covers the whole "
                         "lattice; no compactly supported cutoff exists")
    f2 = _fattened_indicator(lat, sites, r + 1)
    L1, L2 = L(f1), L(f2)
    variation = L1.shift_field(psi_vals) - L1
    gap = variation.distance(L2.shift_field(psi_vals) - L2)
    if gap > 1e-12:
        raise ValueError("delta_L depends on the cutoff choice: "
                         f"residual {gap:.3e}")
    return L1, variation
