"""Generalized local S-matrices on the lattice and the constructive main
theorem of renormalization.

An S-matrix here is the generating series S(lambda f) = 1 +
sum_n (i/hbar)^n lambda^n/n! T_n(f^{tensor n}) built from the time-ordered
product engine.  Renormalization maps Z act by composition on the series
argument; extracted_map inverts that action order by order, at mixed
arguments.  A series at a sum takes the sum as a tuple of parts and
forms it from the parts' mixed values (terms_at_sum).  All axiom
checkers emit report rows {suite, axiom, order, sample-id, residual,
pass} with configurable tolerances.

Causal orientation convention (fixed throughout): f1 comes first, i.e.
supp f1 is not later than supp f2, and factors with later support stand to
the left of star products, so S(f1+f+f2) = S(f2+f) . S(f)^{-1} . S(f+f1).
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .formal_series import (LambdaSeries, MultilinearFamily, compose_SZ,
                            partition_terms, series_multiply, series_invert,
                            series_add, series_scale, terms_at_sum)
from .functionals import (GeneralizedLagrangian, HbarScalar, PolyFunctional,
                          cutoff_lagrangian, is_local_at_scale)
from .lattice import Lattice, LatticePoint, bisolution_residual, field_values
from .relations import check_hammerstein
from .star_algebra import StarAlgebraContext


def prefactor(n: int) -> HbarScalar:
    """(i/hbar)^n weight of the order-n term of the S-matrix series."""
    return HbarScalar({-n: 1j ** n})


def inverse_prefactor(n: int) -> HbarScalar:
    return HbarScalar({n: (-1j) ** n})


def _negate(a: LambdaSeries) -> LambdaSeries:
    return series_scale(a, -1.0)


@dataclass(frozen=True, eq=False)
class SMatrix:
    """Generating series of time-ordered products over one star algebra.

    family maps n to the symmetric multilinear T_n; the (i/hbar)^n weights
    live here, not in the family, so T-values are plain functionals.
    """

    context: StarAlgebraContext
    family: MultilinearFamily

    @classmethod
    def standard(cls, context: StarAlgebraContext) -> "SMatrix":
        def mixed(n, args):
            # T_n = T(T_{n-1}(f_1..f_{n-1}), f_n): the inner value is the
            # memo entry of the shorter product, so each order folds once
            if n == 1:
                return args[0]
            return context.time_ordered(family().mixed(n - 1, args[:-1]),
                                        args[-1])

        fam = MultilinearFamily(evaluate_mixed=mixed)
        # a weak reference, so no cycle keeps a dropped SMatrix, its memo
        # and its context's selection cache alive
        family = weakref.ref(fam)
        return cls(context=context, family=fam)

    @property
    def lattice(self) -> Lattice:
        return self.context.lattice

    def series(self, f, cap: int) -> LambdaSeries:
        """Coefficients of S(lambda f) through lambda^cap, f a functional or
        a tuple of parts that stands for their sum (the empty tuple for
        zero).  Order n is one weighted sum of the terms_at_sum of the
        parts, the term (c, T) weighted prefactor(n) c/n!; one part gives
        T_n(f^{tensor n}) scaled once, by prefactor(n)/n!."""
        parts = f if isinstance(f, tuple) else (f,)
        rows = [PolyFunctional.unit(self.lattice)]
        for n in range(1, cap + 1):
            w, nf = prefactor(n), math.factorial(n)
            rows.append(PolyFunctional.weighted_sum(self.lattice, [
                (w * Fraction(c, nf), t)
                for c, t in terms_at_sum(self.family, n, parts)]))
        return LambdaSeries(cap, tuple(rows))

    def series_on(self, g: LambdaSeries) -> LambdaSeries:
        """S applied to a series-valued argument with vanishing order-0
        part: S(sum_m lambda^m g_m) is (S compose Z)(lambda g_1) for the
        map Z with Z_m(g_1^{tensor m}) = m! g_m."""
        if not g.coeff(0).is_zero():
            raise ValueError("series argument must vanish at order 0")
        Z = RenormalizationMap.from_values(self.lattice, {
            m: g.coeff(m) * math.factorial(m)
            for m in range(2, g.order_cap + 1)})
        return compose(self, Z).series(g.coeff(1), g.order_cap)

    def star_sum(self, pairs) -> PolyFunctional:
        """The sum of F star G over the (F, G) pairs, contracted in one
        accumulator."""
        return self.context.contract_sum(pairs, self.context.wightman)

    def multiply(self, a: LambdaSeries, b: LambdaSeries) -> LambdaSeries:
        return series_multiply(a, b, product_sum=self.star_sum)

    def invert(self, a: LambdaSeries) -> LambdaSeries:
        return series_invert(a, product_sum=self.star_sum,
                             unit=PolyFunctional.unit(self.lattice))


def build_smatrix(lattice: Lattice, site_shift: np.ndarray = None) -> SMatrix:
    """Standard S-matrix for a lattice, optionally over a Hadamard part
    shifted by a real site vector on its diagonal."""
    if site_shift is None:
        ctx = StarAlgebraContext.default(lattice)
    else:
        ctx = StarAlgebraContext.from_site_shift(lattice, site_shift)
    return SMatrix.standard(ctx)


@dataclass(frozen=True, eq=False)
class RenormalizationMap:
    """Formal diffeomorphism Z(lambda f) = lambda f + sum_{n>=2}
    lambda^n/n! Z_n(f^{tensor n}); the family holds the multilinear Z_n
    with Z_1 expected to be the identity (axiom Z4)."""

    family: MultilinearFamily

    @classmethod
    def from_values(cls, lattice: Lattice, vals: dict) -> "RenormalizationMap":
        """Map replaying extracted diagonal values: Z_1 is the identity and
        Z_n(f^{tensor n}) = vals[n] for n >= 2 (zero where absent), whatever
        the argument; valid for the f the values were extracted at."""
        vals = dict(vals)

        def diag(n, g):
            if n == 1:
                return g
            return vals.get(n, PolyFunctional.zero(lattice))

        return cls(MultilinearFamily(evaluate_diagonal=diag))

    def z_series(self, f, cap: int, lattice: Lattice = None) -> LambdaSeries:
        """Coefficients of Z(lambda f) through lambda^cap, f a functional or
        a tuple of parts that stands for their sum (the empty tuple for
        zero) on `lattice`, by default the first part's.  Order n is one
        weighted sum of the terms_at_sum of the parts, the term (c, Z)
        weighted c/n!; one part gives Z_n(f^{tensor n})/n!."""
        parts = f if isinstance(f, tuple) else (f,)
        lat = lattice if lattice is not None else parts[0].lattice
        rows = [PolyFunctional.zero(lat)]
        for n in range(1, cap + 1):
            nf = math.factorial(n)
            rows.append(PolyFunctional.weighted_sum(lat, [
                (Fraction(c, nf), t)
                for c, t in terms_at_sum(self.family, n, parts)]))
        return LambdaSeries(cap, tuple(rows))


def _partial(F: PolyFunctional, site: int) -> PolyFunctional:
    """Symbolic field derivative of F at one site (product rule on
    monomials)."""
    items = []
    for _deg, key, coeff in F.monomials():
        if site in key:
            i = key.index(site)
            items.append((key[:i] + key[i + 1:], coeff * key.count(site)))
    return PolyFunctional.from_terms(F.lattice, items)


def make_handcrafted_Z(lattice: Lattice, kappa, window) -> RenormalizationMap:
    """Local renormalization map with Z_2(F,G) = kappa * sum over window
    sites of (dF/dphi(x))(dG/dphi(x)) and Z_n = 0 for n >= 3.

    Outputs inherit locality from the inputs (derivatives of local
    functionals stay near their sites), so the map passes the Z suite.
    """
    sites = sorted(lattice.site_index(p) for p in window)
    for s in sites:
        t = lattice.point(s).t
        if t == 0 or t == lattice.nt - 1:
            raise ValueError("window must avoid the time boundary rows")

    def mixed(n, args):
        if n == 1:
            return args[0]
        if n == 2:
            F, G = args
            # a site outside either support adds the zero functional
            both = {lattice.site_index(p) for p in F.support() & G.support()}
            acc = PolyFunctional.zero(lattice)
            for s in sites:
                if s in both:
                    acc = acc + _partial(F, s) * _partial(G, s)
            return acc.scaled(kappa)
        return PolyFunctional.zero(lattice)

    return RenormalizationMap(family=MultilinearFamily(evaluate_mixed=mixed))


def compose(S: SMatrix, Z: RenormalizationMap) -> SMatrix:
    """S-matrix (S compose Z).  Its T_n(f_1..f_n) is the set-partition sum
    compose_SZ with the relative weights prefactor(k)/prefactor(n) =
    (hbar/i)^(n-k) on the k-block terms, so the n-block term T_n(f_1..f_n)
    goes in unscaled; mixed values come directly and diagonal ones are
    mixed values at equal arguments.  Requires Z_1 = id (Z4)."""

    def mixed(n, args):
        return compose_SZ(S.family, lambda k: inverse_prefactor(n - k)
                          if k < n else None, Z.family, args)

    return SMatrix(context=S.context,
                   family=MultilinearFamily(evaluate_mixed=mixed))


def extract_Z(S: SMatrix, S_tilde: SMatrix, f: PolyFunctional,
              cap: int) -> dict:
    """Order-by-order values Z_n(f^{tensor n}), n = 1..cap, of the
    renormalization map relating two S-matrices, S_tilde = S compose Z:
    the diagonal values of extracted_map(S, S_tilde, cap), whose
    evaluator holds the extraction formula.  Values are stripped of the
    (i/hbar) weight, so they live in the functional space."""
    fam = extracted_map(S, S_tilde, cap).family
    return {n: fam.diagonal(n, f) for n in range(1, cap + 1)}


# -- sample plans --------------------------------------------------------


def random_local_functional(lattice: Lattice, rng, t_range: tuple,
                            degree: int = 2, column: int = None
                            ) -> PolyFunctional:
    """Unit-preserving random polynomial supported on a 2x2 window whose
    rows lie within t_range (inclusive).  A given `column` fixes the
    window's first column; the column is drawn all the same, so the
    draws that follow do not move."""
    t0 = int(rng.integers(t_range[0], max(t_range[0], t_range[1] - 1) + 1))
    x0 = int(rng.integers(0, lattice.nx))
    if column is not None:
        x0 = column
    return _window_functional(lattice, rng, t0, x0, t_range[1], degree=degree)


class SamplingError(RuntimeError):
    """A sampler found no sample of the asked kind on its lattice."""


def _spacelike_pair(lattice: Lattice, rng, **kw):
    for _ in range(200):
        ta = int(rng.integers(1, lattice.nt - 2))
        tb = int(rng.integers(max(1, ta - 1), min(lattice.nt - 2, ta + 1) + 1))
        xa = int(rng.integers(0, lattice.nx))
        xb = (xa + lattice.nx // 2) % lattice.nx
        f1 = _window_functional(lattice, rng, ta, xa, **kw)
        f2 = _window_functional(lattice, rng, tb, xb, **kw)
        if lattice.spacelike(f1.support(), f2.support()):
            return f1, f2
    raise SamplingError("could not sample a spacelike pair of windows "
                        f"on {lattice.nx} columns in 200 draws")


def _window_functional(lattice: Lattice, rng, t0: int, x0: int,
                       t_last: int = None, degree: int = 2,
                       scale: float = 0.4) -> PolyFunctional:
    """Random polynomial of three monomials of degree 1..degree on the
    2x2 window at (t0, x0), its rows clamped to t_last (default the last
    lattice row) and its columns wrapped."""
    if t_last is None:
        t_last = lattice.nt - 1
    window = [LatticePoint(min(t0 + dt, t_last), (x0 + dx) % lattice.nx)
              for dt in (0, 1) for dx in (0, 1)]
    monos = []
    for _ in range(3):
        d = int(rng.integers(1, degree + 1))
        pts = [window[int(rng.integers(0, len(window)))] for _ in range(d)]
        monos.append((complex(rng.normal() * scale), pts))
    return PolyFunctional.from_monomials(lattice, monos)


def _causal_triple(lattice: Lattice, rng, **kw):
    """(f1, f, f2) with supp f1 not later than supp f2 and a two-row
    margin on both sides of the middle band."""
    nt = lattice.nt
    if nt < 11:
        raise ValueError(
            f"causal triple sampling needs nt >= 11 so the early, middle, "
            f"and late windows fit with their margins, got nt={nt}")
    f1 = _window_functional(lattice, rng, int(rng.integers(1, 3)),
                            int(rng.integers(0, lattice.nx)), **kw)
    fm = _window_functional(lattice, rng, int(rng.integers(4, nt - 6)),
                            int(rng.integers(0, lattice.nx)), **kw)
    f2 = _window_functional(lattice, rng, int(rng.integers(nt - 5, nt - 3)),
                            int(rng.integers(0, lattice.nx)), **kw)
    return f1, fm, f2


def _causal_chain(lattice: Lattice, rng, n: int, **kw):
    """n factors listed latest-first, pairwise strictly row-separated
    (nt >= 11)."""
    starts = [10, 7, 4, 1] if lattice.nt >= 12 else [9, 6, 3, 0]
    return [_window_functional(lattice, rng, t0,
                               int(rng.integers(0, lattice.nx)), **kw)
            for t0 in starts[:n]]


def default_s_plan(lattice: Lattice, seed: int = 0, count: int = 10,
                   cap: int = 3, locality_cap: int = 4, degree: int = 2,
                   series_tol: float = 1e-9,
                   kernel_tol: float = 1e-10) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "cap": cap,
        "locality_cap": locality_cap,
        "series_tol": series_tol,
        "kernel_tol": kernel_tol,
        "singles": [random_local_functional(lattice, rng, (3, lattice.nt - 4),
                                            degree=degree)
                    for _ in range(max(3, count // 2))],
        "spacelike_pairs": [_spacelike_pair(lattice, rng, degree=degree)
                            for _ in range(count)],
        "causal_triples": [_causal_triple(lattice, rng, degree=degree)
                           for _ in range(count)],
        "t1_chains": [_causal_chain(lattice, rng,
                                    int(rng.integers(2, 5)), degree=degree)
                      for _ in range(count)],
    }


def default_z_plan(lattice: Lattice, seed: int = 1, count: int = 6,
                   cap: int = 3, tol: float = 1e-9, degree: int = 2) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "cap": cap,
        "tol": tol,
        "singles": [random_local_functional(lattice, rng, (3, lattice.nt - 4),
                                            degree=degree)
                    for _ in range(max(3, count // 2))],
        "causal_triples": [_causal_triple(lattice, rng, degree=degree)
                           for _ in range(count)],
    }


# -- axiom suites --------------------------------------------------------


def _row(suite: str, axiom: str, order: int, sample_id: str,
         residual: float, tol: float) -> dict:
    return {"suite": suite, "axiom": axiom, "order": order,
            "sample-id": sample_id, "residual": float(residual),
            "pass": bool(residual <= tol)}


def _check_causal_triples(lattice: Lattice, triples) -> None:
    """Reject a plan whose causal triple (f1, f, f2) has f1 later than f2."""
    for i, (f1, _f, f2) in enumerate(triples):
        if not lattice.not_later_than(f1.support(), f2.support()):
            raise ValueError(
                f"malformed plan: causal triple #{i} is not causally "
                "ordered (support of f1 must be not later than support "
                "of f2)")


def check_S_axioms(S: SMatrix, plan: dict) -> list:
    """S1 (unit), S3 (order-1 identity), S2 (causal factorization with
    middle term, plus the pairwise multiplicativity corollary at f = 0,
    both from relations.check_hammerstein on tuples of parts), S4
    (support of series coefficients, exact on the lattice), the locality
    corollary on spacelike pairs, and T1 (two-block causal factorization
    of the time-ordered product)."""
    lat = S.lattice
    cap = int(plan.get("cap", 3))
    loc_cap = int(plan.get("locality_cap", cap))
    series_tol = float(plan.get("series_tol", 1e-9))
    kernel_tol = float(plan.get("kernel_tol", 1e-10))
    triples = plan.get("causal_triples", [])
    pairs = plan.get("spacelike_pairs", [])
    chains = plan.get("t1_chains", [])
    singles = plan.get("singles", [])
    _check_causal_triples(lat, triples)
    for i, (f1, f2) in enumerate(pairs):
        if not lat.spacelike(f1.support(), f2.support()):
            raise ValueError(
                f"malformed plan: pair #{i} is not spacelike separated")
    for i, chain in enumerate(chains):
        for a in range(len(chain)):
            for b in range(a + 1, len(chain)):
                if not lat.not_later_than(chain[b].support(),
                                          chain[a].support()):
                    raise ValueError(
                        f"malformed plan: factor list #{i} is not causally "
                        "ordered (later factors must come first)")
    rows = []
    unit = PolyFunctional.unit(lat)
    zerof = PolyFunctional.zero(lat)
    zser = S.series(zerof, cap)
    for n in range(cap + 1):
        target = unit if n == 0 else zerof
        rows.append(_row("S", "S1", n, "s1",
                         zser.coeff(n).distance(target), kernel_tol))
    for i, f in enumerate(singles):
        res = S.series(f, 1).coeff(1).distance(f * prefactor(1))
        rows.append(_row("S", "S3", 1, f"s3-{i:02d}", res, kernel_tol))
    phi = functools.partial(S.series, cap=cap)
    for i, (f1, fm, f2) in enumerate(triples):
        # S2 at the middle term, then its multiplicativity corollary at 0
        s2 = check_hammerstein(phi, S.multiply, S.invert, (f1,), (f2,),
                               {"s2": (fm,), "mult": ()}, range(1, cap + 1))
        for tag, residuals in s2.items():
            for n, res in enumerate(residuals, start=1):
                rows.append(_row("S", "S2", n, f"{tag}-{i:02d}", res,
                                 series_tol))
        ser1 = S.series(f1, cap)
        ser2 = S.series(f2, cap)
        supp1, supp2 = f1.support(), f2.support()
        for n in range(1, cap + 1):
            viol = lat.count_in_future(ser1.coeff(n).support(), supp2)
            viol += lat.count_in_future(supp1, ser2.coeff(n).support())
            rows.append(_row("S", "S4", n, f"s4-{i:02d}", float(viol), 0.0))
    for i, (f1, f2) in enumerate(pairs):
        a = S.series(f1, loc_cap)
        b = S.series(f2, loc_cap)
        ab, ba = S.multiply(a, b), S.multiply(b, a)
        for n in range(loc_cap + 1):
            rows.append(_row("S", "locality", n, f"loc-{i:02d}",
                             ab.coeff(n).distance(ba.coeff(n)), kernel_tol))
    for i, chain in enumerate(chains):
        n = len(chain)
        full = S.family.mixed(n, chain)
        for k in range(1, n):
            left = S.family.mixed(k, chain[:k]) if k > 1 else chain[0]
            right = S.family.mixed(n - k, chain[k:]) if n - k > 1 \
                else chain[k]
            res = full.distance(S.context.star(left, right))
            rows.append(_row("S", "T1", n, f"t1-{i:02d}-k{k}", res,
                             kernel_tol))
    return rows


def z_axiom_units(Z: RenormalizationMap, lattice: Lattice,
                  plan: dict) -> list:
    """The independent units of check_Z_axioms, in row order: zero-argument
    callables that return rows.  They are a head unit (Z1 and the Z4 rows
    of the singles), one unit per causal triple i (its z3-{i:02d}-* and
    z2-{i:02d}-* rows) and an additivity unit for the singles.  The plan
    is checked here, before any unit runs."""
    lat = lattice
    cap = int(plan.get("cap", 3))
    tol = float(plan.get("tol", 1e-9))
    triples = plan.get("causal_triples", [])
    singles = plan.get("singles", [])
    _check_causal_triples(lat, triples)
    zerof = PolyFunctional.zero(lat)
    phi = functools.partial(Z.z_series, cap=cap, lattice=lat)

    def head():
        zser = Z.z_series(zerof, cap)
        rows = [_row("Z", "Z1", n, "z1", zser.coeff(n).max_norm(), tol)
                for n in range(cap + 1)]
        for i, f in enumerate(singles):
            res = Z.family.diagonal(1, f).distance(f)
            rows.append(_row("Z", "Z4", 1, f"z4-{i:02d}", res, tol))
        return rows

    def triple(i, f1, fm, f2):
        rows = []
        middles = {"gen": (fm,), "f0": ()}
        z3 = check_hammerstein(phi, series_add, _negate, (f1,), (f2,),
                               middles, range(cap + 1))
        supp1, supp2 = f1.support(), f2.support()
        for tag, mid in middles.items():
            for n, res in enumerate(z3[tag]):
                rows.append(_row("Z", "Z3", n, f"z3-{i:02d}-{tag}", res, tol))
            # the relative maps, from the memo entries the identity made
            b, c, d = phi(mid + (f1,)), phi(mid), phi((f2,) + mid)
            for n in range(1, cap + 1):
                rel1 = b.coeff(n) - c.coeff(n)
                rel2 = d.coeff(n) - c.coeff(n)
                viol = lat.count_in_future(rel1.support(), supp2)
                viol += lat.count_in_future(supp1, rel2.support())
                rows.append(_row("Z", "Z2", n, f"z2-{i:02d}-{tag}",
                                 float(viol), 0.0))
        return rows

    def additivity():
        rows = []
        for i, f in enumerate(singles):
            for n in range(2, cap + 1):
                val = Z.family.diagonal(n, f)
                ok, rep = is_local_at_scale(val, radius=2)
                res = float(rep.get("worst_eq11", 0.0))
                row = _row("Z", "additivity", n, f"loc-{i:02d}", res, tol)
                row["pass"] = bool(ok)
                rows.append(row)
        return rows

    return ([head]
            + [functools.partial(triple, i, *t) for i, t in enumerate(triples)]
            + [additivity])


def check_Z_axioms(Z: RenormalizationMap, lattice: Lattice,
                   plan: dict) -> list:
    """Z1 (zero preserving), Z4 (identity at order 1), Z3 (the abelian
    Hammerstein identity: relations.check_hammerstein with series
    addition as the product and negation as the inverse), Z2 (support of
    relative-map coefficients), and membership of the per-order outputs
    in the local functionals (additivity at radius 2).

    Z3 and Z2 are checked both at the sampled middle functional and at
    f = 0 (whose residual the general case should track); the Z2 rows of
    each read the values the identity's sides put in the family memo.
    The rows are those of z_axiom_units, run one after another."""
    return [row for unit in z_axiom_units(Z, lattice, plan)
            for row in unit()]


class _BelowOrder:
    """The map of the extraction's induction at order n: the extracted
    family's values below order n, and zero at order n itself."""

    __slots__ = ("family", "n", "zero")

    def __init__(self, family: MultilinearFamily, n: int,
                 zero: PolyFunctional):
        self.family, self.n, self.zero = family, n, zero

    def mixed(self, k: int, args: Sequence):
        return self.zero if k == self.n else self.family.mixed(k, args)


def extracted_map(S: SMatrix, S_tilde: SMatrix, cap: int
                  ) -> RenormalizationMap:
    """The map Z with S_tilde = S compose Z, orders 1..cap, extracted at
    mixed arguments directly.

    Z_1 is the identity, once the order-1 values of S and S_tilde are
    checked to agree at the argument (S3; a mismatch raises ValueError).
    For n >= 2, the set-partition sum compose_SZ(S, Z) at f_1..f_n is
    prefactor(n) S_tilde.T_n(f_1..f_n), and its one-block term is (i/hbar)
    Z_n(f_1..f_n); with the map's own lower orders and a zero order n it
    misses exactly that term, so Z_n(f_1..f_n) is one weighted sum,
    -i hbar prefactor(n) S_tilde.T_n(f_1..f_n) plus i hbar times each
    weighted term of partition_terms(S, that map).  Nothing polarizes: the
    values at sums come through terms_at_sum as mixed values, and the
    family memo keeps every value for the callers of the map in a
    process."""
    lat = S.lattice
    zero = PolyFunctional.zero(lat)
    ihbar = HbarScalar({1: 1j})

    def mixed(n, args):
        if n > cap:
            raise ValueError(f"the map is extracted through order {cap}, "
                             f"not {n}")
        if n == 1:
            f = args[0]
            t1 = S.family.mixed(1, [f])
            scale = max(1.0, t1.max_norm())
            if S_tilde.family.mixed(1, [f]).distance(t1) > 1e-9 * scale:
                raise ValueError(
                    "order-1 coefficients of the two S-matrices differ (S3 "
                    "is violated); no renormalization map with Z_1 = id "
                    "relates them")
            return f
        terms = partition_terms(S.family, prefactor,
                                _BelowOrder(family(), n, zero), args)
        return PolyFunctional.weighted_sum(lat, [
            (-ihbar * prefactor(n), S_tilde.family.mixed(n, args))]
            + [(ihbar * w, t) for w, t in terms])

    fam = MultilinearFamily(evaluate_mixed=mixed)
    # a weak reference, as in SMatrix.standard: the workers run without
    # the cyclic collector
    family = weakref.ref(fam)
    return RenormalizationMap(fam)


def extracted_locality_units(Z: RenormalizationMap, lattice: Lattice,
                             fs: Sequence[PolyFunctional], cap: int,
                             plan: dict) -> list:
    """The independent units of verify_extracted_locality for the
    extracted map Z (extracted_map), in row order: the z_axiom_units of
    Z, then one multilinearity unit per order n = 2..cap, which compares
    mixed extractions, Z_n(f_0 + f_1, f_1..f_{n-1}) against Z_n(f_0..f_{n-1})
    + Z_n(f_1, f_1..f_{n-1}), for the first n functionals of fs.  A unit
    that runs after others in the same process reuses the values in Z's
    family memo; its rows do not depend on that."""
    if len(fs) < cap:
        raise ValueError(
            f"need at least {cap} functionals to check order {cap}; "
            f"got {len(fs)}")
    fam = Z.family
    tol = float(plan.get("tol", 1e-9))
    scale = max(1.0, max(f.max_norm() for f in fs))

    def multilinearity(n):
        lin_lhs = fam.mixed(n, [fs[0] + fs[1]] + list(fs[1:n]))
        lin_rhs = fam.mixed(n, list(fs[:n])) + \
            fam.mixed(n, [fs[1]] + list(fs[1:n]))
        res = lin_lhs.distance(lin_rhs) / scale
        return [_row("Z", "multilinearity", n, f"polar-{n}", res, tol)]

    return (z_axiom_units(Z, lattice, plan)
            + [functools.partial(multilinearity, n)
               for n in range(2, cap + 1)])


def verify_extracted_locality(S: SMatrix, S_tilde: SMatrix,
                              fs: Sequence[PolyFunctional], cap: int,
                              plan: dict) -> list:
    """Extract the multilinear Z at mixed arguments (extracted_map) and run
    the Z suite on it, plus explicit multilinearity rows over the given
    functionals.  The rows are those of extracted_locality_units of
    extracted_map(S, S_tilde, cap), run one after another.

    Needs at least cap functionals to check order cap."""
    units = extracted_locality_units(extracted_map(S, S_tilde, cap),
                                     S.lattice, fs, cap, plan)
    return [row for unit in units for row in unit()]


# -- Schwinger-Dyson -----------------------------------------------------


def sd_interior_rows(nt: int) -> range:
    """The rows 2..nt-3 that a phi0 of check_schwinger_dyson may touch."""
    return range(2, nt - 2)


def check_schwinger_dyson(S: SMatrix, L: GeneralizedLagrangian,
                          F: PolyFunctional, phi0, cap: int,
                          tol: float = 1e-8) -> list:
    """Dynamical identity S(lambda F) . S(dL(lambda phi0)) =
    S(lambda F(.+lambda phi0) + dL(lambda phi0)) = S(dL(lambda phi0)) .
    S(lambda F), checked per lambda-order.

    With a Wightman kernel that is not an exact bisolution, the residual
    is bounded by 10 x the measured interior wave-equation residual
    instead of tol; rows carry the effective bound."""
    lat = S.lattice
    if L.lattice != lat or F.lattice != lat:
        raise ValueError("Lagrangian and observable must live on the "
                         "S-matrix lattice")
    phi0v = np.asarray(field_values(lat, phi0), dtype=float)
    touched = {lat.point(int(i)).t for i in np.flatnonzero(phi0v)}
    if not touched <= set(sd_interior_rows(lat.nt)):
        raise ValueError(
            "phi0 must be supported on rows 2..nt-3, away from the time "
            "boundary (the bisolution identity only holds on interior rows)")
    # the cutoff check of delta L, and the cutoff Lagrangian the rows expand
    checked = cutoff_lagrangian(L, phi0v)
    zerof = PolyFunctional.zero(lat)
    b_rows = [zerof] * (cap + 1)
    if checked is not None:
        for k, term in enumerate(checked[0].shift_field_series(phi0v)):
            if 1 <= k <= cap:
                b_rows[k] = term
    f_shift = F.shift_field_series(phi0v)
    g_rows = [zerof] * (cap + 1)
    for m in range(1, cap + 1):
        part = f_shift[m - 1] if m - 1 < len(f_shift) else zerof
        g_rows[m] = part + b_rows[m]
    A = S.series(F, cap)
    B = S.series_on(LambdaSeries(cap, tuple(b_rows)))
    M = S.series_on(LambdaSeries(cap, tuple(g_rows)))
    h2 = bisolution_residual(lat, S.context.wightman)
    bound = tol if h2 <= 1e-10 else max(tol, 10.0 * h2)
    rows = []
    left = S.multiply(A, B)
    right = S.multiply(B, A)
    for n in range(cap + 1):
        for sid, prod in (("left", left), ("right", right)):
            res = prod.coeff(n).distance(M.coeff(n))
            row = _row("SD", "S6", n, sid, res, bound)
            row["bound"] = float(bound)
            rows.append(row)
    return rows


# -- interacting observables ---------------------------------------------


@dataclass(frozen=True)
class BiSeries:
    """Doubly truncated series with functional coefficients, graded by
    (lambda-order, mu-order)."""

    lambda_cap: int
    mu_cap: int
    coefficients: dict

    def coeff(self, a: int, b: int) -> PolyFunctional:
        return self.coefficients[(a, b)]


def relative_smatrix(S: SMatrix, V: PolyFunctional, F: PolyFunctional,
                     lambda_cap: int, mu_cap: int) -> BiSeries:
    """S(lambda V)^{-1} star S(lambda V + mu F), bigraded coefficients."""
    lat = S.lattice
    fam = S.family
    mixed = {}
    for a in range(lambda_cap + 1):
        for b in range(mu_cap + 1):
            n = a + b
            if n == 0:
                mixed[(0, 0)] = PolyFunctional.unit(lat)
                continue
            val = fam.mixed(n, [V] * a + [F] * b)
            mixed[(a, b)] = (val * prefactor(n)) * Fraction(
                1, math.factorial(a) * math.factorial(b))
    inv = S.invert(S.series(V, lambda_cap))
    out = {(a, b): S.star_sum([(inv.coeff(a1), mixed[(a - a1, b)])
                               for a1 in range(a + 1)])
           for a in range(lambda_cap + 1) for b in range(mu_cap + 1)}
    return BiSeries(lambda_cap, mu_cap, out)


def interacting_observable(S: SMatrix, V: PolyFunctional,
                           F: PolyFunctional, cap: int) -> LambdaSeries:
    """F_int = -i hbar d/dmu S_{lambda V}(mu F) at mu = 0; the lambda^0
    term is F itself."""
    rel = relative_smatrix(S, V, F, cap, 1)
    weight = HbarScalar({1: -1j})
    rows = tuple(rel.coeff(a, 1) * weight for a in range(cap + 1))
    return LambdaSeries(cap, rows)


def correlation(S: SMatrix, V: PolyFunctional,
                observables: Sequence[PolyFunctional], cap: int
                ) -> LambdaSeries:
    """Star-product chain of interacting observables evaluated at phi = 0:
    the expectation in the quasifree state."""
    phi0 = np.zeros(S.lattice.n_sites)
    ints = [interacting_observable(S, V, F, cap) for F in observables]
    prod = ints[0]
    for nxt in ints[1:]:
        prod = S.multiply(prod, nxt)
    return LambdaSeries(cap, tuple(c.evaluate(phi0)
                                   for c in prod.coefficients))
