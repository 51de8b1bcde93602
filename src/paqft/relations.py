"""Locality and causality relation algebra over finite carrier sets.

Relations are predicates over an explicit finite universe (a sample window
when the true carrier is infinite).  Structure invariants are computed,
not assumed: constructors never raise on a broken relation, so checkers
can receive deliberately broken inputs and report the violations.
Universe elements are opaque and may be unhashable; membership is by
identity first, then equality.

hammerstein_sides is the one place the generalized Hammerstein identity
is formed; check_hammerstein and the S2, multiplicativity and Z3 rows of
the S and Z suites all evaluate it there.  They pass tuples of parts, so
the four sums of the identity are tuple concatenations and phi forms each
value at a sum from the mixed values of its parts, which the sides share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


class BinaryRelation:
    """A binary relation on a finite indexed universe.

    Exactly one of `holds` (a predicate on element pairs) or `pairs`
    (an explicit set of related element pairs) must be given.
    """

    def __init__(self, universe: Sequence, holds: Callable = None,
                 pairs: Iterable[tuple] = None):
        self.universe = tuple(universe)
        if (holds is None) == (pairs is None):
            raise ValueError("give exactly one of holds= or pairs=")
        if holds is not None:
            self._pred = holds
        else:
            idx_pairs = set()
            for x, y in pairs:
                idx_pairs.add((self.index(x), self.index(y)))
            self._pairs = frozenset(idx_pairs)
            self._pred = lambda a, b: (self.index(a), self.index(b)) in self._pairs

    def index(self, x) -> int:
        for i, u in enumerate(self.universe):
            if u is x:
                return i
        for i, u in enumerate(self.universe):
            if _safe_eq(u, x):
                return i
        raise ValueError("element is not in the relation's universe")

    def contains(self, x) -> bool:
        try:
            self.index(x)
            return True
        except ValueError:
            return False

    def predicate(self, x, y) -> bool:
        """Raw predicate, no domain check (used by checkers that probe
        elements produced by group operations outside the sample window)."""
        return bool(self._pred(x, y))

    def holds(self, x, y) -> bool:
        if not self.contains(x) or not self.contains(y):
            raise ValueError("element is not in the relation's universe")
        return bool(self._pred(x, y))

    def pair_indices(self) -> frozenset:
        """Materialized index-pair set, for exhaustive checks."""
        n = len(self.universe)
        return frozenset((i, j) for i in range(n) for j in range(n)
                         if self._pred(self.universe[i], self.universe[j]))


def _safe_eq(a, b) -> bool:
    try:
        return bool(a == b)
    except Exception:
        return False


@dataclass(frozen=True)
class LocalityStructure:
    """A relation intended to be symmetric (independence, x perp y)."""

    relation: BinaryRelation

    def invariant_violations(self) -> list:
        out = []
        u = self.relation.universe
        for i in range(len(u)):
            for j in range(i + 1, len(u)):
                if self.relation.predicate(u[i], u[j]) != \
                        self.relation.predicate(u[j], u[i]):
                    out.append(f"not symmetric at pair (#{i}, #{j})")
        return out


@dataclass(frozen=True)
class CausalityStructure:
    """A relation intended to be negation-reflexive and not symmetric
    (precedence, x comes before y).

    check_asymmetric_pair can be disabled to lift an already symmetric
    relation through this wrapper (used when re-symmetrizing).
    """

    relation: BinaryRelation
    check_asymmetric_pair: bool = True

    def invariant_violations(self, exempt: tuple = ()) -> list:
        out = []
        u = self.relation.universe
        for i, x in enumerate(u):
            if any(x is e or _safe_eq(x, e) for e in exempt):
                continue
            if self.relation.predicate(x, x):
                out.append(f"negation of the relation is not reflexive at #{i}")
        if self.check_asymmetric_pair and len(u) >= 2:
            found = any(
                self.relation.predicate(u[i], u[j]) and
                not self.relation.predicate(u[j], u[i])
                for i in range(len(u)) for j in range(len(u)) if i != j)
            if not found:
                out.append("relation is symmetric: no asymmetric pair exists")
        return out


def _check_subset(U, universe_rel: BinaryRelation):
    for x in U:
        if not universe_rel.contains(x):
            raise ValueError("polar argument contains an element outside "
                             "the universe")


def polar(U: Iterable, structure: LocalityStructure) -> list:
    """{x in universe | x perp y for all y in U}; polar of the empty set is
    the whole universe."""
    rel = structure.relation
    U = list(U)
    _check_subset(U, rel)
    return [x for x in rel.universe if all(rel.predicate(x, y) for y in U)]


def polar_left(U: Iterable, structure: CausalityStructure) -> list:
    """{x | x comes before every y in U}."""
    rel = structure.relation
    U = list(U)
    _check_subset(U, rel)
    return [x for x in rel.universe if all(rel.predicate(x, y) for y in U)]


def polar_right(U: Iterable, structure: CausalityStructure) -> list:
    """{x | every y in U comes before x}."""
    rel = structure.relation
    U = list(U)
    _check_subset(U, rel)
    return [x for x in rel.universe if all(rel.predicate(y, x) for y in U)]


def mutually_independent(elements: Sequence,
                         structure: LocalityStructure) -> bool:
    """True iff all distinct pairs are related; empty and singleton tuples
    are vacuously independent."""
    rel = structure.relation
    els = list(elements)
    for i in range(len(els)):
        for j in range(len(els)):
            if i != j and not rel.predicate(els[i], els[j]):
                return False
    return True


def symmetrize(structure: CausalityStructure) -> LocalityStructure:
    """Spacelike relation of a precedence: x perp y iff x before y and
    y before x both hold."""
    rel = structure.relation
    sym = BinaryRelation(
        rel.universe,
        holds=lambda x, y: rel.predicate(x, y) and rel.predicate(y, x))
    return LocalityStructure(sym)


def check_group_with_causality(add: Callable, zero,
                               structure: CausalityStructure) -> dict:
    """Compatibility of a group law with a precedence relation.

    Verifies, over the structure's universe: x1 before y and x2 before y
    imply add(x1,x2) before y; the mirrored condition; and that the unit
    precedes and succeeds everything.  Structure invariants are also
    reported (the unit itself is exempt from negation-reflexivity, since
    the unit-polar condition forces it to relate to itself).  The report
    lists all violations; pass means every list is empty.
    """
    rel = structure.relation
    u = rel.universe
    structure_violations = structure.invariant_violations(exempt=(zero,))
    compat = []
    for i, x1 in enumerate(u):
        for j, x2 in enumerate(u):
            for k, y in enumerate(u):
                if rel.predicate(x1, y) and rel.predicate(x2, y) and \
                        not rel.predicate(add(x1, x2), y):
                    compat.append(
                        f"left compatibility fails: #{i},#{j} before #{k} "
                        f"but their sum is not")
                if rel.predicate(y, x1) and rel.predicate(y, x2) and \
                        not rel.predicate(y, add(x1, x2)):
                    compat.append(
                        f"right compatibility fails: #{k} before #{i},#{j} "
                        f"but not before their sum")
    unit_polar = []
    for i, x in enumerate(u):
        if not rel.predicate(zero, x):
            unit_polar.append(f"unit does not precede #{i}")
        if not rel.predicate(x, zero):
            unit_polar.append(f"#{i} does not precede the unit")
    report = {
        "structure": structure_violations,
        "compatibility": compat,
        "unit-polar": unit_polar,
    }
    report["pass"] = not (structure_violations or compat or unit_polar)
    return report


def check_group_with_locality(add: Callable, zero,
                              structure: LocalityStructure,
                              subsets: Sequence[Sequence] = None) -> dict:
    """Compatibility of a group law with an independence relation, checked
    on sampled polar sets: for each sampled U, elements of the polar of U
    that are mutually independent must sum back into the polar; and the
    polar of the unit is the whole universe.

    Whether the polar condition must hold for every subset or only
    generators is left open upstream; this checks all sampled U.
    """
    rel = structure.relation
    u = rel.universe
    if subsets is None:
        subsets = [[]] + [[x] for x in u]
    structure_violations = structure.invariant_violations()
    polar_viol = []
    for si, U in enumerate(subsets):
        pol = polar(U, structure)
        for i, x in enumerate(pol):
            for j, y in enumerate(pol):
                if i == j or not rel.predicate(x, y):
                    continue
                s = add(x, y)
                if not all(rel.predicate(s, v) for v in U):
                    polar_viol.append(
                        f"subset #{si}: sum of independent polar elements "
                        f"leaves the polar")
    unit_polar = []
    for i, x in enumerate(u):
        if not rel.predicate(zero, x):
            unit_polar.append(f"unit is not independent of #{i}")
    report = {
        "structure": structure_violations,
        "polar-closure": polar_viol,
        "unit-polar": unit_polar,
    }
    report["pass"] = not (structure_violations or polar_viol or unit_polar)
    return report


def _default_distance(a, b) -> float:
    if hasattr(a, "distance"):
        return float(a.distance(b))
    diff = a - b
    if hasattr(diff, "norm"):
        return float(diff.norm())
    return abs(diff)


def hammerstein_sides(phi: Callable, add: Callable, mult: Callable,
                      inverse: Callable, f1, f, f2) -> tuple:
    """(lhs, rhs) of the generalized Hammerstein identity, for f1 preceding
    (or independent of) f2:

        phi(f1 + f + f2) = phi(f2 + f) . phi(f)^{-1} . phi(f + f1)

    S2 is the case phi = S over star-product series, its multiplicativity
    corollary the same at f = 0; Z3 is the abelian case mult = +.  The
    arguments may be tuples of parts with add the concatenation and () the
    zero: phi then evaluates at sums it is given as parts (SMatrix.series,
    RenormalizationMap.z_series), and the four sides, (f1, f, f2),
    (f2, f), (f) and (f, f1), share the mixed values of their parts.
    """
    lhs = phi(add(add(f1, f), f2))
    rhs = mult(mult(phi(add(f2, f)), inverse(phi(f))), phi(add(f, f1)))
    return lhs, rhs


def check_hammerstein(phi: Callable, add: Callable, zero,
                      mult: Callable, inverse: Callable,
                      precedes: Callable, samples: Sequence[tuple],
                      distance: Callable = None, tol: float = 1e-9) -> list:
    """hammerstein_sides on each sample (f1, f, f2), for a map phi from an
    additive carrier to a (possibly noncommutative) multiplicative target.

    Each row reports the residual at f ("hammerstein") and at f = zero
    ("padd", disjoint additivity of the pair), so padd holds whenever the
    full property does.  Samples whose f1 does not precede f2
    (precedes(f1, f2), a causality structure's relation.predicate) are
    flagged as rejected, not silently checked.
    """
    dist = distance if distance is not None else _default_distance
    rows = []
    for sid, (f1, f, f2) in enumerate(samples):
        if not precedes(f1, f2):
            rows.append({"sample-id": sid, "rejected": True,
                         "hammerstein": None, "padd": None, "pass": False})
            continue
        ham, padd = (dist(*hammerstein_sides(phi, add, mult, inverse,
                                             f1, mid, f2))
                     for mid in (f, zero))
        rows.append({"sample-id": sid, "rejected": False, "hammerstein": ham,
                     "padd": padd, "pass": ham <= tol and padd <= tol})
    return rows
