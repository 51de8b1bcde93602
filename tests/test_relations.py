import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paqft.relations import (BinaryRelation, CausalityStructure,
                             LocalityStructure, check_group_with_causality,
                             check_group_with_locality, check_hammerstein,
                             hammerstein_sides, mutually_independent, polar, polar_left,
                             polar_right, symmetrize)


def _rel_from_pairs(universe, pairs):
    return BinaryRelation(universe, pairs=frozenset(pairs))


# -- BinaryRelation ------------------------------------------------------


def test_constructor_needs_exactly_one_source():
    with pytest.raises(ValueError, match="exactly one"):
        BinaryRelation([0, 1], holds=lambda a, b: True, pairs=frozenset())
    with pytest.raises(ValueError, match="exactly one"):
        BinaryRelation([0, 1])


def test_membership_and_domain():
    rel = BinaryRelation([0, 1, 2], holds=lambda a, b: a < b)
    assert rel.holds(0, 2)
    assert not rel.holds(2, 0)
    with pytest.raises(ValueError, match="not in the relation's universe"):
        rel.holds(0, 5)
    assert rel.predicate(0, 5)  # raw predicate skips the domain check


def test_membership_identity_then_equality():
    a = [1, 2]
    b = [1, 2]  # equal but not identical; also unhashable
    rel = BinaryRelation([a, [3]], holds=lambda x, y: True)
    assert rel.contains(a)
    assert rel.contains(b)
    assert rel.index(b) == 0
    assert not rel.contains([9])


def test_pairs_constructor_and_materialization():
    rel = _rel_from_pairs([0, 1, 2], {(0, 1), (1, 2)})
    assert rel.holds(0, 1) and not rel.holds(1, 0)
    assert rel.pair_indices() == frozenset({(0, 1), (1, 2)})


# -- structures ----------------------------------------------------------


def test_locality_structure_valid_and_violation():
    u = [0, 1, 2]
    ok = LocalityStructure(_rel_from_pairs(u, {(0, 1), (1, 0)}))
    assert ok.invariant_violations() == []
    bad = LocalityStructure(_rel_from_pairs(u, {(0, 1)}))
    msgs = bad.invariant_violations()
    assert msgs and "not symmetric" in msgs[0]


def test_causality_structure_valid_and_violations():
    u = [0, 1, 2]
    lt = BinaryRelation(u, holds=lambda a, b: a < b)
    assert CausalityStructure(lt).invariant_violations() == []
    refl = BinaryRelation(u, holds=lambda a, b: a <= b)
    msgs = CausalityStructure(refl).invariant_violations()
    assert any("not reflexive" in m for m in msgs)
    sym = BinaryRelation(u, holds=lambda a, b: a != b)
    msgs2 = CausalityStructure(sym).invariant_violations()
    assert any("no asymmetric pair" in m for m in msgs2)


def test_symmetrize_and_lift():
    u = [0, 1, 2, 3]
    lt = CausalityStructure(BinaryRelation(u, holds=lambda a, b: a < b))
    loc = symmetrize(lt)
    assert loc.invariant_violations() == []
    # AND semantics: x < y and y < x never both hold
    assert loc.relation.pair_indices() == frozenset()
    indep = CausalityStructure(
        BinaryRelation(u, holds=lambda a, b: abs(a - b) >= 2),
        check_asymmetric_pair=False)
    loc2 = symmetrize(indep)
    assert loc2.relation.holds(0, 2) and loc2.relation.holds(2, 0)


# -- polars --------------------------------------------------------------


def test_polar_basics():
    u = [0, 1, 2, 3]
    loc = LocalityStructure(
        BinaryRelation(u, holds=lambda a, b: abs(a - b) >= 2))
    assert set(polar([0], loc)) == {2, 3}
    assert set(polar([], loc)) == set(u)
    with pytest.raises(ValueError, match="outside the universe"):
        polar([7], loc)
    caus = CausalityStructure(BinaryRelation(u, holds=lambda a, b: a < b))
    assert set(polar_left([2], caus)) == {0, 1}
    assert set(polar_right([2], caus)) == {3}


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 4)), st.sets(st.integers(0, 4)),
       st.integers(0, 2 ** 25 - 1))
def test_polar_antitone(U, extra, bits):
    u = list(range(5))
    table = {(a, b): bool((bits >> (5 * a + b)) & 1) for a in u for b in u}
    rel = BinaryRelation(u, holds=lambda a, b: table[(a, b)] or table[(b, a)])
    loc = LocalityStructure(rel)
    V = U | extra
    assert set(polar(V, loc)) <= set(polar(U, loc))


def test_mutually_independent():
    u = [0, 1, 2, 3]
    loc = LocalityStructure(
        BinaryRelation(u, holds=lambda a, b: abs(a - b) >= 2))
    assert mutually_independent([0, 2], loc)
    assert mutually_independent([], loc)
    assert not mutually_independent([0, 1, 3], loc)


# -- group checkers ------------------------------------------------------
#
# Carrier for the causality checker: finite subsets of (t, x) sites under
# union, with precedence "every site of A is strictly earlier than every
# site of B".  The empty set (the unit) is vacuously early and late, which
# is exactly the unit-polar condition the checker demands.


def _before(a, b):
    if not a or not b:
        return True
    return max(t for t, _ in a) < min(t for t, _ in b)


_TSETS = [frozenset(), frozenset({(0, 0)}), frozenset({(0, 3)}),
          frozenset({(2, 1)}), frozenset({(4, 0), (4, 2)}),
          frozenset({(6, 1)})]


def test_group_with_causality_support_sets():
    struct = CausalityStructure(BinaryRelation(_TSETS, holds=_before))
    rep = check_group_with_causality(lambda a, b: a | b, frozenset(), struct)
    assert rep["pass"], rep
    assert rep["compatibility"] == [] and rep["unit-polar"] == []


def test_group_with_causality_trivial_group():
    # the unit must precede itself by the unit-polar condition, so it is
    # exempted from negation-reflexivity
    struct = CausalityStructure(BinaryRelation([0], holds=lambda a, b: True))
    rep = check_group_with_causality(lambda a, b: a + b, 0, struct)
    assert rep["pass"]


def test_group_with_causality_detects_incompatible_add():
    def shifted_union(a, b):  # composition drifts later in time
        return frozenset((t + 3, x) for t, x in a | b)

    struct = CausalityStructure(BinaryRelation(_TSETS, holds=_before))
    rep = check_group_with_causality(shifted_union, frozenset(), struct)
    assert not rep["pass"]
    assert rep["compatibility"]
    assert rep["structure"] == [] and rep["unit-polar"] == []


def test_group_with_locality_disjoint_supports(lat):
    # field configurations with disjoint supports form a group with
    # locality under addition
    sites = [2, 40, 90, 140]
    configs = []
    for s in sites:
        v = np.zeros(lat.n_sites)
        v[s] = 1.0
        configs.append(v)
    zero = np.zeros(lat.n_sites)
    universe = [zero] + configs

    def disjoint(a, b):
        return not np.any((a != 0) & (b != 0))

    loc = LocalityStructure(BinaryRelation(universe, holds=disjoint))
    rep = check_group_with_locality(lambda a, b: a + b, zero, loc)
    assert rep["pass"], rep


def test_group_with_locality_detects_leak():
    # polar closure fails when adding independent elements can create
    # overlap with the probe set
    u = [frozenset(), frozenset({0}), frozenset({1}), frozenset({2})]

    def disjoint(a, b):
        return not (a & b)

    def leaky_add(a, b):  # spills into site 2 whenever both are nonempty
        return (a | b | frozenset({2})) if (a and b) else a | b

    loc = LocalityStructure(BinaryRelation(u, holds=disjoint))
    rep = check_group_with_locality(leaky_add, frozenset(), loc,
                                    subsets=[[frozenset({2})]])
    assert not rep["pass"]
    assert rep["polar-closure"]


# -- Hammerstein checker --------------------------------------------------


def test_hammerstein_sides_factor_order():
    # words record the order: the late pair stands left, phi(f)^{-1} in
    # the middle, and the left pair of factors is multiplied first
    lhs, rhs = hammerstein_sides(
        phi=lambda x: f"phi({x})", add=lambda a, b: f"{a}+{b}",
        mult=lambda a, b: f"[{a}.{b}]", inverse=lambda x: f"{x}^-1",
        f1="f1", f="f", f2="f2")
    assert lhs == "phi(f1+f+f2)"
    assert rhs == "[[phi(f2+f).phi(f)^-1].phi(f+f1)]"


def test_hammerstein_linear_map_passes():
    u = list(range(-3, 4))
    lt = CausalityStructure(BinaryRelation(u, holds=lambda a, b: a < b))
    rows = check_hammerstein(
        phi=lambda x: 3.0 * x, add=lambda a, b: a + b, zero=0,
        mult=lambda a, b: a + b, inverse=lambda x: -x,
        precedes=lt.relation.predicate,
        samples=[(-2, 0, 1), (-1, 2, 3), (0, -3, 2)])
    assert all(r["pass"] and not r["rejected"] for r in rows)
    assert all(r["hammerstein"] == 0.0 and r["padd"] == 0.0 for r in rows)


def test_hammerstein_rejects_misordered_sample():
    u = list(range(-3, 4))
    lt = CausalityStructure(BinaryRelation(u, holds=lambda a, b: a < b))
    rows = check_hammerstein(
        phi=lambda x: x, add=lambda a, b: a + b, zero=0,
        mult=lambda a, b: a + b, inverse=lambda x: -x,
        precedes=lt.relation.predicate, samples=[(3, 0, -3)])
    assert rows[0]["rejected"] and not rows[0]["pass"]
    assert rows[0]["hammerstein"] is None and rows[0]["padd"] is None


def test_hammerstein_detects_nonadditive_map():
    u = list(range(-3, 4))
    lt = CausalityStructure(BinaryRelation(u, holds=lambda a, b: a < b))
    rows = check_hammerstein(
        phi=lambda x: x * x, add=lambda a, b: a + b, zero=0,
        mult=lambda a, b: a + b, inverse=lambda x: -x,
        precedes=lt.relation.predicate, samples=[(-2, 1, 3)])
    assert not rows[0]["pass"]
    assert rows[0]["hammerstein"] > 1.0


# -- exhaustive small-universe sweep --------------------------------------


def _brute_locality_valid(table, n):
    return all(table[(a, b)] == table[(b, a)] for a in range(n)
               for b in range(n))


def _brute_causality_valid(table, n):
    if any(table[(a, a)] for a in range(n)):
        return False
    if n >= 2 and all(table[(a, b)] == table[(b, a)]
                      for a in range(n) for b in range(n)):
        return False
    return True


def test_exhaustive_three_element_relations():
    n = 3
    u = list(range(n))
    for bits in range(2 ** (n * n)):
        table = {(a, b): bool((bits >> (n * a + b)) & 1)
                 for a in range(n) for b in range(n)}
        rel = BinaryRelation(u, holds=lambda a, b, t=table: t[(a, b)])
        loc_ok = LocalityStructure(rel).invariant_violations() == []
        caus_ok = CausalityStructure(rel).invariant_violations() == []
        assert loc_ok == _brute_locality_valid(table, n)
        assert caus_ok == _brute_causality_valid(table, n)
        if loc_ok:
            loc = LocalityStructure(rel)
            for U in ([], [0], [0, 1], u):
                assert set(polar(U, loc)) <= set(u)
        if caus_ok:
            sym = symmetrize(CausalityStructure(rel))
            assert sym.invariant_violations() == []
