"""The generalized Hammerstein identity and its one row builder.

PAPER.md's locality and causality are one property of a map phi from an
additive carrier to a (possibly noncommutative) multiplicative target:
for f1 preceding (or independent of) f2,

    phi(f1 + f + f2) = phi(f2 + f) . phi(f)^{-1} . phi(f + f1).

hammerstein_sides is the one place the identity is formed, and
check_hammerstein the one place its residuals are taken: the S2 and
multiplicativity rows of the S suite, the Z3 rows of the Z suite and the
rows of the hammerstein suite all come from it.  Their arguments are
tuples of parts, so the four sums of the identity are tuple concatenations
and phi forms each value at a sum from the mixed values of its parts,
which the sides share.  Whether f1 precedes f2 is checked on the plan
before any row is built (smatrix_renorm._check_causal_triples).
"""

from __future__ import annotations

from typing import Callable


def hammerstein_sides(phi: Callable, mult: Callable, inverse: Callable,
                      f1, f, f2) -> tuple:
    """(lhs, rhs) of the generalized Hammerstein identity, the sums formed
    with +:

        phi(f1 + f + f2) = phi(f2 + f) . phi(f)^{-1} . phi(f + f1)

    S2 is the case phi = S over star-product series, its multiplicativity
    corollary the same at f = 0; Z3 is the abelian case mult = +.  With
    tuples of parts, + concatenates and () is the zero: phi then evaluates
    at sums it is given as parts (SMatrix.series,
    RenormalizationMap.z_series), and the four sides, (f1, f, f2),
    (f2, f), (f) and (f, f1), share the mixed values of their parts.
    """
    lhs = phi(f1 + f + f2)
    rhs = mult(mult(phi(f2 + f), inverse(phi(f))), phi(f + f1))
    return lhs, rhs


def check_hammerstein(phi: Callable, mult: Callable, inverse: Callable,
                      f1, f2, middles: dict, orders) -> dict:
    """{name: [the distance of the two sides' order-n coefficients for n
    in orders]} of hammerstein_sides at each named middle term of
    `middles` ({name: f}), in its order, for series-valued phi.  The
    middle term () gives the disjoint additivity of the pair, which holds
    whenever the full property does."""
    out = {}
    for name, f in middles.items():
        lhs, rhs = hammerstein_sides(phi, mult, inverse, f1, f, f2)
        out[name] = [lhs.coeff(n).distance(rhs.coeff(n)) for n in orders]
    return out
