"""Truncated formal power series in the coupling, symmetric multilinear
families with memoized mixed/diagonal evaluation and polarization, and
compose_SZ, the set-partition sum that is the one route to S compose Z.

The series engine is target-agnostic: coefficients may be scalars
(complex, Fraction), HbarScalar, or PolyFunctional; they need addition,
scalar multiplication, and (for multiply/invert) a bilinear product, their
own `*` or a product_sum passed explicitly.  Factor divisions go through
Fraction so exact scalar targets stay exact.

Polarization and compose_SZ are weighted sums of family values, and both
go through the one summing helper, weighted_sum: a term type with a
weighted_sum of its own (PolyFunctional.weighted_sum) sums all the
weighted terms in one accumulation pass; other types add w * t one by
one, so Fraction targets stay exact.  compose_SZ's weighted terms come
from partition_terms, which the extracted renormalization map also reads.

A value at a sum of parts, T_n((f_1 + ... + f_k)^{tensor n}), is never
evaluated at the summed argument: terms_at_sum lists it as mixed values
of the parts, so the sums that share parts share their memo entries.

Multiply and invert form each coefficient, sum_k a_k b_(n-k), as one
bilinear sum: a `product_sum` callable gets the coefficient's list of
(a_k, b_(n-k)) pairs and returns their summed products.  The S-matrix
passes the star algebra's accumulation entry
(StarAlgebraContext.contract_sum), so each coefficient is contracted into
one accumulator.  Without a product_sum the products x * y are formed one
by one and added up.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence


@dataclass(frozen=True)
class LambdaSeries:
    """Coefficients c_0..c_cap of a series truncated at order_cap.

    Arithmetic never reads beyond the cap; higher orders are silently
    dropped by construction.
    """

    order_cap: int
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != self.order_cap + 1:
            raise ValueError(
                f"need {self.order_cap + 1} coefficients, got {len(self.coefficients)}")

    def coeff(self, n: int):
        return self.coefficients[n]


def _check_caps(a: LambdaSeries, b: LambdaSeries):
    if a.order_cap != b.order_cap:
        raise ValueError(f"order_cap mismatch: {a.order_cap} != {b.order_cap}")


def series_add(a: LambdaSeries, b: LambdaSeries) -> LambdaSeries:
    _check_caps(a, b)
    return LambdaSeries(a.order_cap, tuple(
        x + y for x, y in zip(a.coefficients, b.coefficients)))


def series_scale(a: LambdaSeries, c) -> LambdaSeries:
    return LambdaSeries(a.order_cap, tuple(x * c for x in a.coefficients))


def _summed_products(product_sum: Callable) -> Callable:
    """The sum of the products of a list of (x, y) pairs: product_sum
    itself, or else the products x * y one by one added up."""
    if product_sum is not None:
        return product_sum
    return lambda pairs: functools.reduce(operator.add,
                                          (x * y for x, y in pairs))


def series_multiply(a: LambdaSeries, b: LambdaSeries,
                    product_sum: Callable = None) -> LambdaSeries:
    """Cauchy product; factor order preserved (a-coefficient left).

    Coefficient n is product_sum([(a_0, b_n), .., (a_n, b_0)]) when a
    product_sum is given, else the sum of the products one by one."""
    _check_caps(a, b)
    total = _summed_products(product_sum)
    return LambdaSeries(a.order_cap, tuple(
        total([(a.coeff(k), b.coeff(n - k)) for k in range(n + 1)])
        for n in range(a.order_cap + 1)))


def series_invert(a: LambdaSeries, unit=None,
                  product_sum: Callable = None) -> LambdaSeries:
    """Two-sided inverse of a series with unit leading coefficient.

    b_0 = unit, b_n = -sum_{k=1..n} a_k b_{n-k}, the sum formed as in
    series_multiply.
    """
    total = _summed_products(product_sum)
    u = unit if unit is not None else 1
    if not a.coeff(0) == u:
        raise ValueError("leading coefficient is not the unit; not invertible")
    b = [u]
    for n in range(1, a.order_cap + 1):
        b.append(-total([(a.coeff(k), b[n - k]) for k in range(1, n + 1)]))
    return LambdaSeries(a.order_cap, tuple(b))


def _is_zero(x) -> bool:
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return bool(x == 0)


def arg_key(a):
    """Content key of one multilinear argument.

    An object with a ``content_key()`` method (PolyFunctional) is keyed by
    it, any other (hashable) value by its type and value.  Equal keys mean
    arguments that every evaluator treats alike.
    """
    content_key = getattr(a, "content_key", None)
    if content_key is not None:
        return content_key()
    return (type(a), a)


class MultilinearFamily:
    """Order-indexed family n -> T_n of symmetric multilinear maps.

    Backed by a mixed-argument evaluator, a diagonal-only evaluator, or
    both.  Mixed evaluation prefers the direct evaluator and falls back to
    polarization over the diagonal one, or to the diagonal value itself
    when all arguments are equal.  Evaluations are memoized on the
    content of the arguments (see arg_key), so a repeated evaluation on
    freshly built but equal arguments reuses its entry.  The key is the
    multiset of argument keys: a permuted call returns the value computed
    for the first order seen.
    Without a diagonal evaluator, diagonal(n, f) is mixed(n, [f] * n) and
    shares its entry.  The memo is not bounded; its size follows the
    distinct argument contents evaluated.
    """

    def __init__(self, evaluate_mixed: Callable = None,
                 evaluate_diagonal: Callable = None):
        if evaluate_mixed is None and evaluate_diagonal is None:
            raise ValueError("need at least one evaluator")
        self._mixed = evaluate_mixed
        self._diagonal = evaluate_diagonal
        self._memo: dict = {}

    def _memo_get(self, key):
        return self._memo.get(key)

    def _mixed_key(self, n: int, keys) -> tuple:
        return ("mixed", n, frozenset(Counter(keys).items()))

    def diagonal(self, n: int, f):
        """T_n(f^{tensor n})."""
        if n < 1:
            raise ValueError("order must be >= 1")
        if self._diagonal is None:
            key = self._mixed_key(n, [arg_key(f)] * n)
        else:
            key = ("diag", n, arg_key(f))
        hit = self._memo_get(key)
        if hit is not None:
            return hit
        if self._diagonal is not None:
            val = self._diagonal(n, f)
        else:
            val = self._mixed(n, [f] * n)
        self._memo[key] = val
        return val

    def mixed(self, n: int, args: Sequence):
        """T_n(f_1,...,f_n), by direct evaluation or polarization; without
        a mixed evaluator, equal arguments are a diagonal value."""
        if len(args) != n:
            raise ValueError(f"need {n} arguments, got {len(args)}")
        if n < 1:
            raise ValueError("order must be >= 1")
        keys = [arg_key(a) for a in args]
        if self._mixed is None and keys.count(keys[0]) == n:
            return self.diagonal(n, args[0])
        key = self._mixed_key(n, keys)
        hit = self._memo_get(key)
        if hit is not None:
            return hit
        if self._mixed is not None:
            val = self._mixed(n, list(args))
        else:
            val = polarize(self, n, args)
        self._memo[key] = val
        return val


def terms_at_sum(family: MultilinearFamily, n: int, parts: Sequence) -> list:
    """The terms of T_n((f_1 + ... + f_k)^{tensor n}) for the parts f_i:

        T_n((f_1 + ... + f_k)^{tensor n}) = sum over the multisets m of n
            part indices of n!/prod_i m_i! T_n(f_m),

    with m_i the multiplicity of part i in m and f_m the parts m lists, as
    (n!/prod_i m_i!, T_n(f_m)) pairs in the order of
    itertools.combinations_with_replacement.  A multiset of one part is
    that part's diagonal value, so one part gives the one term
    (1, family.diagonal(n, f)), whatever f; of several parts the zero ones
    are dropped, as a multilinear T_n vanishes on them, and no parts give
    no terms."""
    if len(parts) > 1:
        parts = [p for p in parts if not _is_zero(p)]
    terms = []
    for m in itertools.combinations_with_replacement(range(len(parts)), n):
        if m[0] == m[-1]:
            terms.append((1, family.diagonal(n, parts[m[0]])))
            continue
        count = math.factorial(n)
        for mult in Counter(m).values():
            count //= math.factorial(mult)
        terms.append((count, family.mixed(n, [parts[i] for i in m])))
    return terms


def weighted_sum(pairs: Sequence):
    """sum of w * t over a non-empty list of (w, t) pairs.

    A term type with a weighted_sum(lattice, pairs) (PolyFunctional) forms
    it in one pass; otherwise the products t * w are added one by one, so
    exact targets (Fraction) stay exact."""
    first = pairs[0][1]
    summed = getattr(type(first), "weighted_sum", None)
    if summed is not None:
        return summed(first.lattice, pairs)
    return _summed_products(None)([(t, w) for w, t in pairs])


def polarize(family: MultilinearFamily, n: int, args: Sequence):
    """Mixed values from diagonal ones for a symmetric multilinear map:

    T_n(f_1..f_n) = (1/n!) sum_{nonempty S} (-1)^{n-|S|} T_n((sum_S f_i)^n),

    one weighted sum with the weights +-1/n!.
    """
    if len(args) != n:
        raise ValueError(f"need {n} arguments, got {len(args)}")
    w = Fraction(1, math.factorial(n))
    pairs = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            s = args[subset[0]]
            for i in subset[1:]:
                s = s + args[i]
            pairs.append((-w if (n - size) % 2 else w, family.diagonal(n, s)))
    return weighted_sum(pairs)


def set_partitions(n: int):
    """Set partitions of range(n), each a list of blocks (lists of
    indices); blocks are ordered by their first index and the partition
    of range(n) into one block comes first."""
    if n == 0:
        yield []
        return
    for part in set_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1:]
        yield part + [[n - 1]]


@functools.cache
def _partition_classes(ids: tuple) -> tuple:
    """The set partitions of range(len(ids)) grouped by the multisets of
    argument ids their blocks carry: (first partition, class size) pairs,
    in the set_partitions order of those first partitions."""
    classes: dict = {}
    for blocks in set_partitions(len(ids)):
        sig = tuple(sorted(tuple(sorted(ids[i] for i in b)) for b in blocks))
        if sig in classes:
            classes[sig][1] += 1
        else:
            classes[sig] = [blocks, 1]
    return tuple((blocks, count) for blocks, count in classes.values())


def partition_terms(family: MultilinearFamily,
                    weight: Callable[[int], object],
                    z_family: MultilinearFamily, args: Sequence) -> list:
    """The terms of compose_SZ as (weight(|pi|) * class size,
    T_{|pi|}(Z_{|B|}(f_B))_{B in pi}) pairs, one per class of set
    partitions of range(len(args)) (see compose_SZ), after the Z4 check
    of z_family's order-1 member on each distinct argument; a weight of
    None stands for 1."""
    keys = [arg_key(a) for a in args]
    ids = tuple(keys.index(k) for k in keys)
    for i in sorted(set(ids)):
        if not _is_zero(z_family.mixed(1, [args[i]]) - args[i]):
            raise ValueError(
                "Z violates Z4: order-1 coefficient is not the identity")
    terms = []
    for blocks, count in _partition_classes(ids):
        zvals = [z_family.mixed(len(b), [args[i] for i in b]) for b in blocks]
        w = weight(len(blocks))
        terms.append((count if w is None else w * count,
                      family.mixed(len(blocks), zvals)))
    return terms


def compose_SZ(family: MultilinearFamily, weight: Callable[[int], object],
               z_family: MultilinearFamily, args: Sequence):
    """The set-partition (Faa di Bruno) sum

        sum_{pi partition of [n]} weight(|pi|) T_{|pi|}(Z_{|B|}(f_B))_{B in pi}

    for n = len(args), with T_k = family and Z_m = z_family, whose order-1
    member must be the identity (axiom Z4, checked once per distinct
    argument); a weight of None leaves its terms unscaled.  With S(F) =
    1 + sum_k prefactor(k)/k! T_k(F^{tensor k}) and Z(F) = sum_m 1/m!
    Z_m(F^{tensor m}), weight = prefactor gives prefactor(n) (S compose
    Z)_n(f_1..f_n), so the coefficient of lambda^n in (S compose
    Z)(lambda f) is compose_SZ(.., [f] * n)/n!; the relative weights
    prefactor(k)/prefactor(n) give the T_n of S compose Z.

    Partitions whose blocks carry the same multisets of arguments (by
    arg_key) have equal terms: each such class is evaluated once, on its
    first partition, and weighted by its size, where that partition
    stands.  On [f] * n this is the sum over the integer partitions of n.
    The sum is the weighted_sum of partition_terms: one pass for
    PolyFunctional values.
    """
    return weighted_sum(partition_terms(family, weight, z_family, args))
