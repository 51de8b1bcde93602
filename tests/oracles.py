"""The tests' exact arithmetic, bound checks and bit fingerprints.

Every finite float is a dyadic rational, so float kernel entries and
coefficients multiply and add exactly as Gaussian rationals (Knuth, TAOCP
vol. 2, 4.5.1).  The exact contraction and weighted sum read only
`monomials()`, the coefficients and the kernel entries, and call none of
the package's contraction or summation code; the float pairing
contraction builds its result with HbarScalar arithmetic and the
validating constructor, as the builders here do.
"""

import functools
import itertools
import math
from fractions import Fraction

from paqft.functionals import HbarScalar, PolyFunctional

# a float coefficient is within c units of 2^-53 of its sum of |terms| of
# the exact one, plus this floor for sums in the subnormal range (the
# smallest subnormal is 2^-1074)
SUBNORMAL_FLOOR = 2.0 ** -1064


class Exact:
    """The Gaussian rational (re + i im) 2^exp / den in Python ints, den odd
    and positive: a sum or product costs integer multiplies and shifts, not
    a gcd.  `exact` converts a number to one."""

    __slots__ = ("re", "im", "exp", "den")

    def __init__(self, re, im, exp, den=1):
        self.re, self.im, self.exp, self.den = re, im, exp, den

    def __add__(self, o):
        o = exact(o)
        if not (o.re or o.im):
            return self
        if not (self.re or self.im):
            return o
        a, b, c, d, den = self.re, self.im, o.re, o.im, self.den
        if o.den != den:
            a, b = a * o.den, b * o.den
            c, d, den = c * den, d * den, den * o.den
        shift = self.exp - o.exp
        if shift > 0:
            a, b = a << shift, b << shift
        else:
            c, d = c << -shift, d << -shift
        return Exact(a + c, b + d, min(self.exp, o.exp), den)

    def __mul__(self, o):
        o = exact(o)
        a, b, c, d = self.re, self.im, o.re, o.im
        return Exact(a * c - b * d, a * d + b * c, self.exp + o.exp,
                     self.den * o.den)

    __radd__, __rmul__ = __add__, __mul__

    def __sub__(self, o):
        return self + exact(o) * -1

    def fractions(self):
        """The value as a (re, im) pair of Fractions."""
        scale = Fraction(2) ** self.exp / self.den
        return self.re * scale, self.im * scale

    def __abs__(self):
        # each part rounded once (int / int rounds correctly), then hypot
        def part(n):
            if self.exp >= 0:
                return (n << self.exp) / self.den
            return n / (self.den << -self.exp)
        return math.hypot(part(self.re), part(self.im))


ZERO = Exact(0, 0, 0)


def exact(z):
    """A float, complex, numpy scalar, int or Fraction as an Exact."""
    if isinstance(z, Exact):
        return z
    if isinstance(z, int):
        return Exact(z, 0, 0)
    if isinstance(z, Fraction):
        twos = (z.denominator & -z.denominator).bit_length() - 1
        return Exact(z.numerator, 0, -twos, z.denominator >> twos)
    z = complex(z)
    # both denominators are powers of two: bring the parts over the larger
    a, b = z.real.as_integer_ratio()
    c, d = z.imag.as_integer_ratio()
    if b < d:
        a, b = a * (d // b), d
    else:
        c *= b // d
    return Exact(a, c, 1 - b.bit_length())


def reference_permanent(mat):
    """Permanent by the sum over every permutation, with only + and *, so
    it is exact on exact entries."""
    total = 0
    for perm in itertools.permutations(range(len(mat))):
        p = 1
        for i, j in enumerate(perm):
            p = p * mat[i][j]
        total = total + p
    return total


def reference_selections(degree, r):
    return [(sel, tuple(i for i in range(degree) if i not in sel))
            for sel in itertools.combinations(range(degree), r)]


def _exact_coeffs(c):
    return [(e, exact(v), abs(v)) for e, v in c.coeffs.items()]


def _contract_pair(F, G, entry):
    """The exact contraction of F and G: every index selection, one
    reference_permanent each, and |term| = |c_a| |c_b| perm(|K[sa, sb]|)
    (r = 0 included, with the empty permanent 1)."""
    out: dict = {}
    gs = [(db, kb, _exact_coeffs(cb)) for db, kb, cb in G.monomials()]
    for da, ka, ca in F.monomials():
        fa = _exact_coeffs(ca)
        for db, kb, gb in gs:
            coeffs = [(ea + eb, xa * xb, ma * mb)
                      for ea, xa, ma in fa for eb, xb, mb in gb]
            for r in range(min(da, db) + 1):
                for sa, ra in reference_selections(da, r):
                    for sb, rb in reference_selections(db, r):
                        sub = [[entry(ka[i], kb[j]) for j in sb] for i in sa]
                        per = reference_permanent(
                            [[x for x, _m in row] for row in sub])
                        mag = reference_permanent(
                            [[m for _x, m in row] for row in sub])
                        key = tuple(sorted(
                            [ka[i] for i in ra] + [kb[j] for j in rb]))
                        for e, x, m in coeffs:
                            v0, m0 = out.get((key, e + r), (ZERO, 0.0))
                            out[key, e + r] = (v0 + x * per, m0 + m * mag)
    return out


def exact_contract(pairs, kernel):
    """{(key, exponent): (exact coefficient, sum of |terms|)} of the sum of
    the contractions of the (F, G) pairs along `kernel`, each pair's sums
    of |terms| formed on their own, then added.  Each kernel entry read is
    converted once per call."""
    K, entries = kernel.entries, {}

    def entry(i, j):
        if (i, j) not in entries:
            entries[i, j] = (exact(K[i, j]), abs(K[i, j]))
        return entries[i, j]

    out: dict = {}
    for F, G in pairs:
        for k, (v, m) in _contract_pair(F, G, entry).items():
            v0, m0 = out.get(k, (ZERO, 0.0))
            out[k] = (v + v0, m + m0)
    return out


def pairing_contract(lat, entries, F, G):
    """The contraction of F and G along the dense `entries`, in floats, by
    enumerating every partial pairing of their sites: no permanents, no
    site selections."""
    flat = {}
    for _da, ka, ca in F.monomials():
        for _db, kb, cb in G.monomials():
            pa, pb = list(ka), list(kb)
            for r in range(0, min(len(pa), len(pb)) + 1):
                for ia in itertools.combinations(range(len(pa)), r):
                    rest_a = [pa[i] for i in range(len(pa)) if i not in ia]
                    for ib in itertools.permutations(range(len(pb)), r):
                        w = 1.0 + 0j
                        for sa, sb in zip(ia, ib):
                            w *= complex(entries[pa[sa], pb[sb]])
                        rest_b = [pb[i] for i in range(len(pb))
                                  if i not in ib]
                        key = tuple(sorted(rest_a + rest_b))
                        term = ca * cb * HbarScalar({r: w})
                        prev = flat.get(key)
                        flat[key] = term if prev is None else prev + term
    nested = {}
    for key, coeff in flat.items():
        nested.setdefault(len(key), {})[key] = coeff
    return PolyFunctional(lat, nested)


def exact_weighted_sum(pairs):
    """{(key, exponent): (exact coefficient, sum of |w| |t|)} of the sum of
    w * F over the (w, F) pairs; w is an HbarScalar, complex, int or
    Fraction."""
    out: dict = {}
    for w, F in pairs:
        ws = w.coeffs.items() if isinstance(w, HbarScalar) else [(0, w)]
        ws = [(e, exact(v), float(abs(v))) for e, v in ws]
        for _deg, key, c in F.monomials():
            for e1, v1 in c.coeffs.items():
                x1, m1 = exact(v1), abs(v1)
                for e2, x2, m2 in ws:
                    v0, m0 = out.get((key, e1 + e2), (ZERO, 0.0))
                    out[key, e1 + e2] = (v0 + x1 * x2, m0 + m1 * m2)
    return out


def coefficients(F):
    """{(key, exponent): complex} of every coefficient of F."""
    return {(key, e): v for _d, key, c in F.monomials()
            for e, v in c.coeffs.items()}


def against(other, reference):
    """The coefficients of `other` as the exact values, with the sums of
    |terms| of `reference`: the bound between two float results."""
    ref = {k: exact(v) for k, v in coefficients(other).items()}
    return {k: (ref.get(k, ZERO), reference.get(k, (ZERO, 0.0))[1])
            for k in ref.keys() | reference.keys()}


def bound_ratios(got, reference, c):
    """{(key, exponent): |float - exact| / (2^-53 sum|terms| +
    SUBNORMAL_FLOOR / c)} over every coefficient of `got` or of the
    {(key, exponent): (exact, sum of |terms|)} `reference`; the stated
    bound holds where the ratio is at most c."""
    floats = coefficients(got)
    ratios = {}
    for k in floats.keys() | reference.keys():
        v, mag = reference.get(k, (ZERO, 0.0))
        err = abs(v - floats.get(k, 0j))
        ratios[k] = err / (2.0 ** -53 * mag + SUBNORMAL_FLOOR / c)
    return ratios


def assert_within_bound(got, reference, c):
    bad = {k: r for k, r in bound_ratios(got, reference, c).items() if r > c}
    assert not bad, bad


def bits(obj):
    """`obj` with every float as float.hex, through functionals (their
    lattice and terms), HbarScalars, dicts, lists and tuples: equal means
    equal bits, signed zeros included, and the same degree, key and
    exponent order."""
    if isinstance(obj, PolyFunctional):
        return obj.lattice, bits([(deg, list(t.items()))
                                  for deg, t in obj.terms.items()])
    if isinstance(obj, HbarScalar):
        return bits(list(obj.coeffs.items()))
    if isinstance(obj, complex):
        return obj.real.hex(), obj.imag.hex()
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [bits(v) for v in obj]
    return obj


def poly(lat, monos):
    """The functional of (sites, {exponent: coefficient}) monomials by the
    validating constructor, degrees in order of first appearance."""
    terms: dict = {}
    for sites, coeffs in monos:
        terms.setdefault(len(sites), {})[tuple(sorted(sites))] = \
            HbarScalar(coeffs)
    return PolyFunctional(lat, terms)


def time_ordered_fold(ctx, factors):
    """n-ary time-ordered product as a left fold of the binary one; the
    empty product is the unit functional."""
    if not factors:
        return PolyFunctional.unit(ctx.lattice)
    return functools.reduce(ctx.time_ordered, factors)


def stored_z_monomials(f_units):
    """{(sample, order, points, exponent)} of the z_values that the
    extract-z functional units store, and their hbar gradings."""
    monos, gradings = set(), []
    for i, unit in enumerate(f_units):
        _rows, z_values, grading = unit()
        gradings.append(grading)
        monos.update((i, n, tuple(map(tuple, row["points"])), e)
                     for n, by_degree in z_values.items()
                     for rows in by_degree.values() for row in rows
                     for e, _re, _im in row["coeff"])
    return monos, gradings
