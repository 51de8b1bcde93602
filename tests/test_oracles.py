import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact

# subnormals, signed zeros and exponents near both ends of the float range;
# below 2^1022 in size, so that no difference or modulus overflows
_float = (st.floats(-2.0 ** 1022, 2.0 ** 1022)
          | st.sampled_from([0.0, -0.0, 5e-324, -2.0 ** -1022, 2.0 ** 1022])
          | st.builds(math.ldexp, st.floats(-1.0, 1.0),
                      st.integers(-1080, 1022)))
_number = (st.builds(complex, _float, _float)
           | st.integers(-10 ** 6, 10 ** 6)
           | st.fractions(-4, 4, max_denominator=7))


def _pair(z):
    """z as the (re, im) pair of Fractions of the Fraction-pair route."""
    if isinstance(z, (int, Fraction)):
        return Fraction(z), Fraction(0)
    return Fraction(z.real), Fraction(z.imag)


@settings(max_examples=200, deadline=None)
@given(_number, _number)
def test_exact_scalar_matches_fraction_pair_arithmetic(x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    X, Y = exact(x), exact(y)
    assert X.fractions() == (a, b)
    assert (X + Y).fractions() == (a + c, b + d)
    assert (X - Y).fractions() == (a - c, b - d)
    assert (X * Y).fractions() == (a * c - b * d, a * d + b * c)
    # |exact - float| rounds each part once, as the Fraction route did
    assert abs(X - y) == math.hypot(float(a - c), float(b - d))
