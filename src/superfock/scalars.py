"""Exact scalar domains: Gaussian rationals and their products with a power of pi.

``QQi`` holds numbers of the form (a + b*i)/d with integer a, b, d: the
coefficients of polynomials, of {key: QQi} maps and of columns with a
denominator.  Integral values that carry a half-integer power of pi (sphere
areas, Gamma values at half-integers) are ``PiScalar`` values c*pi^(k/2): one
QQi coefficient c and one integer half-exponent k.  Every value of the
W-integral is of this form, so no sum of two powers is ever held.

Every ``QQi`` is stored in lowest terms: d > 0 and gcd(a, b, d) = 1, so equal
numbers have equal parts and ``==``, ``hash`` and ``str`` read the parts.
``QQi(a, b, d)`` is the one constructor, and every operation builds its
result through it: each part must be an int (a bool is stored as an int) or
a ``Fraction``, anything else raises ``TypeError``, d = 0 raises
``ZeroDivisionError``, and the gcd is skipped only when a, b, d are ints and
d = 1.  ``PiScalar(coeff, half)`` is likewise the one constructor of its
type; it coerces the coefficient, and zero carries half = 0.

Hot contraction loops read sparse maps of ``QQi`` values as integer columns
(``int_column``): Gaussian-integer numerator pairs over one positive
denominator, so they add and multiply plain ints; ``column_terms`` converts
back.

The operator calculus (``algebra._OPS``, ``quotient.reduce_terms``,
``bipoly.pairing_power``) runs on term maps of plain ints: ``int_or_qqi``
makes a rate, lambda or metric entry an int, or a ``QQi`` only where it is
not a real integer, and ``_acc`` adds either."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd


def _acc(terms: dict, key, val):
    """Add val, an int or a ``QQi``, to terms[key], dropping entries that cancel."""
    cur = terms.get(key)
    if cur is None:
        if val:
            terms[key] = val
    else:
        s = cur + val
        if s:
            terms[key] = s
        else:
            del terms[key]


class QQi:
    """Gaussian rational (a + b*i)/d, always stored in lowest terms with d > 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        if type(a) is not int or type(b) is not int or type(d) is not int:
            for x in (a, b, d):
                if not isinstance(x, (int, Fraction)):
                    raise TypeError(f"a QQi part must be an int or a Fraction, "
                                    f"not {type(x).__name__}")
            fa, fb, fd = Fraction(a), Fraction(b), Fraction(d)
            den = fa.denominator * fb.denominator * fd.denominator
            a = (fa * den).numerator
            b = (fb * den).numerator
            d = (fd * den).numerator
        elif d == 1:
            self.a, self.b, self.d = a, b, 1
            return
        if d <= 0:
            if d == 0:
                raise ZeroDivisionError("zero denominator")
            a, b, d = -a, -b, -d
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
        self.a, self.b, self.d = a, b, d

    @staticmethod
    def coerce(x) -> "QQi":
        if isinstance(x, QQi):
            return x
        if isinstance(x, int):
            return QQi(x)
        if isinstance(x, Fraction):
            return QQi(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to QQi")

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conjugate(self) -> "QQi":
        return QQi(self.a, -self.b, self.d)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "QQi":
        o = other if type(other) is QQi else QQi.coerce(other)
        d, e = self.d, o.d
        return QQi(self.a * e + o.a * d, self.b * e + o.b * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "QQi":
        return QQi(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "QQi":
        o = other if type(other) is QQi else QQi.coerce(other)
        d, e = self.d, o.d
        return QQi(self.a * e - o.a * d, self.b * e - o.b * d, d * e)

    def __rsub__(self, other) -> "QQi":
        return QQi.coerce(other) - self

    def __mul__(self, other) -> "QQi":
        if type(other) is int:
            return QQi(self.a * other, self.b * other, self.d)
        o = other if type(other) is QQi else QQi.coerce(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        return QQi(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "QQi":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QQi(self.d * self.a, -self.d * self.b, n)

    def __truediv__(self, other) -> "QQi":
        return self * QQi.coerce(other).inverse()

    def __rtruediv__(self, other) -> "QQi":
        return QQi.coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "QQi":
        if k < 0:
            return self.inverse() ** (-k)
        out = QQi(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not QQi:
            if isinstance(other, (int, Fraction)):
                other = QQi.coerce(other)
            if not isinstance(other, QQi):
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        def rat(num: int) -> str:
            return str(num) if self.d == 1 else f"{num}/{self.d}"

        if self.b == 0:
            return rat(self.a)
        if self.a == 0:
            return rat(self.b) + "*i"
        sb = rat(abs(self.b)) + "*i"
        return f"{rat(self.a)}{'+' if self.b > 0 else '-'}{sb}"

    def __repr__(self) -> str:
        return f"QQi({self})"


def int_or_qqi(x):
    """x as an int where it is a real integer, else as a ``QQi``: the number
    type of the operator calculus (``algebra._OPS``)."""
    if type(x) is int:
        return x
    q = QQi.coerce(x)
    return q.a if q.d == 1 and not q.b else q


def exact_rate(x) -> Fraction:
    """An exponential rate, an int or a ``Fraction`` as a ``QQi`` part is, as a
    ``Fraction``; TypeError for a float or a string, which are not read."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"a rate must be an int or a Fraction, not {type(x).__name__}")
    return Fraction(x)


def int_column(terms: dict) -> tuple[int, dict]:
    """A sparse map {key: QQi} as (d, {key: (a, b)}) with value (a + b*i)/d at
    key; d > 0 is the least common multiple of the denominators."""
    d = 1
    for c in terms.values():
        e = c.d
        if d % e:
            d = d // gcd(d, e) * e
    return d, {k: (c.a * (d // c.d), c.b * (d // c.d)) for k, c in terms.items()}


def column_terms(column: tuple[int, dict]) -> dict:
    """The map {key: QQi} of an integer column (d, {key: (a, b)})."""
    d, nums = column
    return {k: QQi(a, b, d) for k, (a, b) in nums.items()}


def column_combination(terms) -> tuple[int, dict]:
    """sum (x + y*i)/e * nums over terms (x, y, e, nums), with ints x, y and
    e > 0 and nums the numerators of an integer column, as (d, {key: [a, b]})
    with value (a + b*i)/d; entries that cancel stay, as [0, 0].  Plain ints
    are summed over a running common denominator d, rescaled only when a new
    e does not divide it."""
    out: dict = {}
    d = 1
    for x, y, e, nums in terms:
        if d % e:
            new = d // gcd(d, e) * e
            g = new // d
            for r in out.values():
                r[0] *= g
                r[1] *= g
            d = new
        f = d // e
        if f != 1:
            x *= f
            y *= f
        for k, (u, v) in nums.items():
            r = out.get(k)
            if r is None:
                out[k] = [x * u - y * v, x * v + y * u]
            else:
                r[0] += x * u - y * v
                r[1] += x * v + y * u
    return d, out


def column_image(column: tuple[int, dict], image) -> tuple[int, dict]:
    """The linear map taking each key to the integer column image(key),
    applied to an integer column; entries that cancel are dropped."""
    d, nums = column
    terms = []
    for key, (a, b) in nums.items():
        e, out = image(key)
        terms.append((a, b, d * e, out))
    d, out = column_combination(terms)
    return d, {key: (a, b) for key, (a, b) in out.items() if a or b}


ZERO = QQi(0)
ONE = QQi(1)
I = QQi(0, 1)
HALF = QQi(1, 0, 2)


def poch(a: Fraction, k: int) -> Fraction:
    """Rising factorial a*(a+1)*...*(a+k-1); empty product for k = 0."""
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


class PiScalar:
    """c * pi^(k/2): a QQi coefficient c and an integer half-exponent k, so
    pi^(3/2) has half = 3.  Zero has half = 0.  Products add the exponents
    and quotients subtract them; a sum of two nonzero values of different
    powers raises ValueError.  A value with half = 0 is an exact scalar and
    can be extracted with :meth:`as_qqi`."""

    __slots__ = ("coeff", "half")

    def __init__(self, coeff=0, half: int = 0):
        self.coeff = QQi.coerce(coeff)
        self.half = half if self.coeff else 0

    @staticmethod
    def coerce(x) -> "PiScalar":
        if isinstance(x, PiScalar):
            return x
        return PiScalar(x)

    def is_zero(self) -> bool:
        return not self.coeff

    def __add__(self, other) -> "PiScalar":
        o = PiScalar.coerce(other)
        if not o.coeff:
            return self
        if not self.coeff:
            return o
        if self.half != o.half:
            raise ValueError(f"cannot add different powers of pi: {self} and {o}")
        return PiScalar(self.coeff + o.coeff, self.half)

    __radd__ = __add__

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.coeff, self.half)

    def __sub__(self, other) -> "PiScalar":
        return self + (-PiScalar.coerce(other))

    def __mul__(self, other) -> "PiScalar":
        o = PiScalar.coerce(other)
        return PiScalar(self.coeff * o.coeff, self.half + o.half)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PiScalar":
        o = PiScalar.coerce(other)
        return PiScalar(self.coeff / o.coeff, self.half - o.half)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, QQi)):
            other = PiScalar.coerce(other)
        if not isinstance(other, PiScalar):
            return NotImplemented
        return self.coeff == other.coeff and self.half == other.half

    def __hash__(self):
        return hash((self.coeff, self.half))

    def as_qqi(self) -> QQi:
        """Extract the scalar value; raises if a pi power survives."""
        if self.half:
            raise ValueError(f"pi powers did not cancel: {self}")
        return self.coeff

    def __str__(self) -> str:
        c, k = self.coeff, self.half
        if not c:
            return "0"
        if k == 0:
            return str(c)
        if k == 2:
            return f"({c})*pi"
        if k % 2 == 0:
            return f"({c})*pi^{k // 2}"
        return f"({c})*pi^({k}/2)"

    def __repr__(self) -> str:
        return f"PiScalar({self})"


def gamma_half(k: int) -> PiScalar:
    """Gamma(k/2) for positive integer k, exactly: a rational times pi^0 or pi^(1/2)."""
    if k <= 0:
        raise ValueError("Gamma pole or nonpositive argument")
    if k % 2 == 0:
        return PiScalar(factorial(k // 2 - 1))
    j = (k - 1) // 2  # Gamma(j + 1/2) = (2j)!/(4^j j!) sqrt(pi)
    val = factorial(2 * j) / (Fraction(4) ** j * factorial(j))
    return PiScalar(val, 1)
