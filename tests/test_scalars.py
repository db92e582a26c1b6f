import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from superfock.scalars import (HALF, I, ONE, PiScalar, QQi, column_combination,
                               column_terms, gamma_half, int_column, poch)

small_ints = st.integers(min_value=-30, max_value=30)
denoms = st.integers(min_value=1, max_value=12)
qqis = st.builds(QQi, small_ints, small_ints, denoms)


def test_normalization():
    assert QQi(2, 4, 6) == QQi(1, 2, 3)
    assert QQi(1, 0, -2) == QQi(-1, 0, 2)
    assert QQi(Fraction(1, 2), Fraction(-3, 4)) == QQi(2, -3, 4)


def test_field_examples():
    assert I * I == QQi(-1)
    assert (ONE + I) * (ONE - I) == QQi(2)
    assert HALF + HALF == ONE
    assert QQi(3, 4, 5).conjugate() == QQi(3, -4, 5)
    assert QQi(1, 1) / QQi(1, 1) == ONE
    with pytest.raises(ZeroDivisionError):
        QQi(0).inverse()


@given(qqis, qqis, qqis)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(qqis)
def test_inverse_and_conjugation(a):
    if not a.is_zero():
        assert a * a.inverse() == ONE
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).b == 0


def test_str_format():
    assert str(QQi(3)) == "3"
    assert str(QQi(-3, 0, 4)) == "-3/4"
    assert str(QQi(0, 1)) == "1*i"
    assert str(QQi(1, -1, 2)) == "1/2-1/2*i"
    assert str(QQi(2, 3)) == "2+3*i"


def test_pochhammer():
    assert poch(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert poch(Fraction(-2), 3) == 0
    assert poch(Fraction(5), 0) == 1


def test_gamma_half():
    assert gamma_half(2) == PiScalar(1)          # Gamma(1)
    assert gamma_half(4) == PiScalar(1)          # Gamma(2)
    assert gamma_half(6) == PiScalar(2)          # Gamma(3)
    assert gamma_half(1) == PiScalar(1, 1)       # Gamma(1/2) = sqrt(pi)
    assert gamma_half(3) == PiScalar(HALF, 1)    # Gamma(3/2)
    assert gamma_half(5) == PiScalar(QQi(3, 0, 4), 1)
    with pytest.raises(ValueError):
        gamma_half(0)


def test_pi_scalar_single_power():
    a = PiScalar(QQi(1, 0, 2), 3)   # (1/2) pi^(3/2)
    b = PiScalar(2, 1)              # 2 pi^(1/2)
    assert a * b == PiScalar(1, 4)
    assert (a + a) / a == PiScalar(2)
    assert (a - a).is_zero() and (a - a).half == 0
    with pytest.raises(ValueError, match="pi powers did not cancel"):
        a.as_qqi()
    assert (a / a).as_qqi() == ONE
    with pytest.raises(ValueError):
        PiScalar(1, 1) + PiScalar(1, 3)
    assert PiScalar() + PiScalar(QQi(2, 1), 3) == PiScalar(QQi(2, 1), 3)
    assert (PiScalar(QQi(2, 1), 3) + 0).half == 3
    assert PiScalar(0, 5) == PiScalar() and PiScalar(0, 5).half == 0
    with pytest.raises(ZeroDivisionError):
        a / PiScalar(0, 3)
    assert [str(PiScalar(QQi(1, 0, 4), k)) for k in (0, 2, 4, 3, -1)] == \
        ["1/4", "(1/4)*pi", "(1/4)*pi^2", "(1/4)*pi^(3/2)", "(1/4)*pi^(-1/2)"]


def _pi_ref(x):
    """Reference value of a PiScalar as (half-exponent, re, im), Fractions."""
    return x.half, Fraction(x.coeff.a, x.coeff.d), Fraction(x.coeff.b, x.coeff.d)


def _pi_sum(x, y):
    """The reference sum of two triples, or None where the powers differ."""
    (k, a, b), (l, c, e) = x, y
    if a == b == 0:
        return y
    if c == e == 0:
        return x
    return (k, a + c, b + e) if k == l else None


def _pi_check(result, ref):
    """result is the PiScalar of the reference triple; zero carries half = 0 and
    equals and hashes like PiScalar()."""
    k, re, im = ref
    if re == im == 0:
        k = 0
    assert type(result) is PiScalar and type(result.coeff) is QQi
    assert _pi_ref(result) == (k, re, im)
    want = PiScalar(QQi(re, im), k)
    assert result == want and hash(result) == hash(want)
    if re == im == 0:
        assert want == PiScalar() and hash(want) == hash(PiScalar())
        assert result.is_zero() and str(result) == "0"


def test_pi_scalar_arithmetic_agrees_with_fraction_pairs():
    """+, -, * and / against (half-exponent, re, im) triples of Fractions:
    products add the exponents, quotients subtract them, and a sum of two
    nonzero values of different powers raises."""
    rng = random.Random(31)
    xs = [PiScalar(), PiScalar(1), PiScalar(QQi(0, 1, 3), -1), PiScalar(QQi(-1, 0, 4), 2)]
    for _ in range(30):
        xs.append(PiScalar(QQi(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 6)),
                           rng.randint(-3, 3)))
    for x in xs:
        k, a, b = xr = _pi_ref(x)
        _pi_check(-x, (k, -a, -b))
        _pi_check(x - x, (0, 0, 0))
        _pi_check(x + (-x), (0, 0, 0))
        for y in xs:
            l, c, e = yr = _pi_ref(y)
            _pi_check(x * y, (k + l, a * c - b * e, a * e + b * c))
            for result, ref in ((lambda: x + y, _pi_sum(xr, yr)),
                                (lambda: x - y, _pi_sum(xr, (l, -c, -e)))):
                if ref is None:
                    with pytest.raises(ValueError):
                        result()
                else:
                    _pi_check(result(), ref)
            norm = c * c + e * e
            if norm:
                _pi_check(x / y, (k - l, (a * c + b * e) / norm, (b * c - a * e) / norm))
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y


def _pair(x):
    """Reference value of an int, Fraction or QQi as a (re, im) pair of Fractions."""
    if isinstance(x, QQi):
        return Fraction(x.a, x.d), Fraction(x.b, x.d)
    return Fraction(x), Fraction(0)


def _operands(rng, count):
    out = [0, 1, -1, QQi(0), QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1), QQi(0, 0, 7)]
    for _ in range(count):
        kind = rng.randrange(4)
        a, b = rng.randint(-12, 12), rng.randint(-12, 12)
        if kind == 0:
            out.append(a)
        elif kind == 1:
            out.append(Fraction(a, rng.randint(1, 12)))
        elif kind == 2:
            out.append(QQi(a, b))
        else:
            out.append(QQi(a, b, rng.randint(2, 12)))
    return out


def _check(result, re, im):
    """result is a reduced QQi with value re + im*i, equal in every part,
    ``str`` and ``hash`` to the number built by the normalizing constructor."""
    assert type(result) is QQi
    assert all(type(v) is int for v in (result.a, result.b, result.d))
    assert result.d > 0 and gcd(result.a, result.b, result.d) == 1
    assert (Fraction(result.a, result.d), Fraction(result.b, result.d)) == (re, im)
    ref = QQi(re, im)
    assert (result.a, result.b, result.d) == (ref.a, ref.b, ref.d)
    assert result == ref and hash(result) == hash(ref) and str(result) == str(ref)


def test_arithmetic_agrees_with_fraction_pairs():
    """Every operation, on ints, Fractions and QQi with d = 1 and d > 1, gives
    the value of the Fraction-pair reference and stays in lowest terms,
    including the results that bypass normalization."""
    rng = random.Random(20)
    xs = _operands(rng, 60)
    for x in xs:
        if not isinstance(x, QQi):
            _check(QQi.coerce(x), *_pair(x))
            continue
        xr, xi = _pair(x)
        _check(-x, -xr, -xi)
        _check(x.conjugate(), xr, -xi)
        norm = xr * xr + xi * xi
        if norm:
            _check(x.inverse(), xr / norm, -xi / norm)
        for k in range(-3 if norm else 0, 4):
            ref = (Fraction(1), Fraction(0))
            base = (xr, xi) if k >= 0 else (xr / norm, -xi / norm)
            for _ in range(abs(k)):
                ref = (ref[0] * base[0] - ref[1] * base[1], ref[0] * base[1] + ref[1] * base[0])
            _check(x ** k, *ref)
        for y in xs:
            yr, yi = _pair(y)
            _check(x + y, xr + yr, xi + yi)
            _check(y + x, xr + yr, xi + yi)
            _check(x - y, xr - yr, xi - yi)
            _check(y - x, yr - xr, yi - xi)
            prod = (xr * yr - xi * yi, xr * yi + xi * yr)
            _check(x * y, *prod)
            _check(y * x, *prod)
            ynorm = yr * yr + yi * yi
            if ynorm:
                _check(x / y, (xr * yr + xi * yi) / ynorm, (xi * yr - xr * yi) / ynorm)
            if norm:
                _check(y / x, (yr * xr + yi * xi) / norm, (yi * xr - yr * xi) / norm)
            assert (x == y) == ((xr, xi) == (yr, yi))


def test_raw_results_are_reduced():
    """The results built without normalization: negation, conjugation, sums and
    products of Gaussian integers, products by ints, +-1 and +-i."""
    x = QQi(6, -4, 9)
    for k in (0, 1, -1, 3, -6, 9, 12, 27):
        _check(x * k, Fraction(6 * k, 9), Fraction(-4 * k, 9))
        _check(k * x, Fraction(6 * k, 9), Fraction(-4 * k, 9))
        _check(x * QQi(k), Fraction(6 * k, 9), Fraction(-4 * k, 9))
        _check(x * QQi(0, k), Fraction(4 * k, 9), Fraction(6 * k, 9))
        _check(QQi(0, k) * x, Fraction(4 * k, 9), Fraction(6 * k, 9))
    _check(QQi(3, 4) * QQi(-2, 5), Fraction(-26), Fraction(7))
    _check(QQi(3, 4) + QQi(-3, -4), Fraction(0), Fraction(0))
    _check(QQi(1, 0, 6) + QQi(1, 0, 6), Fraction(1, 3), Fraction(0))
    _check(QQi(1, 0, 6) - QQi(-5, 0, 6), Fraction(1), Fraction(0))


def test_non_numeric_input_is_refused():
    for args in ((1.5,), (2.0,), (1, 0, 2.0), ("1",), (1, "2"), (1, 0, None),
                 (1.5, Fraction(0)), (Fraction(1, 2), 0.25), (Fraction(1), 0, 2.0),
                 ("3", Fraction(1))):
        with pytest.raises(TypeError):
            QQi(*args)
    assert str(QQi(True)) == "1"
    q = QQi(True, 0, 2)
    assert all(type(v) is int for v in (q.a, q.b, q.d))
    with pytest.raises(ZeroDivisionError):
        QQi(1, 0, 0)
    with pytest.raises(ZeroDivisionError):
        QQi(Fraction(1, 2), 0, 0)
    with pytest.raises(TypeError):
        QQi.coerce(1.5)
    with pytest.raises(TypeError):
        QQi(1) * 1.5


def test_integer_columns_round_trip():
    terms = {"re": QQi(3, 0, 2), "im": QQi(0, -5, 3), "int": QQi(7), "both": QQi(1, 1, 6)}
    column = int_column(terms)
    assert column == (6, {"re": (9, 0), "im": (0, -10), "int": (42, 0), "both": (1, 1)})
    assert column_terms(column) == terms
    assert int_column({}) == (1, {}) and column_terms((1, {})) == {}


nonzero_qqis = qqis.filter(lambda q: not q.is_zero())


@given(st.dictionaries(st.integers(0, 20), nonzero_qqis, max_size=8))
def test_integer_columns_keep_every_value(terms):
    d, nums = int_column(terms)
    assert d > 0 and all(d % q.d == 0 for q in terms.values())
    back = column_terms((d, nums))
    assert back == terms
    assert all(type(v) is QQi and (v.a, v.b, v.d) == (terms[k].a, terms[k].b, terms[k].d)
               for k, v in back.items())


@given(st.lists(st.tuples(nonzero_qqis, st.dictionaries(st.integers(0, 6), nonzero_qqis,
                                                        max_size=4)), max_size=6))
def test_column_combination_is_the_qqi_sum(terms):
    want: dict = {}
    ints = []
    for c, col in terms:
        for k, v in col.items():
            want[k] = want.get(k, QQi(0)) + c * v
        d, nums = int_column(col)
        ints.append((c.a, c.b, c.d * d, nums))
    d, out = column_combination(ints)
    assert d > 0 and set(out) == set(want)
    assert all(QQi(a, b, d) == want[k] for k, (a, b) in out.items())


def test_column_combination_rescales_to_a_common_denominator():
    # 1/2 then 1/3 does not divide 2: the running denominator becomes 6
    d, out = column_combination([(1, 0, 2, {"x": (1, 0)}), (0, 1, 3, {"x": (1, 0), "y": (0, 2)})])
    assert d == 6 and out == {"x": [3, 2], "y": [-4, 0]}
