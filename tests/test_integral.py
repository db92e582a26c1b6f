import random
from fractions import Fraction

import pytest

from superfock import integral
from superfock.algebra import (R2, Signature, SuperPolynomial, apply_op, monomial_keys,
                               random_polynomial, term_product, theta2)
from superfock.integral import (DivergenceError, _integral_direct, _ray_terms,
                                berezin, berezin_theta_power, gamma_closed_form,
                                gamma_engine, integrate_w, moment, radial_integral,
                                phi_sharp, sphere_moment, w_form)
from superfock.liealg import tkk_for
from superfock.quotient import normal_form_keys
from superfock.scalars import PiScalar, QQi
from superfock.schrodinger import pi_apply
from superfock.verify import Context, RunConfig, check_normalization
from test_algebra import parity

SIG40 = Signature(4, 0)
SIG61 = Signature(6, 1)


def test_sphere_moments():
    assert sphere_moment((0, 0, 0), 4) == PiScalar(4, 2)          # area 4 pi
    assert sphere_moment((2, 0, 0), 4) == PiScalar(QQi(4, 0, 3), 2)  # 4 pi / 3
    assert sphere_moment((1, 0, 0), 4).is_zero()
    # two-point sphere for m = 2
    assert sphere_moment((2,), 2) == PiScalar(2)
    assert sphere_moment((3,), 2).is_zero()


def test_radial_integrals():
    assert radial_integral(1, Fraction(4)) == Fraction(1, 16)
    assert radial_integral(0, Fraction(4)) == Fraction(1, 4)
    assert radial_integral(3, Fraction(2)) == Fraction(6, 16)
    with pytest.raises(DivergenceError):
        radial_integral(-1, Fraction(4))


@pytest.mark.parametrize("rate", [0.1, 4.0, "4", "1/10"])
def test_a_rate_that_is_not_an_int_or_a_fraction_is_refused(rate):
    # a float's binary expansion or a parsed string is never taken as a rate
    one = SuperPolynomial.one(SIG40)
    for call in (lambda: radial_integral(1, rate), lambda: integrate_w(one, rate),
                 lambda: integrate_w(one, rate, trace=[]), lambda: _integral_direct(one, rate),
                 lambda: phi_sharp(SIG40, rate, _ray_terms(one)),
                 lambda: apply_op(("E",), one, rate)):
        with pytest.raises(TypeError):
            call()
    assert integrate_w(one, Fraction(1, 10)) == integrate_w(one, Fraction(1, 10), trace=[])


def test_berezin():
    sig = SIG61
    t1, t2 = SuperPolynomial.variable(sig, 6), SuperPolynomial.variable(sig, 7)
    assert berezin(t1 * t2) == SuperPolynomial.one(sig)
    assert berezin(t2 * t1) == SuperPolynomial.one(sig).scale(-1)
    assert berezin(SuperPolynomial.one(sig)).is_zero()
    assert berezin(t2).is_zero()


def test_gamma_values():
    # frozen engine values: pi/4 at (4,0), -pi^2/2 at (6,1)
    assert gamma_engine(SIG40) == PiScalar(QQi(1, 0, 4), 2)
    assert gamma_engine(SIG61) == PiScalar(QQi(-1, 0, 2), 4)
    assert gamma_closed_form(4, 0) == PiScalar(QQi(1, 0, 4), 2)
    # the engine value carries one extra factor 2 per odd pair
    assert gamma_engine(SIG61) == PiScalar(2) * gamma_closed_form(6, 1)
    with pytest.raises(ValueError):
        gamma_closed_form(4, 1)


def test_gamma_ratio_is_pinned_where_it_departs_from_2_to_the_n():
    # The engine and the closed form differ by 2^n at n <= 1 only: the ratio
    # is berezin((theta^2)^n) (see the integral module), which the check
    # now expects.
    for (m, n), want in [((4, 0), 1), ((6, 1), 2), ((8, 2), -8), ((10, 3), -48)]:
        assert gamma_engine(Signature(m, n)) / gamma_closed_form(m, n) == PiScalar(want), (m, n)
    ok, detail = check_normalization(Context(RunConfig(8, 2, max_degree=1)))
    assert ok is True and "= -2^2 2! x closed form" in detail


@pytest.mark.parametrize("m,n", [(4, 0), (6, 1), (8, 2), (10, 3)])
def test_the_berezin_integral_of_theta_squared_powers_is_the_closed_form_constant(m, n):
    # (theta^2)^n = 2^n n! times the pairs t_i t_(i+n) in pair order, whose
    # reordering into t_1 ... t_2n has the sign (-1)^(n(n-1)/2)
    sig = Signature(m, n)
    want = [1, 2, -8, -48][n]
    assert berezin_theta_power(n) == want
    assert berezin(theta2(sig) ** n) == SuperPolynomial.constant(sig, want)
    assert gamma_engine(sig) / gamma_closed_form(m, n) == PiScalar(want)


def test_normalization_passes_at_three_odd_pairs():
    ok, detail = check_normalization(Context(RunConfig(10, 3, max_degree=1)))
    assert (ok, detail) == (True, "gamma = (2)*pi^4 = -2^3 3! x closed form (-1/24)*pi^4")


def test_normalized_examples():
    one40 = SuperPolynomial.one(SIG40)
    assert integrate_w(one40, 4) == QQi(1)
    # frozen oracle values at (6,1), derived by hand from the ray expansion
    t1t2 = SuperPolynomial.variable(SIG61, 6) * SuperPolynomial.variable(SIG61, 7)
    assert integrate_w(t1t2, 4) == QQi(-1, 0, 8)
    x1 = SuperPolynomial.variable(SIG61, 1)
    assert integrate_w(x1 * x1, 4) == QQi(1, 0, 8)
    assert integrate_w(x1, 4) == QQi(0)
    with pytest.raises(ValueError):
        integrate_w(SuperPolynomial.one(Signature(4, 1)), 4)


def moment_mismatches(sig, max_degree, rates=(2, 4)):
    """(key, rate) of every monomial of degree <= max_degree whose table
    moment differs from its direct integral."""
    gamma = gamma_engine(sig)
    out = []
    for d in range(max_degree + 1):
        for key in monomial_keys(sig, d):
            mono = SuperPolynomial.monomial(sig, key)
            for rate in rates:
                if moment(sig, key, rate) != (_integral_direct(mono, rate) / gamma).as_qqi():
                    out.append((key, rate))
    return out


@pytest.mark.parametrize("m,n,max_degree",
                         [(4, 0, 6), (5, 0, 6), (6, 1, 5), (7, 1, 4), (8, 2, 3)])
def test_moment_table_equals_the_direct_integral(m, n, max_degree):
    # every monomial, not only normal forms or class representatives; the
    # odd-omega shortcut and one rate that is not an integer included
    assert moment_mismatches(Signature(m, n), max_degree, (2, 4, Fraction(3, 2))) == []


@pytest.fixture
def fresh_moment_tables():
    """Empty the moment and class tables around a test that corrupts them."""
    tables = moment, integral._moment_class
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()


def test_a_corrupted_class_value_fails_the_comparison(monkeypatch, fresh_moment_tables):
    # the class of x_0 x_i^2 at rate 4: every i and no other class
    sig = Signature(5, 0)
    value = integral._moment_class

    def wrapped(s, a0, total, odd, rate):
        v = value(s, a0, total, odd, rate)
        return v * 2 if (a0, total, odd, rate) == (1, 2, (), 4) else v
    monkeypatch.setattr(integral, "_moment_class", wrapped)
    assert sorted(moment_mismatches(sig, 3)) == [
        (((1,) + alpha, ()), 4)
        for alpha in ((0, 0, 0, 2), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0))]


def test_a_corrupted_sphere_ratio_fails_the_comparison(monkeypatch, fresh_moment_tables):
    # omega_1^2 omega_2^2: the true ratio is 1/3, the corrupted one 1
    sig = Signature(5, 0)
    ratio = integral._sphere_ratio
    monkeypatch.setattr(integral, "_sphere_ratio",
                        lambda alpha: ratio(alpha) * (3 if alpha == (2, 2, 0, 0) else 1))
    assert moment_mismatches(sig, 4) == [
        (((0, 2, 2, 0, 0), ()), 2), (((0, 2, 2, 0, 0), ()), 4)]


def test_the_moment_table_is_bounded():
    # as fock.BESSEL_IMAGES bounds the Bessel images, and above the ~7,600
    # moments that the integral and sb suites read at (8,2), max_degree 2
    assert moment.cache_info().maxsize == integral.MOMENTS >= 8000


def test_the_moment_class_table_is_bounded():
    # above the 246 classes of the moments that sb/intertwining reads at
    # (8,2), max_degree 2
    assert integral._moment_class.cache_info().maxsize == integral.MOMENT_CLASSES >= 2000


@pytest.mark.parametrize("m,n", [(4, 0), (6, 1)])
def test_traced_integral_equals_the_moment_table(m, n):
    ctx = Context(RunConfig(m=m, n=n, max_degree=2))
    for q in ctx.sample_polys(3, 6):
        for rate in (2, 4):
            assert integrate_w(q, rate, trace=[]) == integrate_w(q, rate)


def test_representative_independence():
    rng = random.Random(1)
    for sig in (SIG40, SIG61):
        for _ in range(15):
            q = random_polynomial(sig, 3, rng)
            p = random_polynomial(sig, 3, rng)
            assert integrate_w(q, 4) == integrate_w(q + R2(sig) * p, 4)


def test_euler_identity():
    rng = random.Random(2)
    for sig in (SIG40, SIG61):
        for _ in range(12):
            q = random_polynomial(sig, 3, rng)
            val = integrate_w(apply_op(("E",), q, 4) + q.scale(sig.M - 2), 4)
            assert val == QQi(0)


@pytest.mark.parametrize("m,n", [(5, 0), (6, 1), (8, 2)])
def test_w_pair_equals_the_form_of_two_monomial_vectors(m, n):
    # the signed moment against the product of two monomial vectors, integrated
    ctx = Context(RunConfig(m=m, n=n, max_degree=1))
    sig = ctx.sig
    vec = {key: SuperPolynomial.monomial(sig, key)
           for d in range(4) for key in normal_form_keys(sig, d)}
    low = [key for d in range(3) for key in normal_form_keys(sig, d)]
    for p in low:
        for q in vec:
            assert ctx.w_pair(p, q) == w_form(vec[p], vec[q]), (p, q)
            assert ctx.w_pair(q, p) == w_form(vec[q], vec[p]), (q, p)


def test_w_form_basics():
    v0 = SuperPolynomial.one(SIG61)
    assert w_form(v0, v0) == QQi(1)
    f = SuperPolynomial.variable(SIG61, 1)
    g = SuperPolynomial.variable(SIG61, 0)
    assert w_form(f, g) == w_form(g, f).conjugate()
    # sesquilinear in the second slot
    c = QQi(0, 1)
    assert w_form(f, g.scale(c)) == c.conjugate() * w_form(f, g)


def test_pi_skew_sample():
    tkk = tkk_for(SIG61)
    fs = [SuperPolynomial.monomial(SIG61, key)
          for d in range(2) for key in normal_form_keys(SIG61, d)]
    rng = random.Random(7)
    for _ in range(40):
        a = rng.randrange(tkk.dim)
        X = tkk.basis_element(a)
        f = rng.choice(fs)
        g = rng.choice(fs)
        sgn = QQi(-1 if (tkk.parity(a) and parity(f)) else 1)
        assert w_form(pi_apply(X, f), g) + sgn * w_form(f, pi_apply(X, g)) == QQi(0)


def test_phi_sharp_examples():
    from fractions import Fraction as F
    sig = SIG61
    x0sq = SuperPolynomial.monomial(sig, ((2, 0, 0, 0, 0, 0), ()))
    # one mixing step: x0^2 + theta^2/2 (the rate-0 part has no exponential term)
    want = _ray_terms(x0sq + SuperPolynomial.variable(sig, 6) * SuperPolynomial.variable(sig, 7))
    assert phi_sharp(sig, 0, _ray_terms(x0sq)) == want
    # the twisted R^2 vanishes pointwise on the ray: set s = x_0 = rho and
    # evaluate the sphere polynomial at an exact point with sum(omega^2) = 1
    point = [F(3, 5), F(4, 5), F(0), F(0), F(0)]
    groups = {}
    for (ev, odd), v in phi_sharp(sig, 4, _ray_terms(R2(sig))).items():
        w = F(1)
        for a, p in zip(ev[2:], point):
            w *= p ** a
        key = (ev[0] + ev[1], odd)
        groups[key] = groups.get(key, QQi(0)) + v * QQi.coerce(w)
    assert all(c.is_zero() for c in groups.values())


def test_phi_sharp_is_multiplicative():
    # phi# of f exp(-2 x_0) times phi# of g exp(-2 x_0) is phi# of
    # f g exp(-4 x_0): the rates add
    rng = random.Random(13)
    sig = SIG61
    for _ in range(10):
        f = _ray_terms(random_polynomial(sig, 2, rng))
        g = _ray_terms(random_polynomial(sig, 2, rng))
        assert term_product(phi_sharp(sig, 2, f), phi_sharp(sig, 2, g)) == \
            phi_sharp(sig, 4, term_product(f, g))


def test_kernel_sum_reproduces_mixed_degrees():
    from superfock.fock import bf_product, kernel_pair
    from test_fock import kernel_sum
    from superfock.quotient import reduce_poly
    sig = Signature(4, 0, varset="z")
    sigw = Signature(4, 0, varset="w")
    kern = kernel_sum(3, sig, sigw)
    z0 = SuperPolynomial.variable(sig, 0)
    z1 = SuperPolynomial.variable(sig, 1)
    p = z0 * z1 + z1.scale(QQi(0, 1)) + SuperPolynomial.one(sig)
    got = reduce_poly(kernel_pair(p, kern))
    want = reduce_poly(SuperPolynomial(sigw, dict(p.terms)))
    assert got == want


def test_trace_output():
    records = []
    x0 = SuperPolynomial.variable(SIG40, 0)
    val = integrate_w(x0, 4, trace=records)
    assert val == QQi(1, 0, 2)
    assert records and records[0]["rho_power"] == 2
    assert records[0]["berezin_sign"] == 1
