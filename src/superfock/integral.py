"""Exact evaluation of the W-integral and the sesquilinear form on W.

The integrand q(x) exp(-c x_0) is rewritten in ray coordinates x_i = omega_i s
(i = 1..m-1), pushed through the twisting morphism phi# (``phi_sharp``),
multiplied by the finite odd expansions of the two square-root weight factors
(``weights``), and restricted to s = x_0 = rho.  These are ray term maps on
keys ((a, b) + alpha, J) for x_0^a s^b omega^alpha theta_J (``_ray_terms``),
multiplied by ``algebra.term_product``; each weight factor is one finite
Taylor sum in the nilpotent theta^2 (``algebra.taylor_terms``).  What remains
factors into a Berezin integral (coefficient of the top odd monomial),
closed-form monomial moments over the unit sphere, and Gamma-type radial
integrals; every value is a rational times one power of pi (``PiScalar``).

Normalization.  ``gamma_engine`` is the raw integral of exp(-4 x_0), with
``berezin`` the plain iterated derivative: berezin(t_1 ... t_2n) = 1.
``gamma_closed_form`` normalizes the Berezin integral of (theta^2)^n to 1
(De Bie and Sommen, J. Phys. A 40, 2007), theta^2 = 2 sum_i t_i t_(i+n)
being the odd part of r^2.  The pairs t_i t_(i+n) are even and square to
zero, so (theta^2)^n is 2^n n! times their product in pair order, which
takes n(n-1)/2 transpositions to reorder into t_1 ... t_2n.  The ratio of
the two is therefore berezin((theta^2)^n) = (-1)^(n(n-1)/2) 2^n n!
(``berezin_theta_power``): 1, 2, -8, -48 for n = 0..3, and 2^n only for
n <= 1.  Normalized integrals divide by ``gamma_engine``, so no structural
identity sees the constant.

A rate is an int or a ``Fraction`` (``scalars.exact_rate``); a float or a
string raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .algebra import (Signature, SuperPolynomial, apply_op, merge_odd, taylor_terms,
                      term_product, theta2)
from .scalars import HALF, PiScalar, QQi, _acc, exact_rate, gamma_half, poch


class DivergenceError(ArithmeticError):
    """A radial term rho^N exp(-c rho) with N < 0 survived cancellation."""


def sphere_moment(alpha: tuple[int, ...], m: int) -> PiScalar:
    """Moment of omega^alpha over the unit sphere in R^{m-1} (surface measure)."""
    if m < 2:
        raise ValueError("need m >= 2")
    if len(alpha) != m - 1:
        raise ValueError("alpha must have length m-1")
    if any(a % 2 for a in alpha):
        return PiScalar()
    num = PiScalar(2)
    for a in alpha:
        num = num * gamma_half(a + 1)
    return num / gamma_half(sum(alpha) + m - 1)


def radial_integral(N: int, c: Fraction) -> Fraction:
    """Integral of rho^N exp(-c rho) over (0, inf): N! / c^(N+1)."""
    c = exact_rate(c)
    if c <= 0:
        raise ValueError("rate must be positive")
    if N < 0:
        raise DivergenceError(f"divergent radial term rho^{N} exp(-{c} rho)")
    return factorial(N) / c ** (N + 1)


def berezin(p: SuperPolynomial) -> SuperPolynomial:
    """Iterated odd derivative d^{m+2n-1} ... d^{m}, applied right to left."""
    out = p
    for i in range(p.sig.m, p.sig.nvars):
        out = apply_op(("d_upper", i), out)
    return out


def _ray_terms(p: SuperPolynomial, a: int = 0, b: int = 0) -> dict:
    """x_0^a s^b p as a ray term map {((a, b) + alpha, J): coeff} for
    coeff x_0^a s^b omega^alpha theta_J, a and b Laurent: x^(ev, J) is
    x_0^ev[0] s^|alpha| omega^alpha theta_J with alpha = ev[1:].  x_0, s and
    omega are even, so ``algebra.term_product`` multiplies two such maps as
    it multiplies polynomials."""
    return {((ev[0] + a, sum(ev[1:]) + b) + ev[1:], odd): c for (ev, odd), c in p.terms.items()}


def phi_sharp(sig: Signature, rate, terms: dict) -> dict:
    """phi# of f exp(-rate x_0), f a ray term map: sum_{j <= n} (theta^{2j}/j!)
    D^j f, D = (1/(4 x_0)) d_{x_0} - (1/(4 s)) d_s on f exp(-rate x_0) with
    the exponential divided out.  An operator exponential, not a scalar
    function of a nilpotent, so its products are ``term_product`` and not
    ``taylor_terms``."""
    c = QQi.coerce(exact_rate(rate))
    quarter = QQi(1, 0, 4)
    theta = _ray_terms(theta2(sig))
    power = {((0,) * (sig.m + 1), ()): 1}  # theta^{2j}/j!
    out, cur = {}, terms
    for j in range(sig.n + 1):
        if j:
            step: dict = {}
            for (ev, odd), v in cur.items():
                a, b, alpha = ev[0], ev[1], ev[2:]
                if a:
                    _acc(step, ((a - 2, b) + alpha, odd), v * a * quarter)
                _acc(step, ((a - 1, b) + alpha, odd), -v * c * quarter)
                if b:
                    _acc(step, ((a, b - 2) + alpha, odd), -v * b * quarter)
            cur = step
            power = {k: v * Fraction(1, j) for k, v in term_product(power, theta).items()}
        for k, v in term_product(power, cur).items():
            _acc(out, k, v)
    return out


def weights(sig: Signature) -> tuple[dict, dict]:
    """The two square-root weight factors as ray term maps, each a Taylor sum
    (``taylor_terms``) of a power t^p at t = 1, whose j-th derivative is
    p (p - 1) ... (p - j + 1): w1 = t^((m-3)/2) at t1 = 1 - theta^2/(2 s^2)
    and w2 = t^(-1/2) at t2 = 1 + theta^2/(2 x_0^2)."""
    unit = ((0,) * (sig.m + 1), ())

    def weight(p: Fraction, nil: dict) -> dict:
        table = [{unit: QQi.coerce((-1) ** j * poch(-p, j))} for j in range(sig.n + 1)]
        return taylor_terms(nil, table, {unit: 1})

    half_theta = theta2(sig).scale(HALF)
    return (weight(Fraction(sig.m - 3, 2), _ray_terms(-half_theta, b=-2)),
            weight(Fraction(-1, 2), _ray_terms(half_theta, a=-2)))


def _integral_direct(p: SuperPolynomial, rate, trace: list | None = None) -> PiScalar:
    """The raw integral of p exp(-rate x_0), before gamma normalization:
    phi# of p's ray terms times the weights w1 w2, restricted to the ray
    s = x_0 = rho with the factor rho^(m-3), keys (N, alpha, odd)."""
    sig = p.sig
    c = exact_rate(rate)
    w1, w2 = weights(sig)
    terms = term_product(term_product(w1, w2), phi_sharp(sig, c, _ray_terms(p)))
    ray: dict = {}
    for (ev, odd), v in terms.items():
        _acc(ray, (ev[0] + ev[1] + sig.m - 3, ev[2:], odd), v)
    full = tuple(range(sig.m, sig.nvars))
    total = PiScalar()
    for (N, alpha, odd), v in sorted(ray.items()):
        if odd != full:
            continue
        sphere = sphere_moment(alpha, sig.m)
        if sphere.is_zero():
            continue
        try:
            rad = radial_integral(N, c)
        except DivergenceError as exc:
            raise DivergenceError(
                f"{exc} from term omega^{alpha} (coefficient {v})") from None
        total = total + sphere * PiScalar(v * QQi.coerce(rad))
        if trace is not None:
            trace.append({
                "rho_power": N,
                "rate": str(c),
                "omega_exponents": list(alpha),
                "coefficient": str(v),
                "sphere_moment": str(sphere),
                "radial_integral": str(rad),
                "berezin_sign": 1,
            })
    return total


# Bound of the ``moment`` table.  The integral and sb suites at (8,2),
# max_degree 2, fill about 7,600 entries, and the whole test suite in one
# process about 8,200.
MOMENTS = 1 << 14

# Bound of the class table behind it (``_moment_class``).  The 3,642 moments
# of ``sb/intertwining`` at (8,2), max_degree 2, fall into 246 classes.
MOMENT_CLASSES = 1 << 12


def _sphere_ratio(alpha: tuple[int, ...]) -> Fraction:
    """sphere_moment(alpha) / sphere_moment((|alpha|, 0, ..., 0)) for even
    omega exponents: prod (a_i - 1)!! / (|alpha| - 1)!!."""
    return Fraction(prod(prod(range(1, a, 2)) for a in alpha),
                    prod(range(1, sum(alpha), 2)))


@lru_cache(maxsize=MOMENT_CLASSES)
def _moment_class(sig: Signature, a0: int, s: int, odd: tuple[int, ...], rate) -> QQi:
    """Normalized integral of the class representative x_0^a0 x_1^s theta_odd
    exp(-rate x_0), integrated directly."""
    ev = (a0, s) + (0,) * (sig.m - 2)
    mono = SuperPolynomial.monomial(sig, (ev, odd))
    return (_integral_direct(mono, rate) / gamma_engine(sig)).as_qqi()


@lru_cache(maxsize=MOMENTS)
def moment(sig: Signature, key, rate) -> QQi:
    """Normalized integral of x^key exp(-rate x_0) over W, from its class.

    Write key = (x_0^a omega^alpha s^|alpha|, theta_J) in ray coordinates.
    ``_ray_terms`` keeps ((a, |alpha|) + alpha, J), and
    phi#, the weights and the restriction to the ray act on a, |alpha| and
    J only: they carry alpha through unchanged.  So the raw integral of
    x^key is sphere_moment(alpha) times a value of (a, |alpha|, J, rate),
    and the same value times sphere_moment((|alpha|, 0, ..., 0)) is the raw
    integral of the class representative x_0^a x_1^|alpha| theta_J.

    When an omega exponent is odd the sphere moment is zero, and so is the
    moment, with nothing integrated; _integral_direct skips a zero sphere
    moment before it reaches radial_integral, so no DivergenceError is
    hidden.  When every a_i is even, sphere_moment(alpha) is
    2 prod Gamma((a_i+1)/2) / Gamma((|alpha|+m-1)/2) and
    Gamma((a+1)/2) = (a-1)!! sqrt(pi) / 2^(a/2), so the two sphere moments
    differ by the rational prod (a_i-1)!! / (|alpha|-1)!! (``_sphere_ratio``).
    The moment is that rational times the representative's moment
    (``_moment_class``, one direct integral per class).  The radial terms
    of the two integrals are the same, so both raise alike; a pi power that
    survives the normalization raises, per class."""
    ev, odd = key
    alpha = ev[1:]
    if any(a % 2 for a in alpha):
        return QQi(0)
    value = _moment_class(sig, ev[0], sum(alpha), odd, rate)
    ratio = _sphere_ratio(alpha)
    return value if ratio == 1 else value * ratio


@lru_cache(maxsize=None)
def gamma_engine(sig: Signature) -> PiScalar:
    """Normalization constant: the raw integral of exp(-4 x_0)."""
    return _integral_direct(SuperPolynomial.one(sig), 4)


def berezin_theta_power(n: int) -> int:
    """berezin((theta^2)^n) = (-1)^(n(n-1)/2) 2^n n!, the ratio of
    ``gamma_engine`` to ``gamma_closed_form`` (see the module docstring)."""
    return (-1) ** (n * (n - 1) // 2) * 2 ** n * prod(range(1, n + 1))


def gamma_closed_form(m: int, n: int) -> PiScalar:
    """Closed form 2^{5-2M}/n! ((3-m)/2)_n pi^{(m-1)/2}/Gamma((m-1)/2) Gamma(M-2)."""
    M = m - 2 * n
    if M < 4:
        raise ValueError("closed form requires M >= 4")
    pref = Fraction(2) ** (5 - 2 * M) / factorial(n) * poch(Fraction(3 - m, 2), n)
    out = PiScalar(pref, m - 1) / gamma_half(m - 1)
    return out * gamma_half(2 * (M - 2))


def integrate_w(poly: SuperPolynomial, rate, trace: list | None = None) -> QQi:
    """Normalized integral of poly exp(-rate x_0) over W, summed from the
    moment table; exact, with all pi powers cancelling.  A traced run
    integrates the polynomial whole."""
    rate = exact_rate(rate)
    sig = poly.sig
    if sig.M < 4:
        raise ValueError("the integral is only defined for superdimension >= 4")
    if trace is not None:
        return (_integral_direct(poly, rate, trace) / gamma_engine(sig)).as_qqi()
    total = QQi(0)
    for key, c in poly.terms.items():
        total = total + c * moment(sig, key, rate)
    return total


def w_pair(sig: Signature, p, q) -> QQi:
    """The W-form of the monomial vectors x^p exp(-2 x_0) and x^q exp(-2 x_0):
    the merge sign of their odd parts times the moment of x^(p+q) at rate 4.

    A monomial's conjugate is itself, and x^p x^q is x^(p+q) up to the sign
    of merging the odd parts; it is zero when they share an index."""
    if sig.M < 4:
        raise ValueError("the integral is only defined for superdimension >= 4")
    merged = merge_odd(p[1], q[1])
    if merged is None:
        return QQi(0)
    sign, odd = merged
    v = moment(sig, (tuple(a + b for a, b in zip(p[0], q[0])), odd), 4)
    return v if sign > 0 else -v


def w_form(f: SuperPolynomial, g: SuperPolynomial) -> QQi:
    """Sesquilinear form of the vectors f exp(-2 x_0) and g exp(-2 x_0) of W:
    the integral of f times the conjugate of g at rate 4."""
    return integrate_w(f * g.conjugate(), 4)
