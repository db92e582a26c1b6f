"""Floating-point sanity evaluations of the renormalized Bessel and Laguerre families.

Everything exact lives elsewhere; this module only provides double-precision
series evaluations with a reported truncation estimate, for desk checks of
the closed special-function identities the symbolic layer relies on.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple


class SeriesValue(NamedTuple):
    value: float
    tail: float  # magnitude of the last series term, a truncation estimate


def _rgamma(x: float) -> float:
    """1/Gamma(x), zero at the poles."""
    if x <= 0 and x == int(x):
        return 0.0
    return 1.0 / math.gamma(x)


def itilde(alpha: float, t: float, terms: int = 40) -> SeriesValue:
    """Renormalized I-Bessel: sum_k (t/2)^{2k} / (k! Gamma(k+alpha+1)), the
    real part of ``_itilde_c``."""
    value, tail = _itilde_c(alpha, t, terms)
    return SeriesValue(value.real, tail)


def _itilde_c(alpha: float, t: complex, terms: int) -> tuple[complex, float]:
    """The I-Bessel series at complex t, with the magnitude of its last term."""
    w = (t / 2.0) ** 2
    total = 0.0 + 0.0j
    wp = 1.0 + 0.0j
    term = 0.0
    for k in range(terms + 1):
        term = wp * _rgamma(k + alpha + 1) / math.factorial(k)
        total += term
        wp *= w
    return total, abs(term)


def _ktilde_c(alpha: float, t: complex, terms: int) -> complex:
    if abs(alpha - round(alpha)) < 1e-9:
        eps = 1e-6
        return 0.5 * (_ktilde_c(alpha + eps, t, terms) + _ktilde_c(alpha - eps, t, terms))
    pref = math.pi / (2.0 * math.sin(math.pi * alpha))
    half = t / 2.0
    return pref * (half ** (-2.0 * alpha) * _itilde_c(-alpha, t, terms)[0]
                   - _itilde_c(alpha, t, terms)[0])


def _ktilde_half_integer(alpha: float, t: float) -> float:
    """Stable evaluation at half-integer order via the closed exponential forms.

    Upward recurrence from Ktilde(-1/2) = sqrt(pi)/2 e^{-t} and
    Ktilde(1/2) = sqrt(pi) e^{-t}/t avoids the catastrophic cancellation of
    the I-difference formula at large t.  K is even in its order, and the
    renormalization converts as Ktilde(-a) = (t/2)^{2a} Ktilde(a).
    """
    a = abs(alpha)
    prev = math.sqrt(math.pi) / 2 * math.exp(-t)       # order -1/2
    cur = math.sqrt(math.pi) * math.exp(-t) / t        # order 1/2
    if a == 0.5:
        val = cur
    else:
        order = 0.5
        while order < a:
            prev, cur = cur, (4.0 / t ** 2) * prev + (4.0 * order / t ** 2) * cur
            order += 1.0
        val = cur
    if alpha < 0:
        val *= (t / 2.0) ** (2.0 * a)
    return val


def ktilde(alpha: float, t: float, terms: int = 40) -> SeriesValue:
    """Renormalized K-Bessel.

    Half-integer orders (the only ones this package consumes) use exact
    exponential closed forms; other non-integer orders fall back to the
    I-difference formula, and integer orders take a symmetric limit
    alpha +- 1e-6 of that formula.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if abs(2 * alpha - round(2 * alpha)) < 1e-12 and round(2 * alpha) % 2 != 0:
        return SeriesValue(_ktilde_half_integer(alpha, t), 0.0)
    val = _ktilde_c(alpha, complex(t), terms)
    tail = itilde(abs(alpha), t, terms).tail
    return SeriesValue(val.real, tail)


def g2(mu: float, nu: float, s: complex, t: float, terms: int = 40) -> complex:
    """Generating function (1-s)^{-(mu+nu+2)/2} Itilde_{mu/2}(st/(1-s)) Ktilde_{nu/2}(t/(1-s))."""
    oms = 1.0 - s
    pref = oms ** (-(mu + nu + 2) / 2.0)
    return (pref * _itilde_c(mu / 2.0, s * t / oms, terms)[0]
            * _ktilde_c(nu / 2.0, t / oms, terms))


def laguerre_lambda(j: int, mu: float, nu: float, t: float,
                    terms: int = 40, radius: float = 0.5,
                    npoints: int = 64) -> SeriesValue:
    """Coefficient of s^j in the expansion of the generating function g2.

    Extracted by trapezoidal quadrature of the Cauchy integral on the circle
    |s| = radius; the reported tail compares two quadrature resolutions.
    """
    if j >= npoints // 2:
        raise ValueError("j too large for the requested number of quadrature points")

    def extract(npts: int) -> float:
        acc = 0j
        for k in range(npts):
            theta = 2.0 * math.pi * k / npts
            s = radius * cmath.exp(1j * theta)
            acc += g2(mu, nu, s, t, terms) * cmath.exp(-1j * j * theta)
        return (acc / (npts * radius ** j)).real

    coarse = extract(npoints)
    fine = extract(2 * npoints)
    return SeriesValue(fine, abs(fine - coarse))


def value_table(mu: float, nu: float, t_values, j_max: int = 3,
                terms: int = 40) -> list[dict]:
    """CSV-ready rows of Itilde/Ktilde/Laguerre values for a parameter family."""
    rows = []
    for t in t_values:
        row = {
            "t": t,
            "itilde_mu_half": itilde(mu / 2.0, t, terms).value,
            "ktilde_nu_half": ktilde(nu / 2.0, t, terms).value,
        }
        for j in range(j_max + 1):
            row[f"laguerre_{j}"] = laguerre_lambda(j, mu, nu, t, terms).value
        rows.append(row)
    return rows
