"""The module W: polynomials times exp(-c x_0), modulo the ideal of R^2.

A ``WElement`` stores the exponential rate c > 0 and a reduced polynomial q,
and stands for q(x) exp(-c|X|) restricted to x_0 > 0, where the radial
superfunction |X| coincides with x_0 modulo <R^2>.  All operators act through
the representative q exp(-c x_0): they are the ``algebra._OPS`` operators
applied by ``algebra.apply_op`` with ``rate=c``, which conjugates them by
exp(-c x_0), and results are reduced at the end.  The Schrodinger action is
the action table ``pi_table`` with the operator map ``pi_op`` (``apply_op``,
then ``reduce_poly``), applied by ``algebra.table_apply``: at rate 2 on W, at
rate 0 as pi_C on the Fock space.  The Fock action's table ``fock.rho_table``
is applied through the same map at rate 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import (Signature, SuperPolynomial, apply_op, merge_odd,
                      table_apply, theta2)
from .liealg import TKKElement
from .quotient import reduce_poly
from .scalars import HALF, I, ONE, QQi, _acc


class WElement:
    """q(x) * exp(-c x_0) with q in normal form."""

    __slots__ = ("rate", "poly")

    def __init__(self, rate: Fraction, poly: SuperPolynomial):
        self.rate = Fraction(rate)
        self.poly = poly

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __add__(self, other: "WElement") -> "WElement":
        if self.rate != other.rate:
            raise ValueError("cannot add different exponential rates")
        return WElement(self.rate, self.poly + other.poly)

    def __sub__(self, other: "WElement") -> "WElement":
        return self + other.scale(-1)

    def scale(self, c) -> "WElement":
        return WElement(self.rate, self.poly.scale(c))

    def conjugate(self) -> "WElement":
        return WElement(self.rate, self.poly.conjugate())

    def __eq__(self, other) -> bool:
        return (isinstance(other, WElement) and self.rate == other.rate
                and self.poly == other.poly)

    def __str__(self) -> str:
        return f"({self.poly})*exp(-{self.rate}*x0)"

    __repr__ = __str__


def make_w(q: SuperPolynomial, rate) -> WElement:
    rate = Fraction(rate)
    if rate <= 0:
        raise ValueError("exponential rate must be positive")
    return WElement(rate, reduce_poly(q))


def lowest_vector(sig: Signature) -> WElement:
    return make_w(SuperPolynomial.one(sig), 2)


def pi_op(descriptor: tuple, q: SuperPolynomial, rate) -> SuperPolynomial:
    """One ``algebra._OPS`` operator on q exp(-rate x_0), reduced modulo R^2."""
    return reduce_poly(apply_op(descriptor, q, rate))


def diffop_on_w(descriptor: tuple, f: WElement) -> WElement:
    """Apply a first-order operator descriptor, e.g. ("L", 0, 1) or ("bessel_mod", 2)."""
    return WElement(f.rate, pi_op(descriptor, f.poly, f.rate))


def pi_table(tkk, a: int) -> list[tuple[tuple, QQi]]:
    """The Schrodinger action of basis element a as [(descriptor, coefficient)]
    over ``algebra._OPS``, applied by ``pi_op``: minus_l -> -2i x_l, plus_l ->
    -i/2 bessel_mod(l), inn_ij -> L_ij, L_l -> L_l0 for l != 0 and L_0 ->
    (2 - M)/2 - E.  At rate 2 it acts on W, at rate 0 (pi_C) on the Fock space."""
    kind, *rest = tkk.basis[a]
    if kind == "inn":
        return [(("L", *rest), ONE)]
    l = rest[0]
    if kind == "minus":
        return [(("mul", l), -2 * I)]
    if kind == "plus":
        return [(("bessel_mod", l), -I * HALF)]
    if l:
        return [(("L", l, 0), ONE)]
    return [(("one",), QQi(2 - tkk.sig.M, 0, 2)), (("E",), -ONE)]


def pi_apply(X: TKKElement, f: WElement) -> WElement:
    """Schrodinger action of a TKK element on W (defined at rate 2)."""
    if f.rate != 2:
        raise ValueError("the Schrodinger action is defined at rate 2")
    return WElement(f.rate, table_apply(pi_table, pi_op, X, f.poly, f.rate))


# -- radial superfunctions ---------------------------------------------------


def radial_expand(f: SuperPolynomial, derivatives) -> SuperPolynomial:
    """Compose a scalar function with a superfunction via its Taylor expansion.

    ``derivatives[j]`` must be the j-th derivative of the base function
    evaluated at the body of f (the part free of odd variables), given as a
    SuperPolynomial or scalar.  The nilpotent remainder of f drives the finite
    Taylor sum; the table must cover every nonvanishing power.
    """
    sig = f.sig
    body = SuperPolynomial(sig, {k: c for k, c in f.terms.items() if not k[1]})
    nil = f - body
    out = SuperPolynomial.zero(sig)
    power = SuperPolynomial.one(sig)
    fact = 1
    j = 0
    while True:
        if j >= len(derivatives):
            if power.is_zero():
                break
            raise ValueError(f"derivative table too short: need order {j}")
        d = derivatives[j]
        if not isinstance(d, SuperPolynomial):
            d = SuperPolynomial.constant(sig, d)
        out = out + (power * d).scale(Fraction(1, fact))
        power = power * nil
        if power.is_zero():
            break
        j += 1
        fact *= j
    return out


class RadialPower:
    """Finite sums of u^(e/2) times odd monomials, u a positive even body.

    Used to realize |X| = sqrt((x_0^2 + r^2)/2) exactly: with u the body
    (x_0^2 + s^2)/2 the square root has a terminating Taylor expansion in the
    nilpotent odd part, and squaring back is an identity this ring can verify.
    """

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms: dict | None = None):
        self.sig = sig
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = QQi.coerce(c)
                if not c.is_zero():
                    self.terms[k] = c

    @classmethod
    def u_power(cls, sig: Signature, half_exp: int, coeff=1) -> "RadialPower":
        return cls(sig, {(half_exp, ()): coeff})

    @classmethod
    def from_odd_poly(cls, p: SuperPolynomial) -> "RadialPower":
        terms = {}
        for (ev, odd), c in p.terms.items():
            if any(ev):
                raise ValueError("expected a purely odd polynomial")
            terms[(0, odd)] = c
        return cls(p.sig, terms)

    def __add__(self, other: "RadialPower") -> "RadialPower":
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return RadialPower(self.sig, out)

    def __sub__(self, other: "RadialPower") -> "RadialPower":
        return self + other.scale(-1)

    def scale(self, c) -> "RadialPower":
        c = QQi.coerce(c)
        return RadialPower(self.sig, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "RadialPower") -> "RadialPower":
        out: dict = {}
        for (e1, o1), c1 in self.terms.items():
            for (e2, o2), c2 in other.terms.items():
                merged = merge_odd(o1, o2)
                if merged is None:
                    continue
                sign, odd = merged
                key = (e1 + e2, odd)
                _acc(out, key, c1 * c2 * sign)
        return RadialPower(self.sig, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, RadialPower) and self.sig == other.sig
                and self.terms == other.terms)


@lru_cache(maxsize=None)
def abs_X(sig: Signature) -> RadialPower:
    """|X| as a radial superfunction: sqrt at the body u, Taylor in theta^2/2."""
    nil = RadialPower.from_odd_poly(theta2(sig).scale(Fraction(1, 2)))
    out = RadialPower(sig)
    power = RadialPower.u_power(sig, 0)
    coeff = Fraction(1)
    fact = 1
    j = 0
    while True:
        # coeff = j-th derivative prefactor of sqrt: (1/2)(1/2-1)...(1/2-j+1)
        out = out + power.scale(QQi.coerce(coeff / fact)) * RadialPower.u_power(sig, 1 - 2 * j)
        power = power * nil
        if power.is_zero():
            return out
        coeff *= Fraction(1, 2) - j
        j += 1
        fact *= j
