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

The radial superfunction |X| (``abs_X``) is one finite Taylor sum
(``algebra.taylor_terms``): sqrt at the body (x_0^2 + s^2)/2 composed with
theta^2/2.  A rate is ``scalars.exact_rate``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import (Signature, SuperPolynomial, apply_op, table_apply, taylor_terms,
                      theta2)
from .liealg import TKKElement
from .quotient import reduce_poly
from .scalars import HALF, I, ONE, QQi, exact_rate, poch


class WElement:
    """q(x) * exp(-c x_0) with q in normal form."""

    __slots__ = ("rate", "poly")

    def __init__(self, rate: Fraction, poly: SuperPolynomial):
        self.rate = exact_rate(rate)
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
    rate = exact_rate(rate)
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


@lru_cache(maxsize=None)
def abs_X(sig: Signature) -> dict:
    """|X| = sqrt((x_0^2 + r^2)/2) as a term map {((e,), odd): c} standing for
    c u^(e/2) t^odd, u = (x_0^2 + s^2)/2 the body: sqrt at u composed with the
    nilpotent theta^2/2 (``algebra.taylor_terms``).  The j-th derivative of
    sqrt at u is (1/2)(1/2 - 1)...(1/2 - j + 1) u^(1/2 - j), and
    (theta^2)^(n+1) = 0."""
    nil = {((0,), odd): c * HALF for (_, odd), c in theta2(sig).terms.items()}
    table = [{((1 - 2 * j,), ()): QQi.coerce((-1) ** j * poch(Fraction(-1, 2), j))}
             for j in range(sig.n + 1)]
    return taylor_terms(nil, table, {((0,), ()): 1})
