"""The module W: polynomials times exp(-2 x_0), modulo the ideal of R^2.

A vector of W is its polynomial q, standing for q(x) exp(-2|X|) restricted
to x_0 > 0, where the radial superfunction |X| coincides with x_0 modulo
<R^2>; the rate 2 is part of the space, and the form on W integrates the
product of two vectors at rate 4 (``integral.w_form``).  All operators act
through the representative q exp(-2 x_0): they are the ``algebra._OPS``
operators applied by ``algebra.apply_op`` with ``rate=2``, which conjugates
them by exp(-2 x_0), and results are reduced at the end.  The Schrodinger
action is the action table ``pi_table`` with the operator map ``pi_op``
(``apply_op``, then ``reduce_poly``), applied by ``algebra.table_apply``: at
rate 2 on W (``pi_apply``), at rate 0 as pi_C on the Fock space.  The Fock
action's table ``fock.rho_table`` is applied through the same map at rate 0.

The radial superfunction |X| (``abs_X``) is one finite Taylor sum
(``algebra.taylor_terms``): sqrt at the body (x_0^2 + s^2)/2 composed with
theta^2/2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import (Signature, SuperPolynomial, apply_op, table_apply, taylor_terms,
                      theta2)
from .liealg import TKKElement
from .quotient import reduce_poly
from .scalars import HALF, I, ONE, QQi, poch


def pi_op(descriptor: tuple, q: SuperPolynomial, rate) -> SuperPolynomial:
    """One ``algebra._OPS`` operator on q exp(-rate x_0), reduced modulo R^2."""
    return reduce_poly(apply_op(descriptor, q, rate))


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


def pi_apply(X: TKKElement, q: SuperPolynomial) -> SuperPolynomial:
    """Schrodinger action of a TKK element on the vector q exp(-2 x_0) of W."""
    return table_apply(pi_table, pi_op, X, q, 2)


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
