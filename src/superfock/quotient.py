"""Normal forms modulo the ideal generated by R^2 = -x_0^2 + r^2.

The normal form keeps the exponent of variable 0 at most 1 in every term,
rewriting x_0^2 -> r^2.  Each rewrite strictly lowers the variable-0 degree,
so the reduction terminates and is idempotent; p - reduce(p) always lies in
the ideal.

``reduce_terms`` is the one reducer, on term maps in ints or ``QQi`` as they
come, given the index of x_0 so that it reduces one slot of a bi-polynomial
as well; the powers of r^2 are int maps.  ``nf_terms`` applies it to a term
map at x_0 (the action fills of ``algebra.table_columns`` read it) and
``reduce_poly`` to a polynomial; neither builds a ``QQi`` of its own.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .algebra import (Signature, SuperPolynomial, add_term_product, dim_P,
                      monomial_keys, r2_small, term_product)
from .scalars import _acc


@lru_cache(maxsize=None)
def _r2_power(sig: Signature, k: int) -> dict:
    """r^(2k) as a term map, r^2 = R^2 + x_0^2 from the metric's int form."""
    if k == 0:
        return {((0,) * sig.m, ()): 1}
    r2 = dict(sig.r2_terms)
    _acc(r2, ((2,) + (0,) * (sig.m - 1), ()), 1)
    return term_product(_r2_power(sig, k - 1), r2)


def reduce_terms(terms: dict, x0: int, r2_power) -> dict:
    """The term map terms modulo R^2, where x0 is the index of x_0 and
    r2_power(j) is the term map of r^(2j), which has no x_0.

    r^2 is even and has no x_0, so substituting x_0^a -> x_0^(a mod 2)
    r^(2 floor(a/2)) lands in normal form in one pass; every product is
    summed into one map, after the terms that are already reduced."""
    out = {key: c for key, c in terms.items() if key[0][x0] <= 1}
    for (ev, odd), c in terms.items():
        a = ev[x0]
        if a >= 2:
            add_term_product(out, r2_power(a // 2), (ev[:x0] + (a % 2,) + ev[x0 + 1:], odd), c)
    return out


def nf_terms(sig: Signature, terms: dict) -> dict:
    """The term map terms on sig modulo R^2: ``reduce_terms`` at x_0."""
    return reduce_terms(terms, 0, partial(_r2_power, sig))


def reduce_poly(p: SuperPolynomial) -> SuperPolynomial:
    """Unique representative of p mod <R^2> with variable-0 degree <= 1."""
    return SuperPolynomial._wrap(p.sig, nf_terms(p.sig, p.terms))


def reduce_with_quotient(p: SuperPolynomial):
    """(nf, q) with p = nf + R^2 * q and nf in normal form."""
    sig = p.sig
    nf = p
    q = SuperPolynomial.zero(sig)
    while True:
        high = {key: c for key, c in nf.terms.items() if key[0][0] >= 2}
        if not high:
            return nf, q
        # x_0^a = x_0^{a-2} r^2 - R^2 x_0^{a-2}
        shifted = SuperPolynomial(
            sig, {((ev[0] - 2,) + ev[1:], odd): c for (ev, odd), c in high.items()})
        low = SuperPolynomial(sig, {key: c for key, c in nf.terms.items() if key[0][0] < 2})
        nf = low + r2_small(sig) * shifted
        q = q - shifted


def ideal_member(p: SuperPolynomial) -> bool:
    """Exact membership test for the ideal generated by R^2."""
    return reduce_poly(p).is_zero()


def is_normal_form(p: SuperPolynomial) -> bool:
    return all(ev[0] <= 1 for ev, _ in p.terms)


def normal_form_keys(sig: Signature, k: int):
    """Degree-k monomials with variable-0 exponent at most 1."""
    return [key for key in monomial_keys(sig, k) if key[0][0] <= 1]


def graded_dim_F(k: int, sig: Signature) -> int:
    """Dimension of the degree-k slice of P/<R^2> by normal-form count.

    The count always equals dim P_k(m-1|2n) + dim P_{k-1}(m-1|2n), which is
    asserted here.
    """
    count = len(normal_form_keys(sig, k))
    closed = dim_P(sig.m - 1, sig.n, k) + dim_P(sig.m - 1, sig.n, k - 1)
    if count != closed:
        raise AssertionError(f"normal-form count {count} != closed form {closed}")
    return count
