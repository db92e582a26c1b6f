import random
from fractions import Fraction
from math import factorial

import pytest

from superfock.algebra import (R2, Signature, SuperPolynomial, apply_op,
                               monomials_up_to, r2_small, random_polynomial,
                               table_apply, term_product, theta2)
from superfock.liealg import tkk_for
from superfock.quotient import normal_form_keys, reduce_poly
from superfock.scalars import I, QQi
from superfock.schrodinger import abs_X, pi_apply, pi_op, pi_table

SIG = Signature(4, 1)
TKK = tkk_for(SIG)


def test_a_vector_of_w_is_its_reduced_polynomial():
    one = SuperPolynomial.one(SIG)
    assert reduce_poly(one) == one
    assert reduce_poly(R2(SIG)).is_zero()
    x0 = SuperPolynomial.variable(SIG, 0)
    assert reduce_poly(x0 * x0) == r2_small(SIG)


def test_appendix_actions_on_lowest_vector():
    v0 = SuperPolynomial.one(SIG)
    x0 = SuperPolynomial.variable(SIG, 0)
    assert pi_op(("E",), v0, 2) == x0.scale(-2)
    for k in range(1, SIG.nvars):
        assert pi_op(("bessel_mod", k), v0, 2) == SuperPolynomial.variable(SIG, k).scale(4)
    # halved Bessel at rate 4
    got = pi_op(("bessel_mod", 0), v0, 4).scale(Fraction(1, 2))
    assert got == x0.scale(8) + SuperPolynomial.constant(SIG, 4 - 2 * SIG.M)


def test_pi_table_values():
    v0 = SuperPolynomial.one(SIG)
    x0 = SuperPolynomial.variable(SIG, 0)
    assert pi_apply(TKK.minus(0), v0) == x0.scale(-2 * I)
    want = SuperPolynomial.constant(SIG, QQi(2 - SIG.M, 0, 2)) + x0.scale(2)
    assert pi_apply(TKK.L(0), v0) == want
    for k in range(1, SIG.nvars):
        assert pi_apply(TKK.plus(k), v0) == SuperPolynomial.variable(SIG, k).scale(-2 * I)


def pi_dispatch(X, q, rate):
    """The action of a TKK element written out case by case, the dispatch that
    ``pi_table`` replaced; an oracle for the table."""
    tkk, sig = X.tkk, q.sig
    out = SuperPolynomial.zero(sig)
    for idx, coeff in X.coeffs.items():
        kind, *rest = tkk.basis[idx]
        if kind == "minus":
            term = q.mul_var(rest[0]).scale(-2 * I)
        elif kind == "L":
            l = rest[0]
            if l == 0:
                term = q.scale(QQi(2 - sig.M, 0, 2)) - apply_op(("E",), q, rate)
            else:
                term = (apply_op(("d_lower", 0), q, rate).mul_var(l)
                        - apply_op(("d_lower", l), q, rate).mul_var(0))
        elif kind == "inn":
            term = apply_op(("L", rest[0], rest[1]), q, rate)
        else:  # plus
            term = apply_op(("bessel_mod", rest[0]), q, rate).scale(-I * Fraction(1, 2))
        out = out + term.scale(coeff)
    return reduce_poly(out)


@pytest.mark.parametrize("m,n", [(4, 0), (5, 1), (2, 2)])
def test_pi_table_equals_the_case_dispatch(m, n):
    sig = Signature(m, n)
    tkk = tkk_for(sig)
    keys = [key for d in range(3) for key in normal_form_keys(sig, d)]
    for rate in (0, 2):
        for a in range(tkk.dim):
            X = tkk.basis_element(a)
            for key in keys:
                q = SuperPolynomial.monomial(sig, key)
                assert table_apply(pi_table, pi_op, X, q, rate) == pi_dispatch(X, q, rate), \
                    (rate, a, key)
    # a combination of basis elements, so that shared operators are gathered
    X = tkk.L(0) + tkk.minus(1, I) + tkk.plus(0, 3)
    q = SuperPolynomial.monomial(sig, keys[-1])
    assert table_apply(pi_table, pi_op, X, q, 2) == pi_dispatch(X, q, 2)


def test_pi_representation_property():
    fs = [SuperPolynomial.monomial(SIG, key)
          for d in range(3) for key in normal_form_keys(SIG, d)]
    rng = random.Random(3)
    pairs = [(rng.randrange(TKK.dim), rng.randrange(TKK.dim)) for _ in range(120)]
    for (a, b) in pairs:
        X, Y = TKK.basis_element(a), TKK.basis_element(b)
        Z = TKK.bracket(X, Y)
        s = QQi(-1 if (TKK.parity(a) and TKK.parity(b)) else 1)
        for f in fs[:10]:
            lhs = pi_apply(X, pi_apply(Y, f)) - pi_apply(Y, pi_apply(X, f)).scale(s)
            assert reduce_poly(lhs) == pi_apply(Z, f)


@pytest.mark.parametrize("m,n", [(4, 1), (5, 0)])
def test_rate_operators_are_conjugated_by_the_exponential(m, n):
    """O at rate c on q equals O on q exp(-c x_0), divided by the exponential.

    The exponential is truncated at degree N, so both sides are compared in
    the degrees a second-order operator leaves untouched by the truncation."""
    N = 6
    sig = Signature(m, n)
    idx = range(sig.nvars)
    ops = [("d_upper", 0)] + [("d_lower", k) for k in idx] + [("E",), ("Delta",)]
    ops += [("L", i, j) for i in idx for j in idx if i != j or sig.parity(i)]
    ops += [("bessel_mod", k) for k in idx]
    for c in (2, 4):
        T = SuperPolynomial(sig, {((e,) + (0,) * (m - 1), ()): Fraction(-c) ** e / factorial(e)
                                  for e in range(N + 1)})
        for key in monomials_up_to(sig, 3):
            q = SuperPolynomial.monomial(sig, key)
            qT = q * T
            for op in ops:
                lhs, rhs = (p.homogeneous_components()
                            for p in (apply_op(op, qT), apply_op(op, q, c) * T))
                for d in range(N - 1):
                    assert lhs.get(d) == rhs.get(d)


def test_tangential_representative_independence():
    # the operator acts on the unreduced representative q + R^2 p, so the
    # shift reaches it; Delta is not tangential and must see the shift
    rng = random.Random(5)
    descriptors = [("E",), ("L", 0, 1), ("L", 4, 5),
                   ("bessel_mod", 0), ("bessel_mod", 2)]
    for _ in range(15):
        q = random_polynomial(SIG, 3, rng)
        p = random_polynomial(SIG, 2, rng)
        shifted = q + R2(SIG) * p
        for d in descriptors + [("Delta",)]:
            moved = reduce_poly(apply_op(d, shifted, 2))
            same = moved == pi_op(d, reduce_poly(q), 2)
            assert same is (d != ("Delta",)), d


def test_abs_X_squares_back():
    # term maps {((e,), odd): c} for c u^(e/2) t^odd: |X|^2 = u + theta^2/2
    for (m, n) in [(4, 1), (2, 2)]:
        sig = Signature(m, n)
        aX = abs_X(sig)
        want = {((2,), ()): 1}
        want.update({((0,), odd): c * Fraction(1, 2) for (_, odd), c in theta2(sig).terms.items()})
        assert term_product(aX, aX) == want


def test_vector_arithmetic_is_polynomial_arithmetic():
    v = SuperPolynomial.one(SIG)
    w = v.scale(QQi(0, 1))
    assert v + w == SuperPolynomial.one(SIG).scale(QQi(1, 1))
    assert (v - v).is_zero()
    assert w.conjugate() == SuperPolynomial.one(SIG).scale(QQi(0, -1))
