import random

import pytest
from hypothesis import given, settings, strategies as st

from superfock.algebra import (R2, Signature, SuperPolynomial, angular_L,
                               bessel, bessel_modified, dim_P, euler,
                               laplacian, merge_odd, monomial_keys,
                               monomials_up_to, r2_small, random_polynomial,
                               theta2)
from superfock.scalars import QQi, _acc

SIG = Signature(4, 1)


def var(i, sig=SIG):
    return SuperPolynomial.variable(sig, i)


def rand_polys(sig, degree, count, seed=0):
    rng = random.Random(seed)
    return [random_polynomial(sig, degree, rng) for _ in range(count)]


def test_signature_metric():
    assert SIG.M == 2
    assert SIG.beta[0][0] == QQi(-1)
    assert SIG.beta[1][1] == QQi(1)
    assert SIG.beta[4][5] == QQi(-1)
    assert SIG.beta[5][4] == QQi(1)
    # beta * beta_inv = identity
    for i in range(SIG.nvars):
        for j in range(SIG.nvars):
            s = sum((SIG.beta[i][k] * SIG.beta_inv[k][j] for k in range(SIG.nvars)), QQi(0))
            assert s == (QQi(1) if i == j else QQi(0))
    with pytest.raises(ValueError):
        Signature(1, 0)
    bad = [[QQi(1), QQi(1)], [QQi(1), QQi(1)]]
    with pytest.raises(ValueError):
        Signature(2, 0, beta=bad + [])


def test_merge_odd_signs():
    assert merge_odd((4,), (5,)) == (1, (4, 5))
    assert merge_odd((5,), (4,)) == (-1, (4, 5))
    assert merge_odd((4,), (4,)) is None
    assert merge_odd((), (4, 5)) == (1, (4, 5))


def test_odd_squares_vanish():
    t1, t2 = var(4), var(5)
    assert (t1 * t1).is_zero()
    assert t1 * t2 == -(t2 * t1)
    p = var(1) + t1 * t2
    assert p * p == var(1) * var(1) + (var(1) * (t1 * t2)).scale(2)


def test_derivations():
    t1, t2 = var(4), var(5)
    assert var(1).d_upper(1) == SuperPolynomial.one(SIG)
    assert var(0).d_lower(0) == SuperPolynomial.constant(SIG, -1)
    assert (t1 * t2).d_upper(4) == t2
    assert (t1 * t2).d_upper(5) == -t1
    # graded Leibniz for an odd derivation
    p, q = t1 * var(1), t2
    lhs = (p * q).d_upper(4)
    rhs = p.d_upper(4) * q + (p * q.d_upper(4)).scale(-1)
    assert lhs == rhs


def test_sl2_examples():
    one = SuperPolynomial.one(SIG)
    assert laplacian(R2(SIG) * one) == SuperPolynomial.constant(SIG, 2 * SIG.M)
    assert euler(var(1) * var(4)) == (var(1) * var(4)).scale(2)
    assert laplacian(var(0) * var(0)) == SuperPolynomial.constant(SIG, -2)
    assert r2_small(SIG) == R2(SIG) + var(0) * var(0)
    assert theta2(SIG) == (var(4) * var(5)).scale(2)


@pytest.mark.parametrize("m,n", [(4, 0), (4, 1), (2, 2)])
def test_sl2_triple_all_monomials(m, n):
    sig = Signature(m, n)
    r2 = R2(sig)
    for d in range(5):
        for key in monomial_keys(sig, d):
            p = SuperPolynomial.monomial(sig, key)
            assert laplacian(r2 * p) - r2 * laplacian(p) == \
                euler(p).scale(4) + p.scale(2 * sig.M)
            assert laplacian(euler(p)) - euler(laplacian(p)) == laplacian(p).scale(2)
            assert r2 * euler(p) - euler(r2 * p) == (r2 * p).scale(-2)


def test_angular_examples():
    assert angular_L(0, 1, var(0)) == var(1)
    assert angular_L(1, 2, var(1)) == -var(2)
    with pytest.raises(ValueError):
        angular_L(1, 1, var(1))
    # L_ii for odd i is allowed: 2 x_4 d_4 with the lowered derivative d_4 = -d^5
    assert angular_L(4, 4, var(5)) == var(4).scale(-2)
    assert angular_L(4, 4, var(4) * var(5)).is_zero()


def test_bessel_examples():
    sigz = Signature(4, 1, varset="z")
    z0 = SuperPolynomial.variable(sigz, 0)
    # Btilde(z0) z0 = M - 2
    assert bessel_modified(0, z0) == SuperPolynomial.constant(sigz, sigz.M - 2)


def test_bessel_supercommutativity_and_commutator():
    sig = Signature(5, 1)
    lam = QQi(2 - sig.M)
    rng = random.Random(2)
    for _ in range(25):
        p = random_polynomial(sig, 3, rng)
        i = rng.randrange(sig.nvars)
        j = rng.randrange(sig.nvars)
        s = -1 if (sig.parity(i) and sig.parity(j)) else 1
        assert bessel_modified(i, bessel_modified(j, p)) == \
            bessel_modified(j, bessel_modified(i, p)).scale(s)
        lhs = bessel(lam, i, p.mul_var(j)) - bessel(lam, i, p).mul_var(j).scale(s)
        lij = SuperPolynomial.zero(sig) if (i == j and sig.parity(i) == 0) \
            else angular_L(i, j, p)
        rhs = (p.scale(sig.M - 2) + euler(p).scale(2)).scale(sig.beta[i][j]) - lij.scale(2)
        assert lhs == rhs


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=30)
def test_dim_p_matches_enumeration(seed):
    rng = random.Random(seed)
    m = rng.randrange(2, 6)
    n = rng.randrange(0, 3)
    k = rng.randrange(0, 5)
    sig = Signature(m, n)
    assert len(monomial_keys(sig, k)) == dim_P(m, n, k)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25)
def test_product_graded_commutative(seed):
    rng = random.Random(seed)
    sig = Signature(3, 1)
    for d1 in range(3):
        for key1 in [monomial_keys(sig, d1)[rng.randrange(len(monomial_keys(sig, d1)))]]:
            for d2 in range(3):
                keys2 = monomial_keys(sig, d2)
                key2 = keys2[rng.randrange(len(keys2))]
                p = SuperPolynomial.monomial(sig, key1)
                q = SuperPolynomial.monomial(sig, key2)
                s = -1 if (p.parity() and q.parity()) else 1
                assert p * q == (q * p).scale(s)


def test_serialization_format():
    p = SuperPolynomial.monomial(SIG, ((2, 1, 0, 0), (4, 5)), QQi(1, 0, 2))
    assert str(p) == "1/2*x0^2*x1*t1*t2"
    q = var(0).scale(QQi(0, -1)) + SuperPolynomial.one(SIG)
    assert str(q) == "1 + -1*i*x0"
    assert str(SuperPolynomial.zero(SIG)) == "0"


# The chained derivations that the one-pass kernel replaced, kept as its oracle.

def chained_d_upper(p, i):
    sig = p.sig
    out = {}
    for (ev, odd), c in p.terms.items():
        if i < sig.m:
            if ev[i]:
                _acc(out, (ev[:i] + (ev[i] - 1,) + ev[i + 1:], odd), c * ev[i])
        elif i in odd:
            pos = odd.index(i)
            _acc(out, (ev, odd[:pos] + odd[pos + 1:]), -c if pos & 1 else c)
    return SuperPolynomial(sig, out)


def chained_d_lower(p, j, rate=0):
    if rate and p.sig.beta[j][0]:
        return chained_d_lower(p, j) - p.scale(QQi.coerce(rate) * p.sig.beta[j][0])
    out = SuperPolynomial.zero(p.sig)
    for i, b in p.sig.beta_rows[j]:
        out = out + chained_d_upper(p, i).scale(b)
    return out


def chained_laplacian(p, rate=0):
    out = SuperPolynomial.zero(p.sig)
    for i in range(p.sig.nvars):
        out = out + chained_d_lower(chained_d_upper(p, i), i)
    if rate:
        c = QQi.coerce(rate)
        out = out - chained_d_lower(p, 0).scale(c + c) + p.scale(c * c * p.sig.beta[0][0])
    return out


@pytest.mark.parametrize("m,n", [(4, 1), (2, 2), (5, 0)])
def test_one_pass_derivations_agree_with_the_chained_sums(m, n):
    sig = Signature(m, n)
    for key in monomials_up_to(sig, 3):
        p = SuperPolynomial.monomial(sig, key, QQi(1, 2, 3))
        for i in range(sig.nvars):
            assert p.d_upper(i) == chained_d_upper(p, i), (key, i)
        for rate in (0, 2):
            for j in range(sig.nvars):
                assert p.d_lower(j, rate) == chained_d_lower(p, j, rate), (key, j, rate)
            assert laplacian(p, rate) == chained_laplacian(p, rate), (key, rate)
