import random
from fractions import Fraction

import pytest

import superfock
from superfock import algebra, fock
from superfock.algebra import (R2, Signature, SuperPolynomial, apply_op,
                               monomial_keys, monomials_up_to, random_polynomial,
                               table_apply)
from superfock.bipoly import LEFT, RIGHT, bi_signature
from superfock.fock import (bessel_image, bf_covectors, bf_product,
                            bf_product_shift_oracle, bf_word_apply,
                            gram_nullspace, gram_rank, kernel,
                            kernel_coefficient, kernel_pair,
                            rho_apply, rho_lowering, rho_raising)
from superfock.harmonics import harmonic_basis
from superfock.liealg import tkk_for
from superfock.quotient import graded_dim_F, normal_form_keys, reduce_poly
from superfock.scalars import I, QQi, column_terms, poch
from superfock.schrodinger import pi_op, pi_table
from superfock.verify import Context, RunConfig, check_bf_oracle, check_bf_products
from test_algebra import parity
from test_golden import gram_json
from test_sb import slot_bessel_mod, slot_degree

SIG = Signature(4, 1, varset="z")
SIGX = Signature(4, 1)
TKK = tkk_for(SIGX)


def kernel_sum(cap, sig, sig_w):
    """The reproducing kernel summed over degrees 0..cap: the full kernel, truncated."""
    out = SuperPolynomial.zero(bi_signature(sig, sig_w))
    for k in range(cap + 1):
        out = out + kernel(k, sig, sig_w)
    return out


def zvar(i, sig=SIG):
    return SuperPolynomial.variable(sig, i)


def test_bf_values():
    one = SuperPolynomial.one(SIG)
    M = SIG.M
    assert bf_product(one, one) == QQi(1)
    assert bf_product(zvar(0), zvar(0)) == QQi(M - 2)
    assert bf_product(zvar(4), zvar(5)) == QQi(2 - M)
    assert bf_product(zvar(5), zvar(4)) == QQi(M - 2)
    assert bf_product(zvar(1), zvar(2)) == QQi(0)
    assert bf_product(zvar(1), one) == QQi(0)


def test_bf_superhermitian_and_oracle():
    rng = random.Random(0)
    monos = [SuperPolynomial.monomial(SIG, key)
             for d in range(4) for key in monomial_keys(SIG, d)]
    sample = rng.sample(monos, 40)
    for p in sample:
        for q in sample:
            v = bf_product(p, q)
            assert v == bf_product_shift_oracle(p, q)
            s = QQi(-1 if (parity(p) and parity(q)) else 1)
            assert v == s * bf_product(q, p).conjugate()
            if list(p.homogeneous_components()) != list(q.homogeneous_components()):
                assert v == QQi(0)


def test_bf_shift_identity():
    rng = random.Random(1)
    for _ in range(60):
        d = rng.randrange(3)
        keys = monomial_keys(SIG, d)
        p = SuperPolynomial.monomial(SIG, keys[rng.randrange(len(keys))])
        keys2 = monomial_keys(SIG, d + 1)
        q = SuperPolynomial.monomial(SIG, keys2[rng.randrange(len(keys2))])
        i = rng.randrange(SIG.nvars)
        zp = p.mul_var(i)
        if zp.is_zero():
            continue
        s = QQi(-1 if (SIG.parity(i) and parity(p)) else 1)
        assert bf_product(zp, q) == s * bf_product(p, bessel(i, q))


def test_bf_ideal_annihilation():
    rng = random.Random(2)
    for _ in range(20):
        p = random_polynomial(SIG, 2, rng)
        q = random_polynomial(SIG, 4, rng)
        assert bf_product(R2(SIG) * p, q) == QQi(0)
        assert bf_product(q, R2(SIG) * p) == QQi(0)


def test_kernel_values():
    sig = Signature(4, 0, varset="z")
    sigw = Signature(4, 0, varset="w")
    assert kernel_coefficient(sig.M, 0) == 1
    k0 = kernel(0, sig, sigw)
    assert slot_constant(k0, LEFT) == SuperPolynomial.one(sigw)
    k1 = kernel(1, sig, sigw)
    got = kernel_pair(SuperPolynomial.variable(sig, 0), k1)
    assert got == SuperPolynomial.variable(sigw, 0)
    for k in range(4):
        kern = kernel(k, sig, sigw)
        for key in normal_form_keys(sig, k):
            p = SuperPolynomial.monomial(sig, key)
            assert reduce_poly(kernel_pair(p, kern)) == \
                reduce_poly(SuperPolynomial(sigw, dict(p.terms)))


def test_kernel_coefficient_equals_its_closed_form():
    # the closed form that kernel_coefficient had before it read the series
    # coefficient: 1 / (4^k k! (M/2 - 1)_k)
    def closed_form(M, k):
        den = poch(Fraction(M, 2) - 1, k)
        out = Fraction(1)
        for j in range(1, k + 1):
            out /= 4 * j
        return out / den
    for M in range(3, 10):
        for k in range(7):
            assert kernel_coefficient(M, k) == closed_form(M, k), (M, k)


def test_kernel_refusal():
    with pytest.raises(ValueError):
        kernel(1, SIG)  # M = 2, so M - 2 = 0 lies in -2N
    with pytest.raises(ValueError):
        kernel_coefficient(-2, 3)


def test_gram_ranks():
    sig = Signature(4, 0, varset="z")
    for k in range(3):
        assert gram_rank(k, sig) == graded_dim_F(k, sig)
    blob = gram_json(1, sig)
    assert '"degree": 1' in blob


def test_gram_degenerate_with_witness():
    sig = Signature(2, 2, varset="z")
    k = 3  # 2 - M/2 with M = -2
    d = graded_dim_F(k, sig)
    r = gram_rank(k, sig)
    assert r < d
    nulls = gram_nullspace(k, sig)
    assert nulls
    v = nulls[0]
    for key in normal_form_keys(sig, k):
        assert bf_product(SuperPolynomial.monomial(sig, key), v) == QQi(0)
    # reductions of honest harmonics lie in the radical
    h = harmonic_basis(k, sig)[0]
    hr = reduce_poly(h)
    for key in normal_form_keys(sig, k):
        assert bf_product(SuperPolynomial.monomial(sig, key), hr) == QQi(0)


def pi_complex_apply(X, p):
    """The complexified Schrodinger action pi_C: ``pi_table`` at rate 0."""
    return table_apply(pi_table, pi_op, X, p, 0)


def test_pi_complex_values():
    one = SuperPolynomial.one(SIG)
    M = SIG.M
    assert pi_complex_apply(TKK.L(0), one) == \
        SuperPolynomial.constant(SIG, QQi(2 - M, 0, 2))
    assert pi_complex_apply(TKK.minus(1), one) == zvar(1).scale(-2 * I)
    assert pi_complex_apply(TKK.plus(1), zvar(1)) == \
        SuperPolynomial.constant(SIG, -I * QQi(M - 2, 0, 2))


def test_rho_table_values():
    z0 = zvar(0)
    M = SIG.M
    got = rho_apply(TKK.L(0), z0)
    want = reduce_poly((z0 * z0 - SuperPolynomial.constant(SIG, M - 2)).scale(QQi(1, 0, 2)))
    assert got == want


def test_rho_cayley_composition():
    fs = [SuperPolynomial.monomial(SIG, key)
          for d in range(4) for key in normal_form_keys(SIG, d)]
    rng = random.Random(3)
    for _ in range(40):
        a = rng.randrange(TKK.dim)
        X = TKK.basis_element(a)
        cX = TKK.cayley(X)
        p = rng.choice(fs)
        assert rho_apply(X, p) == pi_complex_apply(cX, p)


def test_rho_ladders():
    z0 = zvar(0)
    M = SIG.M
    lower, raiser = rho_lowering(TKK), rho_raising(TKK)
    for k in range(6):
        zk = reduce_poly(z0 ** k)
        want = reduce_poly((z0 ** (k - 1)).scale(I * QQi(k * (M + k - 3)))
                           if k else SuperPolynomial.zero(SIG))
        assert rho_apply(lower, zk) == want
        assert rho_apply(raiser, zk) == reduce_poly((z0 ** (k + 1)).scale(I))


def test_rho_representation_sample():
    fs = [SuperPolynomial.monomial(SIG, key)
          for d in range(3) for key in normal_form_keys(SIG, d)]
    rng = random.Random(4)
    for _ in range(50):
        a, b = rng.randrange(TKK.dim), rng.randrange(TKK.dim)
        X, Y = TKK.basis_element(a), TKK.basis_element(b)
        Z = TKK.bracket(X, Y)
        s = QQi(-1 if (TKK.parity(a) and TKK.parity(b)) else 1)
        for p in fs[:8]:
            lhs = rho_apply(X, rho_apply(Y, p)) - rho_apply(Y, rho_apply(X, p)).scale(s)
            assert reduce_poly(lhs) == rho_apply(Z, p)


def test_rho_skew_sample():
    fs = [SuperPolynomial.monomial(SIG, key)
          for d in range(3) for key in normal_form_keys(SIG, d)]
    rng = random.Random(5)
    for _ in range(40):
        a = rng.randrange(TKK.dim)
        X = TKK.basis_element(a)
        p, q = rng.choice(fs), rng.choice(fs)
        s = QQi(-1 if (TKK.parity(a) and parity(p)) else 1)
        assert bf_product(rho_apply(X, p), q) + s * bf_product(p, rho_apply(X, q)) == QQi(0)


@pytest.mark.parametrize("m,n", [(4, 1), (2, 2), (5, 0)])
def test_bf_covectors_agree_with_the_word_route(m, n):
    sig = Signature(m, n, varset="z")
    keys = monomials_up_to(sig, 3)
    for ka in keys:
        vec = bf_covectors(sig, sum(ka[0]) + len(ka[1]))[ka]
        for kb in keys:
            word = bf_word_apply(ka, SuperPolynomial.monomial(sig, kb)).constant_term()
            assert vec.get(kb, QQi(0)) == word, (ka, kb)


@pytest.mark.parametrize("m,n", [(4, 1), (2, 2), (5, 0)])
def test_bessel_images_are_homogeneous(m, n):
    sig = Signature(m, n, varset="z")
    for k in range(5):
        for i in range(sig.nvars):
            for key in monomial_keys(sig, k):
                image = bessel_image(sig, i, key)
                assert all(sum(ev) + len(odd) == k - 1 for ev, odd in image[1])
                assert column_terms(image) == \
                    bessel(i, SuperPolynomial.monomial(sig, key)).terms


def multiply_in_place_of_bessel(monkeypatch):
    """Patch the calculus's Bessel entry to multiply by z_i where Bessel(z_i)
    lowers the degree."""
    mul = algebra._OPS["mul"]
    monkeypatch.setitem(algebra._OPS, "bessel_mod", lambda sig, key, c, i: mul(sig, key, c, i))


def test_bessel_image_refuses_an_image_of_the_wrong_degree(monkeypatch):
    # the uncached function reads the patched closed form
    multiply_in_place_of_bessel(monkeypatch)
    with pytest.raises(AssertionError, match="outside degree 0"):
        bessel_image.__wrapped__(SIG, 0, ((1, 0, 0, 0), ()))


def test_the_word_route_refuses_an_image_of_the_wrong_degree(monkeypatch, empty_caches):
    # the memo is emptied first, so that the word route reaches the patched
    # closed form; a refused image is not cached
    multiply_in_place_of_bessel(monkeypatch)
    with pytest.raises(AssertionError, match="outside degree 0"):
        bf_word_apply(((1, 0, 0, 0), ()), zvar(0))


@pytest.mark.parametrize("m,n", [(4, 1), (5, 1), (6, 0)])
def test_bessel_image_equals_bessel_modified(m, n):
    sig = Signature(m, n, varset="z")
    for key in monomials_up_to(sig, 4):
        mono = SuperPolynomial.monomial(sig, key)
        for i in range(sig.nvars):
            d, nums = bessel_image(sig, i, key)
            assert d > 0 and all(a or b for a, b in nums.values())
            assert column_terms((d, nums)) == bessel(i, mono).terms, (i, key)


def bessel(i, q):
    return apply_op(("bessel_mod", i), q)


# The polynomial word route that the integer columns replaced, kept as their
# oracle: the Bessel word applied to polynomials by ``apply_op``.

def polynomial_word_apply(key, q):
    for i in reversed(fock._word_indices(key)):
        if q.is_zero():
            break
        q = bessel(i, q)
    return q


def polynomial_bf_product(p, q):
    qbar = q.conjugate()
    total = QQi(0)
    for key, a in p.terms.items():
        total = total + a * polynomial_word_apply(key, qbar).constant_term()
    return total


def gaussian_polynomial(sig, rng, degree, nterms):
    """Seeded terms of degree <= degree with coefficients (a + b i)/d: zero
    real or imaginary parts among them, denominators 1, 2, 3, 6."""
    terms = {}
    for _ in range(nterms):
        keys = monomial_keys(sig, rng.randrange(degree + 1))
        a, b = rng.choice([(rng.randrange(-3, 4), 0), (0, rng.randrange(-3, 4)),
                           (rng.randrange(-3, 4), rng.randrange(-3, 4))])
        if a or b:
            terms[keys[rng.randrange(len(keys))]] = QQi(a, b, rng.choice([1, 2, 3, 6]))
    return SuperPolynomial(sig, terms)


@pytest.mark.parametrize("m,n", [(4, 1), (5, 1)])
def test_integer_word_route_agrees_with_the_polynomial_word_route(m, n):
    sig = Signature(m, n, varset="z")
    rng = random.Random(m * 10 + n)
    polys = [gaussian_polynomial(sig, rng, 4, 6) for _ in range(16)]
    assert any(c.d > 1 for p in polys for c in p.terms.values())
    assert any(c.a == 0 for p in polys for c in p.terms.values())
    assert any(c.b == 0 for p in polys for c in p.terms.values())
    seen_nonzero = 0
    for p in polys:
        for q in polys:
            want = polynomial_bf_product(p, q)
            assert bf_product(p, q) == want
            seen_nonzero += not want.is_zero()
        for key in p.terms:
            assert bf_word_apply(key, p) == polynomial_word_apply(key, p), key
    assert seen_nonzero > len(polys)


@pytest.fixture
def empty_caches():
    superfock.clear_caches()
    yield
    superfock.clear_caches()


# Images on normal-form monomials of degree <= 2 at (5,1).  Doubled alone,
# each of the 82 nonzero ones fails check_bf_oracle, which compares the memo
# with the formula on every monomial of degree <= 2.  These five also fail
# check_bf_products at degree 3: the covectors and the shift identity read
# the memo in different orders.
@pytest.mark.parametrize("i,key", [
    (0, ((1, 0, 0, 0, 0), ())),            # B_0 z_0
    (1, ((0, 1, 1, 0, 0), ())),            # B_1 z_1 z_2
    (3, ((1, 0, 0, 1, 0), ())),            # B_3 z_0 z_3
    (6, ((0, 0, 0, 0, 1), (5,))),          # B_t2 z_4 t_1
    (5, ((0, 0, 0, 0, 0), (5, 6))),        # B_t1 t_1 t_2
])
def test_a_doubled_bessel_image_fails_the_oracles(empty_caches, i, key):
    ctx = Context(RunConfig(5, 1, max_degree=2, suites=("fock",)))
    double_bessel_image(ctx.sig_z, i, key)
    assert not check_bf_products(ctx, 3)[0]
    assert not check_bf_oracle(ctx, 2)[0]


def double_bessel_image(sig, i, key):
    d, nums = bessel_image(sig, i, key)
    assert nums
    for k, (a, b) in nums.items():
        nums[k] = (2 * a, 2 * b)


def test_each_doubled_bessel_image_fails_the_dual_route(empty_caches):
    sig = Signature(5, 1, varset="z")
    images = [(i, key) for d in range(3) for key in normal_form_keys(sig, d)
              for i in range(sig.nvars) if bessel_image(sig, i, key)[1]]
    assert len(images) == 82
    for i, key in images:
        superfock.clear_caches()
        ctx = Context(RunConfig(5, 1, max_degree=2, suites=("fock",)))
        double_bessel_image(ctx.sig_z, i, key)
        ok, detail = check_bf_oracle(ctx, 2)
        assert ok is False and f"Bessel({i})" in detail, (i, key)


def slot_constant(p, slot):
    """Terms free of the slot's variables, as a polynomial on the other slot."""
    bsig = p.sig
    return SuperPolynomial(bsig.halves[1 - slot],
                           {bsig.split(k)[1 - slot]: c for k, c in p.terms.items()
                            if not slot_degree(bsig, k, slot)})


def slot_bessel_kernel_pair(p, kern):
    """The Bessel word of each term of p on the kernel's first slot, then its
    constant in that slot."""
    total = SuperPolynomial.zero(kern.sig.halves[RIGHT])
    for key, a in p.terms.items():
        cur = kern
        for i in reversed(fock._word_indices(key)):
            cur = slot_bessel_mod(cur, LEFT, i)
            if cur.is_zero():
                break
        total = total + slot_constant(cur, LEFT).scale(a)
    return total


@pytest.mark.parametrize("m,n", [(5, 1), (4, 0)])
def test_kernel_pair_agrees_with_the_slot_bessel_word(m, n):
    sig = Signature(m, n, varset="z")
    sigw = Signature(m, n, varset="w")
    kern = kernel_sum(3, sig, sigw)
    for key in monomials_up_to(sig, 3):
        p = SuperPolynomial.monomial(sig, key, QQi(1, 2, 3))
        assert kernel_pair(p, kern) == slot_bessel_kernel_pair(p, kern), key
