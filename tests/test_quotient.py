import random
from functools import partial

import pytest

from superfock.algebra import (R2, Signature, SuperPolynomial, r2_small,
                               random_polynomial)
from superfock.bipoly import LEFT, RIGHT, _slot_r2_power, bi_signature
from superfock.quotient import (graded_dim_F, ideal_member, is_normal_form,
                                normal_form_keys, reduce_poly, reduce_terms,
                                reduce_with_quotient)
from superfock.scalars import QQi, _acc, int_column

SIG = Signature(4, 1, varset="z")


def test_reduce_examples():
    z0 = SuperPolynomial.variable(SIG, 0)
    assert reduce_poly(z0 * z0) == r2_small(SIG)
    assert reduce_poly(R2(SIG)).is_zero()
    assert reduce_poly(z0 * z0 * z0) == z0 * r2_small(SIG)


def test_membership():
    assert ideal_member(R2(SIG) * SuperPolynomial.variable(SIG, 1)
                        * SuperPolynomial.variable(SIG, 4))
    assert not ideal_member(SuperPolynomial.variable(SIG, 1))
    assert ideal_member(reduce_poly(SuperPolynomial.zero(SIG)))


def test_division_identity():
    rng = random.Random(9)
    for _ in range(50):
        p = random_polynomial(SIG, 5, rng, nterms=6)
        nf, q = reduce_with_quotient(p)
        assert is_normal_form(nf)
        assert nf + R2(SIG) * q == p
        assert reduce_poly(p) == nf
        assert reduce_poly(nf) == nf


def test_reduction_is_multiplicative():
    rng = random.Random(10)
    for _ in range(30):
        p = random_polynomial(SIG, 4, rng)
        q = random_polynomial(SIG, 4, rng)
        assert reduce_poly(p * q) == reduce_poly(reduce_poly(p) * reduce_poly(q))


def test_dimensions():
    assert graded_dim_F(2, Signature(4, 1, varset="z")) == 18
    assert graded_dim_F(0, Signature(2, 0, varset="z")) == 1
    assert graded_dim_F(1, Signature(4, 0, varset="z")) == 4
    assert graded_dim_F(3, Signature(2, 2, varset="z")) == 26
    for k in range(5):
        keys = normal_form_keys(SIG, k)
        assert all(key[0][0] <= 1 for key in keys)
        assert len(keys) == graded_dim_F(k, SIG)


def termwise_reduce_poly(p):
    """The route that ``reduce_poly`` replaced, kept as its oracle: one
    polynomial sum per term with x_0 exponent >= 2."""
    sig = p.sig
    out = SuperPolynomial(sig, {key: c for key, c in p.terms.items() if key[0][0] <= 1})
    for (ev, odd), c in p.terms.items():
        a = ev[0]
        if a >= 2:
            mono = SuperPolynomial(sig, {((a % 2,) + ev[1:], odd): c})
            out = out + r2_small(sig) ** (a // 2) * mono
    return out


def seeded_polynomial(sig, rng, nterms, x0_exponents=(0,)):
    """Terms with random even exponents (variable 0 at the given joined
    indices up to 5), random odd subsets and coefficients (a + b i)/d with
    zero real or imaginary parts and denominators 1, 2, 3, 6."""
    odd_vars = range(sig.m, sig.nvars)
    terms = {}
    for _ in range(nterms):
        ev = [rng.randrange(3) for _ in range(sig.m)]
        for i in x0_exponents:
            ev[i] = rng.randrange(6)
        odd = tuple(sorted(rng.sample(odd_vars, rng.randrange(min(3, sig.nvars - sig.m) + 1))))
        a, b = rng.choice([(rng.randrange(-3, 4), 0), (0, rng.randrange(-3, 4)),
                           (rng.randrange(-3, 4), rng.randrange(-3, 4))])
        if a or b:
            terms[(tuple(ev), odd)] = QQi(a, b, rng.choice([1, 2, 3, 6]))
    return SuperPolynomial(sig, terms)


# n >= 2 so that merging an odd pair of r^2 into a term can change its sign
@pytest.mark.parametrize("m,n", [(4, 1), (3, 2), (5, 0)])
def test_reduce_poly_agrees_with_the_termwise_route(m, n):
    rng = random.Random(m * 10 + n)
    sig = Signature(m, n)
    for _ in range(40):
        p = seeded_polynomial(sig, rng, 8)
        assert max(key[0][0] for key in p.terms) >= 2
        want = termwise_reduce_poly(p)
        got = reduce_poly(p)
        assert list(got.terms.items()) == list(want.terms.items())


def integer_reduce_slot(p, slot):
    """``reduce_terms`` on one slot of the real and the imaginary numerators of p."""
    d, nums = int_column(p.terms)
    bsig = p.sig
    re, im = (reduce_terms({k: ab[j] for k, ab in nums.items()}, bsig.slots[slot][0],
                           partial(_slot_r2_power, bsig, slot))
              for j in (0, 1))
    return SuperPolynomial(p.sig, {k: QQi(re.get(k, 0), im.get(k, 0), d)
                                   for k in re.keys() | im.keys()})


def split_join_reduce_slot(p, slot):
    """The route that the slot reduction replaced, kept as its oracle: every term
    split into its slot keys, the slot key reduced by ``reduce_poly`` once per
    call, and the pieces joined again."""
    bsig = p.sig
    half = bsig.halves[slot]
    reduced = {}
    out = {}
    for key, c in p.terms.items():
        halves = list(bsig.split(key))
        skey = halves[slot]
        if skey[0][0] <= 1:
            _acc(out, key, c)
            continue
        red = reduced.get(skey)
        if red is None:
            red = reduced[skey] = termwise_reduce_poly(SuperPolynomial.monomial(half, skey)).terms
        for rkey, rc in red.items():
            halves[slot] = rkey
            _acc(out, bsig.join(*halves), c * rc)
    return SuperPolynomial(bsig, out)


# n >= 2 so that merging an odd pair of r^2 into a term can change its sign
@pytest.mark.parametrize("m,n", [(3, 1), (3, 2), (4, 0)])
def test_reduce_slot_agrees_with_the_split_join_route(m, n):
    rng = random.Random(m * 10 + n)
    bsig = bi_signature(Signature(m, n), Signature(m, n, varset="z"))
    x0s = tuple(idx[0] for idx in bsig.slots)
    for _ in range(30):
        p = seeded_polynomial(bsig, rng, 8, x0s)
        for slot in (LEFT, RIGHT):
            assert max(key[0][x0s[slot]] for key in p.terms) >= 2
            want = split_join_reduce_slot(p, slot)
            assert integer_reduce_slot(p, slot) == want, slot
