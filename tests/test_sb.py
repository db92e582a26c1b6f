import random
from fractions import Fraction

import pytest

from superfock.algebra import (R2, Signature, SuperPolynomial, add_term_product, apply_op,
                               derive_key, merge_odd, monomial_keys, r2_small)
from superfock import sbtransform
from superfock.bipoly import (LEFT, RIGHT, BiSignature, _slot_r2_power, bi_signature,
                              pairing, pairing_power)
from superfock.fock import bf_covectors, bf_product, rho_apply
from superfock.integral import _integral_direct, gamma_engine, moment, w_form
from superfock.liealg import tkk_for
from superfock.quotient import nf_terms, normal_form_keys, reduce_poly
from superfock.sbtransform import (SBTransform, b0_identity_failures, b_series_coeff,
                                   exp_coefficient, exp_z0_truncation)
from superfock.scalars import I, PiScalar, QQi, _acc, column_terms, int_column
from superfock.schrodinger import pi_apply
from superfock.verify import (Context, RunConfig, check_b0_identities,
                              check_intertwining, check_intertwining_inverse, run_check)

SIG = Signature(4, 0)
SB = SBTransform(SIG)
SIGZ = SB.sig_z
TKK = tkk_for(SIG)


def embed(p: SuperPolynomial, bsig: BiSignature, slot: int) -> SuperPolynomial:
    """A polynomial on one slot's signature, as a bi-polynomial."""
    halves = [((0,) * sig.m, ()) for sig in bsig.halves]
    out = {}
    for key, c in p.terms.items():
        halves[slot] = key
        out[bsig.join(*halves)] = c
    return SuperPolynomial(bsig, out)


def b_series_truncation(sig_x: Signature, sig_z: Signature, alpha: int,
                        max_degree: int) -> SuperPolynomial:
    """Degree-truncated B_alpha(x|z) as one bi-polynomial, the oracle of the
    term-by-term series; its coefficients are read from the module, so a
    patched ``sbtransform.b_series_coeff`` reaches both."""
    bsig = bi_signature(sig_x, sig_z)
    out = SuperPolynomial.zero(bsig)
    for l in range(max_degree + 1):
        out = out + SuperPolynomial(bsig, pairing_power(sig_x, sig_z, l)).scale(
            sbtransform.b_series_coeff(sig_x.M, alpha, l))
    return out


def test_pairing_polynomial():
    p = pairing(SIG, SIGZ)
    # 2 x0 z0 + 2 sum x_i z_i for the diagonal block
    x0key = ((1, 0, 0, 0), ())
    assert p.terms[p.sig.join(x0key, x0key)] == QQi(2)
    x1key = ((0, 1, 0, 0), ())
    assert p.terms[p.sig.join(x1key, x1key)] == QQi(2)
    bsig = bi_signature(SIG, SIGZ)
    assert SuperPolynomial(bsig, pairing_power(SIG, SIGZ, 0)) == SuperPolynomial.one(bsig)


@pytest.mark.parametrize("m,n", [(4, 1), (3, 2)])
def test_pairing_power_is_the_ring_power_of_the_pairing(m, n):
    # the int map of P^l against l ring products of the polynomial P
    sig, sigz = Signature(m, n), Signature(m, n, varset="z")
    p = pairing(sig, sigz)
    for l in range(5):
        power = pairing_power(sig, sigz, l)
        assert all(type(v) is int for v in power.values())
        assert SuperPolynomial(p.sig, power) == p ** l, l


def test_pairing_odd_block():
    sigx = Signature(4, 1)
    sigz = Signature(4, 1, varset="z")
    p = pairing(sigx, sigz)
    key_t1 = ((0, 0, 0, 0), (4,))
    key_t2 = ((0, 0, 0, 0), (5,))
    assert p.terms[p.sig.join(key_t1, key_t2)] == QQi(2)   # beta^{45} = 1
    assert p.terms[p.sig.join(key_t2, key_t1)] == QQi(-2)  # beta^{54} = -1


def test_series_coefficients():
    M = SIG.M
    assert b_series_coeff(M, 0, 0) == 1
    assert b_series_coeff(M, 0, 1) == Fraction(2, M - 2)  # 1/(1!*(M/2-1))
    for alpha in range(3):
        for l in range(1, 7):
            assert l * b_series_coeff(M, alpha, l) == b_series_coeff(M, alpha + 1, l - 1)
    with pytest.raises(ValueError):
        b_series_coeff(2, 0, 1)


def test_sb_of_lowest_vector_and_pi_image():
    v0 = SuperPolynomial.one(SIG)
    assert SB.sb(v0) == SuperPolynomial.one(SIGZ)
    got = SB.sb(pi_apply(TKK.minus(0), v0))
    want = (SuperPolynomial.variable(SIGZ, 0)
            + SuperPolynomial.constant(SIGZ, SIG.M - 2)).scale(-I * QQi(1, 0, 2))
    assert got == want


def test_sb_requires_superdimension_four():
    sb = SBTransform(Signature(5, 1))  # M = 3
    with pytest.raises(ValueError, match="forward transform requires superdimension >= 4"):
        sb.sb(SuperPolynomial.one(sb.sig_x))


def test_sb_reduces_its_input():
    # the transform is constant on each class modulo <R^2>, and the memo of
    # monomial images only ever holds normal-form monomials (x_0-exponent <= 1)
    sig = Signature(5, 0)
    sb = SBTransform(sig)
    x = [SuperPolynomial.variable(sig, i) for i in range(sig.m)]
    assert sb.sb(x[0] * x[0]) == sb.sb(r2_small(sig))
    assert not sb.sb(x[0] * x[0]).is_zero()
    q = x[0] + x[1].scale(I) + SuperPolynomial.one(sig)
    p = x[2] * x[3] + x[4].scale(3)
    assert sb.sb(q + R2(sig) * p) == sb.sb(q)
    assert sb._columns and all(ev[0] <= 1 for ev, _ in sb._columns)


def test_inverse_examples():
    assert SB.sb_inverse(SuperPolynomial.one(SIGZ)) == SuperPolynomial.one(SIG)
    got = SB.sb_inverse(SuperPolynomial.variable(SIGZ, 0))
    want = SuperPolynomial.variable(SIG, 0).scale(4) \
        - SuperPolynomial.constant(SIG, SIG.M - 2)
    assert got == want
    for k in range(1, SIG.nvars):
        got = SB.sb_inverse(SuperPolynomial.variable(SIGZ, k, 2))
        assert got == SuperPolynomial.variable(SIG, k).scale(8)


def test_round_trips():
    for d in range(4):
        for key in normal_form_keys(SIG, d):
            f = SuperPolynomial.monomial(SIG, key)
            assert SB.sb_inverse(SB.sb(f)) == f
            p = SuperPolynomial.monomial(SIGZ, key)
            assert SB.sb(SB.sb_inverse(p)) == reduce_poly(p)


def test_hermite():
    assert SB.hermite(((0, 0, 0, 0), ())) == SuperPolynomial.one(SIG)
    He0 = SB.hermite(((1, 0, 0, 0), ()))
    assert He0 == SuperPolynomial.variable(SIG, 0).scale(8) \
        + SuperPolynomial.constant(SIG, 4 - 2 * SIG.M)
    He1 = SB.hermite(((0, 1, 0, 0), ()))
    assert He1 == SuperPolynomial.variable(SIG, 1).scale(8)
    for d in range(3):
        for key in monomial_keys(SIG, d):
            H = SB.hermite(key)
            assert isinstance(H, SuperPolynomial) and H.sig == SIG
            assert SB.sb(H) == reduce_poly(SuperPolynomial.monomial(SIGZ, key, QQi(2 ** d)))


def test_hermite_odd_support():
    sig = Signature(6, 1)
    sb = SBTransform(sig)
    key = ((0,) * 6, (6,))
    H = sb.hermite(key)
    assert H == SuperPolynomial.variable(sig, 6).scale(8)
    assert sb.sb(H) == SuperPolynomial.variable(sb.sig_z, 6).scale(2)
    key2 = ((0,) * 6, (6, 7))
    assert sb.sb(sb.hermite(key2)) == \
        reduce_poly(SuperPolynomial.monomial(sb.sig_z, key2, QQi(4)))


def intertwine_inverse(sb, X, p):
    """pi(X) SBinv(p) - SBinv(rho(X) p) on polynomials, zero iff the identity
    holds: the polynomial oracle of the column contraction in
    ``check_intertwining_inverse``."""
    return pi_apply(X, sb.sb_inverse(p)) - sb.sb_inverse(rho_apply(X, p))


def test_unitarity_and_intertwining_samples():
    fs = [SuperPolynomial.monomial(SIG, key)
          for d in range(3) for key in normal_form_keys(SIG, d)]
    for f in fs:
        for g in fs:
            assert bf_product(SB.sb(f), SB.sb(g)) == w_form(f, g)
    rng = random.Random(6)
    for _ in range(30):
        X = TKK.basis_element(rng.randrange(TKK.dim))
        f = rng.choice(fs)
        assert (SB.sb(pi_apply(X, f)) - rho_apply(X, SB.sb(f))).is_zero()
        p = SuperPolynomial.monomial(SIGZ, rng.choice(
            [k for d in range(4) for k in normal_form_keys(SIGZ, d)]))
        assert intertwine_inverse(SB, X, p).is_zero()


def test_inverse_defined_at_m3():
    # forward transform needs M >= 4, but the inverse-side identity is purely
    # algebraic and holds at M = 3 as well
    sig = Signature(5, 1)
    sb = SBTransform(sig)
    tkk = tkk_for(sig)
    rng = random.Random(8)
    fps = [SuperPolynomial.monomial(sb.sig_z, key)
           for d in range(4) for key in normal_form_keys(sb.sig_z, d)]
    for _ in range(25):
        X = tkk.basis_element(rng.randrange(tkk.dim))
        p = rng.choice(fps)
        assert intertwine_inverse(sb, X, p).is_zero()


def test_inverse_refused_where_undefined():
    sig = Signature(4, 1)  # M = 2
    sb = SBTransform(sig)
    with pytest.raises(ValueError):
        sb.sb_inverse(SuperPolynomial.variable(sb.sig_z, 0))


def integral_route_image(sb, mono, integrals):
    """The forward image by the route that ``sb_column`` replaced, kept as its
    oracle: each x-monomial of the carrier integrated as a PiScalar (memoized
    in integrals) and normalized on its own, then the full product with the
    exp(-z_0) series, truncated at degree cap + 2."""
    cap = sum(mono[0]) + len(mono[1])
    carrier = b_series_truncation(sb.sig_x, sb.sig_z, 0, cap + 2) \
        * embed(SuperPolynomial.monomial(sb.sig_x, mono), sb.bsig, LEFT)
    gamma = gamma_engine(sb.sig_x)
    acc = {}
    for key, c in carrier.terms.items():
        xkey, zkey = sb.bsig.split(key)
        val = integrals.get(xkey)
        if val is None:
            val = integrals[xkey] = _integral_direct(SuperPolynomial.monomial(sb.sig_x, xkey), 4)
        if not val.is_zero():
            _acc(acc, zkey, (val * PiScalar(c) / gamma).as_qqi())
    image = SuperPolynomial(sb.sig_z, acc) * exp_z0_truncation(sb.sig_z, cap + 2)
    return reduce_poly(SuperPolynomial(sb.sig_z, {
        key: c for key, c in image.terms.items() if sum(key[0]) + len(key[1]) <= cap + 2}))


def qqi_forward_column(sb, mono):
    """The forward image of x^mono by the ``QQi`` accumulation that
    ``sb_column`` replaced, kept as its oracle: c_l v times the moment of each
    term of P^l summed in ``QQi``, then times exp(-z_0) truncated at degree
    cap + 2, reduced, and read by ``int_column``."""
    mev, modd = mono
    cap = sum(mev) + len(modd)
    acc = {}
    for l in range(cap + 3):
        c = QQi.coerce(sbtransform.b_series_coeff(sb.M, 0, l))
        for key, v in pairing_power(sb.sig_x, sb.sig_z, l).items():
            (xev, xodd), zkey = sb.bsig.split(key)
            merged = merge_odd(xodd, modd)
            if merged is None:
                continue
            sign, odd = merged
            if len(modd) & len(zkey[1]) & 1:
                sign = -sign
            val = c * v * moment(sb.sig_x, (tuple(a + b for a, b in zip(xev, mev)), odd), 4)
            _acc(acc, zkey, val if sign > 0 else -val)
    powers = [QQi.coerce(sbtransform.exp_coefficient(e)) for e in range(cap + 3)]
    image = {}
    for (ev, odd), c in acc.items():
        for e in range(cap + 3 - sum(ev) - len(odd)):
            _acc(image, ((ev[0] + e,) + ev[1:], odd), c * powers[e])
    return int_column(nf_terms(sb.sig_z, image))


def qqi_inverse_column(sb, key):
    """The inverse image of z^key by the ``QQi`` accumulation that
    ``inverse_column`` replaced, kept as its oracle: c_l (-1)^e/e! v times the
    pairing of each shifted z-monomial of P^l with z^key, summed in ``QQi``."""
    k = sum(key[0]) + len(key[1])
    cov = bf_covectors(sb.sig_z, k)
    out = {}
    for l in range(k + 1):
        e = k - l
        f = QQi.coerce(sbtransform.b_series_coeff(sb.M, 0, l)) \
            * QQi.coerce(sbtransform.exp_coefficient(e))
        for jkey, v in pairing_power(sb.sig_x, sb.sig_z, l).items():
            xkey, (zev, zodd) = sb.bsig.split(jkey)
            val = cov[((zev[0] + e,) + zev[1:], zodd)].get(key)
            if val is not None:
                _acc(out, xkey, f * v * val)
    return int_column(nf_terms(sb.sig_x, out))


@pytest.mark.parametrize("m,n", [(5, 0), (6, 1), (8, 2)])
def test_forward_images_agree_with_the_integral_route(m, n):
    # (8,2) has two odd pairs, so the odd merge and crossing signs of the
    # pre-split series meet odd monomials on both sides; degree <= 1 there.
    # The integer column is the QQi route's int_column, denominator included.
    sb = SBTransform(Signature(m, n))
    integrals = {}
    for d in range(2 if n == 2 else 4):
        for key in normal_form_keys(sb.sig_x, d):
            column = sb.sb_column(key)
            assert column == qqi_forward_column(sb, key), key
            image = SuperPolynomial(sb.sig_z, column_terms(column))
            assert image == integral_route_image(sb, key, integrals), key


@pytest.mark.parametrize("m,n", [(5, 0), (5, 1), (6, 1)])
def test_inverse_columns_are_the_qqi_route_as_integer_columns(m, n):
    sb = SBTransform(Signature(m, n))
    for d in range(4):
        for key in normal_form_keys(sb.sig_z, d):
            assert sb.inverse_column(key) == qqi_inverse_column(sb, key), key


def test_exp_truncation():
    e = exp_z0_truncation(SIGZ, 3)
    z0 = SuperPolynomial.variable(SIGZ, 0)
    want = SuperPolynomial.one(SIGZ) - z0 + (z0 * z0).scale(Fraction(1, 2)) \
        - (z0 * z0 * z0).scale(Fraction(1, 6))
    assert e == want
    assert [exp_coefficient(e) for e in range(4)] == [1, -1, Fraction(1, 2), Fraction(-1, 6)]


# The slot operators of bi-polynomials that the integer route of
# check_b0_identities (sbtransform.b0_identity_failures) replaced, and that route:
# one slot-reduced difference per identity, each series truncated at the degree
# its side needs.  The Fock tests read slot_bessel_mod as well.

def slot_degree(bsig, key, slot):
    """Degree of a joined key in one slot's variables."""
    ev, odd = bsig.split(key)[slot]
    return sum(ev) + len(odd)


def slot_euler(p, slot):
    """Euler operator of one slot: each term times its degree in that slot."""
    return SuperPolynomial(p.sig, {key: c * slot_degree(p.sig, key, slot)
                                   for key, c in p.terms.items()})


def slot_laplacian(p, slot):
    """The metric Laplacian of one slot, sum_b d_lower(b) d_upper(b) over its
    variables, each term's d_upper(b) image taken once."""
    sig = p.sig
    out = {}
    for key, c in p.terms.items():
        for b in sig.slots[slot]:
            t = derive_key(sig.m, b, key)
            if t:
                lower = apply_op(("d_lower", b), SuperPolynomial.monomial(sig, t[1]))
                for k, v in lower.terms.items():
                    _acc(out, k, c * t[0] * v)
    return SuperPolynomial(sig, out)


def slot_bessel_mod(p, slot, k, laplacian=None, lam=None):
    """``bessel_mod`` at index k of one slot, with lambda = 2 - M of that slot
    unless given; ``laplacian`` is ``slot_laplacian(p, slot)``, computed once
    by a caller that applies the operator at several indices."""
    bsig = p.sig
    if laplacian is None:
        laplacian = slot_laplacian(p, slot)
    a = bsig.slots[slot][k]
    if lam is None:
        lam = 2 - bsig.halves[slot].M
    sign = -1 if k == 0 else 1
    out = {}
    # (2E - lambda) d_lower(a), E counting the slot degree
    for key, c in apply_op(("d_lower", a), p).terms.items():
        _acc(out, key, c * (sign * (2 * slot_degree(bsig, key, slot) - lam)))
    for key, c in laplacian.mul_var(a).terms.items():
        _acc(out, key, c if sign < 0 else -c)
    return SuperPolynomial(bsig, out)


def reduce_slot(p, slot):
    """Normal form of one slot modulo its R^2 ideal: a term with slot exponent
    a >= 2 of x_0 becomes the slot's r^(2 floor(a/2)) times the term with
    exponent a mod 2, one product on the joined alphabet."""
    bsig = p.sig
    x0 = bsig.slots[slot][0]
    out = {}
    for key, c in p.terms.items():
        ev, odd = key
        a = ev[x0]
        if a <= 1:
            _acc(out, key, c)
        else:
            add_term_product(out, _slot_r2_power(bsig, slot, a // 2),
                             (ev[:x0] + (a % 2,) + ev[x0 + 1:], odd), c)
    return SuperPolynomial(bsig, out)


def b0_identity_differences(sig, sig_z, max_degree, lam=None):
    """(label, lhs - rhs) for each kernel-series identity, in checking order,
    on the terms of right-slot degree <= max_degree."""
    def series(alpha, top):
        return b_series_truncation(sig, sig_z, alpha, top)

    b0 = series(0, max_degree + 1)
    b0_cut, b0_low = series(0, max_degree), series(0, max_degree - 1)
    b1 = series(1, max_degree)
    x, z = b0.sig.slots  # joined indices of the x and z variables
    for k in list(range(1, sig.nvars)) + [0]:
        yield (f"z-derivative (k={k})",
               apply_op(("d_lower", z[k]), b0) - b1.mul_var(x[k]).scale(-2 if k == 0 else 2))
    yield ("Euler contraction",
           slot_euler(b0_cut, RIGHT) - pairing(sig, sig_z) * series(1, max_degree - 1))
    lap_z, lap_x = slot_laplacian(b0, RIGHT), slot_laplacian(b0_cut, LEFT)
    for i in range(sig.nvars):
        yield (f"Bessel eigenfunction (z side, i={i})",
               reduce_slot(slot_bessel_mod(b0, RIGHT, i, lap_z, lam)
                           - b0_cut.mul_var(x[i]).scale(4), LEFT))
        yield (f"Bessel eigenfunction (x side, i={i})",
               reduce_slot(slot_bessel_mod(b0_cut, LEFT, i, lap_x, lam)
                           - b0_low.mul_var(z[i]).scale(4), RIGHT))


def difference_route_failures(sig, sigz, max_degree, lam=None):
    """(label, smallest right-slot degree <= max_degree of a term of the
    difference, or None) per identity."""
    bsig = bi_signature(sig, sigz)
    return [(label, min((d for d in (slot_degree(bsig, key, RIGHT) for key in diff.terms)
                         if d <= max_degree), default=None))
            for label, diff in b0_identity_differences(sig, sigz, max_degree, lam)]


# The route that b0_identity_differences replaced, kept as the oracle of both:
# the full series on both sides, a chained slot Laplacian, each side reduced on
# its own one monomial at a time, then compared one right-slot degree at a time.

def slot_degree_part(p, slot, d):
    return SuperPolynomial(p.sig, {k: c for k, c in p.terms.items()
                                   if slot_degree(p.sig, k, slot) == d})


def chained_slot_bessel_mod(p, slot, k):
    a = p.sig.slots[slot][k]
    lam = QQi(2 - p.sig.halves[slot].M)
    laplacian = SuperPolynomial.zero(p.sig)
    for b in p.sig.slots[slot]:
        laplacian = laplacian + apply_op(("d_lower", b), apply_op(("d_upper", b), p))
    t = apply_op(("d_lower", a), p)
    res = t.scale(-lam) + slot_euler(t, slot).scale(2) - laplacian.mul_var(a)
    return -res if k == 0 else res


def monomialwise_reduce_slot(p, slot):
    bsig = p.sig
    out = {}
    for key, c in p.terms.items():
        halves = list(bsig.split(key))
        red = reduce_poly(SuperPolynomial.monomial(bsig.halves[slot], halves[slot]))
        for skey, sc in red.terms.items():
            halves[slot] = skey
            _acc(out, bsig.join(*halves), c * sc)
    return SuperPolynomial(bsig, out)


def oracle_b0_failures(sig, sigz, max_degree):
    """(label, first right-slot degree where the sides differ, or None) per identity."""
    b0 = b_series_truncation(sig, sigz, 0, max_degree + 1)
    b1 = b_series_truncation(sig, sigz, 1, max_degree + 1)
    x, z = b0.sig.slots

    def first(lhs, rhs):
        return next((d for d in range(max_degree + 1)
                     if slot_degree_part(lhs, RIGHT, d) != slot_degree_part(rhs, RIGHT, d)),
                    None)

    out = [(f"z-derivative (k={k})",
            first(apply_op(("d_lower", z[k]), b0), b1.mul_var(x[k]).scale(-2 if k == 0 else 2)))
           for k in list(range(1, sig.nvars)) + [0]]
    out.append(("Euler contraction",
                first(slot_euler(b0, RIGHT), pairing(sig, sigz) * b1)))
    for i in range(sig.nvars):
        out.append((f"Bessel eigenfunction (z side, i={i})",
                    first(monomialwise_reduce_slot(chained_slot_bessel_mod(b0, RIGHT, i), LEFT),
                          monomialwise_reduce_slot(b0.mul_var(x[i]).scale(4), LEFT))))
        out.append((f"Bessel eigenfunction (x side, i={i})",
                    first(monomialwise_reduce_slot(chained_slot_bessel_mod(b0, LEFT, i), RIGHT),
                          monomialwise_reduce_slot(b0.mul_var(z[i]).scale(4), RIGHT))))
    return out


def oracle_verdict(failures, max_degree):
    for label, d in failures:
        if d is not None:
            return False, f"{label} fails at degree {d}"
    return True, f"series identities to degree {max_degree}"


def test_b0_truncation_eigenfunction_mod_ideal():
    b0 = b_series_truncation(SIG, SIGZ, 0, 4)
    lhs = reduce_slot(slot_bessel_mod(b0, RIGHT, 0), LEFT)
    rhs = reduce_slot(b0.mul_var(b0.sig.slots[LEFT][0]).scale(4), LEFT)
    for d in range(4):
        assert slot_degree_part(lhs, RIGHT, d) == slot_degree_part(rhs, RIGHT, d)


@pytest.mark.parametrize("m,n", [(4, 0), (3, 1)])
def test_hoisted_slot_laplacian_gives_the_chained_bessel_operator(m, n):
    sig = Signature(m, n)
    sigz = Signature(m, n, varset="z")
    b0 = b_series_truncation(sig, sigz, 0, 4)
    for slot in (LEFT, RIGHT):
        lap = slot_laplacian(b0, slot)
        for k in range(sig.nvars):
            want = chained_slot_bessel_mod(b0, slot, k)
            assert slot_bessel_mod(b0, slot, k, lap) == want, (slot, k)
            assert slot_bessel_mod(b0, slot, k) == want, (slot, k)


def test_slot_reduction_agrees_with_the_monomialwise_route():
    b0 = b_series_truncation(Signature(3, 1), Signature(3, 1, varset="z"), 0, 4)
    for slot in (LEFT, RIGHT):
        assert reduce_slot(b0, slot) == monomialwise_reduce_slot(b0, slot)


@pytest.mark.parametrize("m,n", [(3, 0), (5, 1)])
def test_b0_identities_agree_with_the_oracle(m, n):
    ctx = Context(RunConfig(m=m, n=n, max_degree=1))
    failures = oracle_b0_failures(ctx.sig, ctx.sig_z, 4)
    assert all(d is None for _, d in failures)
    assert check_b0_identities(ctx, 4) == oracle_verdict(failures, 4) \
        == (True, "series identities to degree 4")


@pytest.mark.parametrize("m,n", [(3, 0), (5, 1), (5, 0)])
def test_a_wrong_series_coefficient_fails_every_identity_family_as_the_oracle_does(
        m, n, monkeypatch):
    coeff = sbtransform.b_series_coeff

    def doubled_at_l_2(M, alpha, l):
        value = coeff(M, alpha, l)
        return 2 * value if (alpha, l) == (0, 2) else value

    monkeypatch.setattr(sbtransform, "b_series_coeff", doubled_at_l_2)
    ctx = Context(RunConfig(m=m, n=n, max_degree=1))
    failures = oracle_b0_failures(ctx.sig, ctx.sig_z, 4)
    assert list(b0_identity_failures(ctx.sig, ctx.sig_z, 4)) == failures
    families = {label.split("=")[0] for label, d in failures if d is not None}
    assert families == {"z-derivative (k", "Euler contraction",
                        "Bessel eigenfunction (z side, i", "Bessel eigenfunction (x side, i"}
    assert check_b0_identities(ctx, 4) == oracle_verdict(failures, 4) \
        == (False, "z-derivative (k=1) fails at degree 1")
    # both directions read c_2 from one split of the series: the inverse at
    # z-degree 2, and where M >= 4 the forward images, whose tail check fails
    ok, witness = check_intertwining_inverse(ctx, 1)
    assert ok is False and witness.startswith("e0- on"), witness
    if ctx.sig.M >= 4:
        forward = run_check("sb", "intertwining", "", lambda: check_intertwining(ctx, 1))
        assert forward.status == "fail" and forward.detail == (
            "AssertionError: transform tail does not vanish at degree 2 for ((0, 0, 0, 0, 0), ())")


def test_the_inverse_passes_on_the_refusal_of_a_pairing_that_is_not_integral():
    # M = 3, so every series coefficient is defined; only the pairing refuses
    beta = ((-1, 0, 0), (0, 1, 0), (0, 0, 4))
    sb = SBTransform(Signature(3, 0, beta=beta))
    with pytest.raises(ValueError, match="a pairing with real integer coefficients"):
        sb.sb_inverse(SuperPolynomial.variable(sb.sig_z, 0))


@pytest.mark.parametrize("m,n", [(3, 0), (5, 1)])
def test_a_wrong_bessel_lambda_fails_at_the_same_label_and_degree_on_both_routes(m, n):
    sig, sigz = Signature(m, n), Signature(m, n, varset="z")
    failures = list(b0_identity_failures(sig, sigz, 4, lam=3 - sig.M))
    assert failures == difference_route_failures(sig, sigz, 4, lam=3 - sig.M)
    # lambda enters only the Bessel identities: the z side first fails on the
    # constant term of its image, the x side on the linear one
    for label, d in failures:
        assert d == (None if not label.startswith("Bessel") else 0 if "z side" in label
                     else 1), label


@pytest.mark.parametrize("m,n", [(3, 0), (5, 1)])
def test_the_first_failing_identity_in_order_is_reported_not_the_lowest_degree(
        m, n, monkeypatch):
    # a doubled c_3 fails z-derivative (k=1) first at degree 2, and the wrong
    # lambda fails every z-side Bessel identity, later in order, at degree 0
    coeff = sbtransform.b_series_coeff

    def doubled_at_l_3(M, alpha, l):
        value = coeff(M, alpha, l)
        return 2 * value if (alpha, l) == (0, 3) else value

    monkeypatch.setattr(sbtransform, "b_series_coeff", doubled_at_l_3)
    sig, sigz = Signature(m, n), Signature(m, n, varset="z")
    failures = list(b0_identity_failures(sig, sigz, 4, lam=3 - sig.M))
    assert failures == difference_route_failures(sig, sigz, 4, lam=3 - sig.M)
    assert dict(failures)["Bessel eigenfunction (z side, i=0)"] == 0
    assert oracle_verdict(failures, 4) == (False, "z-derivative (k=1) fails at degree 2")


def test_a_pairing_that_is_not_integral_is_refused():
    beta = ((-1, 0, 0), (0, 1, 0), (0, 0, 4))  # the pairing has x_2 z_2 / 2
    sig, sigz = Signature(3, 0, beta=beta), Signature(3, 0, varset="z", beta=beta)
    with pytest.raises(ValueError, match="a pairing with real integer coefficients"):
        list(b0_identity_failures(sig, sigz, 2))


def test_b0_identities_hold_at_two_odd_pairs():
    # (8,2) at the suite's budget for more than 7 variables: no shape of the
    # acceptance matrix has n >= 2 with M >= 4
    ctx = Context(RunConfig(m=8, n=2, max_degree=1))
    assert check_b0_identities(ctx, 4) == (True, "series identities to degree 4")
