import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

import superfock
from superfock.algebra import (_OPS, R2, Signature, SuperPolynomial, _signature,
                               apply_op, dim_P, merge_odd, monomial_keys,
                               monomials_up_to, op_column, op_image, r2_small,
                               random_polynomial, standard_metric, taylor_terms,
                               theta2)
from superfock.bipoly import BiSignature, bi_signature
from superfock.scalars import QQi, _acc, column_terms, int_column

SIG = Signature(4, 1)


def var(i, sig=SIG):
    return SuperPolynomial.variable(sig, i)


def parity(p: SuperPolynomial) -> int:
    """Z2-parity of a homogeneous polynomial; raises on mixed parity."""
    ps = {len(odd) & 1 for _, odd in p.terms}
    if len(ps) > 1:
        raise ValueError("polynomial has mixed parity")
    return ps.pop() if ps else 0


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


def test_a_signature_is_one_instance_per_shape_variable_set_and_metric():
    sig = Signature(5, 1)
    assert Signature(5, 1) is sig
    assert Signature(5, 1, varset="z") is not sig and Signature(5, 1, varset="z") != sig
    # an explicit standard metric, as QQi rows or as lists of ints
    assert Signature(5, 1, beta=standard_metric(5, 1)) is sig
    assert Signature(5, 1, beta=[[int(v.a) for v in row] for row in sig.beta]) is sig
    rows = [[-1, 0, 0], [0, 1, 0], [0, 0, 4]]
    other = Signature(3, 0, beta=rows)
    assert other is Signature(3, 0, beta=tuple(map(tuple, rows))) is not Signature(3, 0)
    assert other.beta[2][2] == QQi(4) and other.beta_inv[2][2] == QQi(1, 0, 4)


def test_a_refused_metric_leaves_no_intern_entry():
    before = _signature.cache_info().currsize
    for beta in ([[1, 1], [1, 1]], [[1, 0], [0, 1], [0, 0]], [[1, 2], [3, 1]]):
        with pytest.raises(ValueError):
            Signature(2, 0, beta=beta)
    assert _signature.cache_info().currsize == before


def test_a_joined_signature_is_never_handed_out_as_a_plain_one():
    left, right = Signature(2, 0), Signature(2, 1, varset="z")
    bsig = bi_signature(left, right)
    for sig in (Signature(bsig.m, bsig.n, bsig.varset, beta=bsig.beta),
                Signature(bsig.m, bsig.n, bsig.varset)):
        assert type(sig) is Signature and sig is not bsig and sig != bsig
    assert bi_signature(left, right) is bsig and type(bsig) is BiSignature


def test_the_intern_table_is_a_cleared_module_cache():
    old = Signature(4, 2)
    assert "superfock.algebra._signature" in superfock.cache_stats()
    superfock.clear_caches()
    assert _signature.cache_info().currsize == 0
    new = Signature(4, 2)
    assert new is not old and new == old and hash(new) == hash(old)
    assert Signature(4, 2) is new
    assert (SuperPolynomial.variable(old, 1) + SuperPolynomial.variable(new, 2)).sig is old


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


def d_upper(p, i):
    return apply_op(("d_upper", i), p)


def test_derivations():
    t1, t2 = var(4), var(5)
    assert d_upper(var(1), 1) == SuperPolynomial.one(SIG)
    assert apply_op(("d_lower", 0), var(0)) == SuperPolynomial.constant(SIG, -1)
    assert d_upper(t1 * t2, 4) == t2
    assert d_upper(t1 * t2, 5) == -t1
    # graded Leibniz for an odd derivation
    p, q = t1 * var(1), t2
    lhs = d_upper(p * q, 4)
    rhs = d_upper(p, 4) * q + (p * d_upper(q, 4)).scale(-1)
    assert lhs == rhs


def euler(p, rate=0):
    return apply_op(("E",), p, rate)


def laplacian(p, rate=0):
    return apply_op(("Delta",), p, rate)


def angular_L(i, j, p, rate=0):
    return apply_op(("L", i, j), p, rate)


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
    assert apply_op(("bessel_mod", 0), z0) == SuperPolynomial.constant(sigz, sigz.M - 2)


def test_bessel_supercommutativity_and_commutator():
    sig = Signature(5, 1)
    lam = QQi(2 - sig.M)
    rng = random.Random(2)
    for _ in range(25):
        p = random_polynomial(sig, 3, rng)
        i = rng.randrange(sig.nvars)
        j = rng.randrange(sig.nvars)
        s = -1 if (sig.parity(i) and sig.parity(j)) else 1
        Bi, Bj = ("bessel_mod", i), ("bessel_mod", j)
        assert apply_op(Bi, apply_op(Bj, p)) == apply_op(Bj, apply_op(Bi, p)).scale(s)
        B = ("bessel", lam, i)
        lhs = apply_op(B, p.mul_var(j)) - apply_op(B, p).mul_var(j).scale(s)
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
                s = -1 if (parity(p) and parity(q)) else 1
                assert p * q == (q * p).scale(s)


def test_serialization_format():
    p = SuperPolynomial.monomial(SIG, ((2, 1, 0, 0), (4, 5)), QQi(1, 0, 2))
    assert str(p) == "1/2*x0^2*x1*t1*t2"
    q = var(0).scale(QQi(0, -1)) + SuperPolynomial.one(SIG)
    assert str(q) == "1 + -1*i*x0"
    assert str(SuperPolynomial.zero(SIG)) == "0"


def test_a_taylor_sum_stops_where_the_nilpotent_power_vanishes():
    # exp at 0 composed with theta^2 at two odd pairs: (theta^2)^3 = 0, so
    # three table entries are read and a longer table no further
    sig = Signature(6, 2)
    one = SuperPolynomial.one(sig)
    th = theta2(sig)
    want = (one + th + (th * th).scale(QQi(1, 0, 2))).terms
    for length in (3, 5):
        assert taylor_terms(th.terms, [one.terms] * length, one.terms) == want
    # the square at the body x0 composed with x0 + t1 t2: (t1 t2)^2 = 0, so
    # the second derivative is never read
    x0, tt = var(0), var(4) * var(5)
    table = [(x0 * x0).terms, x0.scale(2).terms]
    assert taylor_terms(tt.terms, table, SuperPolynomial.one(SIG).terms) == \
        ((x0 + tt) * (x0 + tt)).terms
    assert taylor_terms({}, [x0.terms], SuperPolynomial.one(SIG).terms) == x0.terms


def test_a_taylor_sum_refuses_a_table_that_runs_out():
    sig = Signature(6, 2)
    one = SuperPolynomial.one(sig).terms
    with pytest.raises(ValueError, match="derivative table too short: need order 2"):
        taylor_terms(theta2(sig).terms, [one, one], one)
    with pytest.raises(ValueError, match="derivative table too short: need order 1"):
        taylor_terms((var(4) * var(5)).terms, [one], one)


@pytest.mark.parametrize("other", [(5, 1), (3, 1), (4, 0), (4, 2)])
@pytest.mark.parametrize("side", [0, 1])
def test_ring_operations_refuse_a_polynomial_of_another_signature(other, side):
    # exponent tuples of another length must not be added short, nor a
    # polynomial of the same m but other odd variables taken as one of SIG;
    # the polynomial of SIG stands left (side 0) or right (side 1)
    f = var(0) + var(4) * var(5)
    g = var(1, Signature(*other))
    a, b = (f, g) if side == 0 else (g, f)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError, match="signature mismatch"):
            op()


# The polynomial operators that the closed forms of ``_OPS`` replaced, kept as
# their oracle: chained single derivations, ring products and the rate
# corrections written out on polynomials.

def chained_d_upper(p, i, rate=0):
    sig = p.sig
    out = {}
    for (ev, odd), c in p.terms.items():
        if i < sig.m:
            if ev[i]:
                _acc(out, (ev[:i] + (ev[i] - 1,) + ev[i + 1:], odd), c * ev[i])
        elif i in odd:
            pos = odd.index(i)
            _acc(out, (ev, odd[:pos] + odd[pos + 1:]), -c if pos & 1 else c)
    out = SuperPolynomial(sig, out)
    return out - p.scale(rate) if rate and i == 0 else out


def chained_d_lower(p, j, rate=0):
    if rate and p.sig.beta[j][0]:
        return chained_d_lower(p, j) - p.scale(QQi.coerce(rate) * p.sig.beta[j][0])
    out = SuperPolynomial.zero(p.sig)
    for i, b in enumerate(p.sig.beta[j]):
        if b:
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


@cache
def variables(sig):
    return [SuperPolynomial.variable(sig, i) for i in range(sig.nvars)]


def chained_euler(p, rate=0):
    out = SuperPolynomial(p.sig, {key: c * (sum(key[0]) + len(key[1]))
                                  for key, c in p.terms.items()})
    return out - (variables(p.sig)[0] * p).scale(rate) if rate else out


def oracle_images(p, rate):
    """name -> (args -> image of p at rate) for each ``_OPS`` name, with the
    derivations and the Laplacian of p formed once."""
    sig, x = p.sig, variables(p.sig)
    dl = [chained_d_lower(p, j, rate) for j in range(sig.nvars)]
    lap = chained_laplacian(p, rate)

    def angular(i, j):
        if i == j and sig.parity(i) == 0:
            raise ValueError("L_ii is only defined for odd indices")
        left, right = x[i] * dl[j], x[j] * dl[i]
        return left + right if sig.parity(i) and sig.parity(j) else left - right

    def bessel(lam, k):
        t = dl[k]
        return (t.scale(-QQi.coerce(lam)) + chained_euler(t, rate).scale(2)
                - x[k] * lap)

    return {
        "d_upper": lambda i: chained_d_upper(p, i, rate),
        "d_lower": dl.__getitem__,
        "E": lambda: chained_euler(p, rate),
        "Delta": lambda: lap,
        "L": angular,
        "bessel": bessel,
        "bessel_mod": lambda k: bessel(2 - sig.M, k).scale(-1 if k == 0 else 1),
        "mul": lambda i: x[i] * p,
        "R2": lambda: R2(sig) * p,
        "one": lambda: p,
    }


def every_descriptor(sig):
    idx = range(sig.nvars)
    out = [("E",), ("Delta",), ("R2",), ("one",)]
    out += [(name, i) for name in ("d_upper", "d_lower", "mul", "bessel_mod") for i in idx]
    out += [("bessel", QQi(1, 1, 2), k) for k in idx]
    out += [("L", i, j) for i in idx for j in idx if i != j or sig.parity(i)]
    return out


@pytest.mark.parametrize("m,n", [
    (4, 1), (2, 2), (5, 0), (6, 1),
    pytest.param((2, 0), (2, 1), id="bi-2-0-2-1"),
])
def test_one_pass_derivations_agree_with_the_chained_sums(m, n):
    """Each closed form against its polynomial oracle at rates 0, 2, 4 and 1/3:
    ``op_image`` (every coefficient a ``QQi``) and ``op_column`` on every
    monomial of degree <= 4, and their linear extension
    ``apply_op`` on the sum of all those monomials with seeded Gaussian
    coefficients, so that a wrong image of any one monomial shows."""
    if isinstance(m, tuple):
        sig = bi_signature(Signature(*m), Signature(*n, varset="z"))
    else:
        sig = Signature(m, n)
    descriptors = every_descriptor(sig)
    keys = monomials_up_to(sig, 4)
    rng = random.Random(0)
    p = SuperPolynomial(sig, {key: QQi(rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 4))
                              for key in keys})
    for rate in (0, 2, 4, Fraction(1, 3)):
        for key in keys:
            images = oracle_images(SuperPolynomial.monomial(sig, key), rate)
            assert set(images) == set(_OPS)
            for d in descriptors:
                want = images[d[0]](*d[1:]).terms
                image = op_image(sig, d, key, rate)
                assert image == want and all(type(v) is QQi for v in image.values()), \
                    (key, d, rate)
                assert column_terms(op_column(sig, d, key, rate)) == want, (key, d, rate)
        images = oracle_images(p, rate)
        for d in descriptors:
            assert apply_op(d, p, rate) == images[d[0]](*d[1:]), (d, rate)
    with pytest.raises(ValueError):
        op_column(sig, ("L", 1, 1), keys[0])


# a metric with rows of two entries, row 0 among them, and a scaled odd block
COUPLED = ((-1, 1, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 0, -3), (0, 0, 0, 3, 0))


@pytest.mark.parametrize("m,n,beta", [
    pytest.param(3, 0, ((-1, 0, 0), (0, 1, 0), (0, 0, 4)), id="diagonal-3-0"),
    pytest.param(3, 1, COUPLED, id="coupled-3-1"),
])
def test_the_angular_closed_form_agrees_with_its_polynomial_oracle(m, n, beta):
    """``_OPS["L"]``, read off the metric rows, against x_i d_lower(j) -+
    x_j d_lower(i) on polynomials on two metrics that are not standard (the
    standard ones are in the all-descriptor test above): at rates 0 and 2,
    for every index pair (odd i = j included, even i = j refused), on every
    monomial of degree <= 4.  On the coupled metric the rate term of
    d_lower(0) meets a second derivative of the same row."""
    sig = Signature(m, n, beta=beta)
    assert max(map(len, sig.beta_rows)) == (2 if beta is COUPLED else 1)
    pairs = [(i, j) for i in range(sig.nvars) for j in range(sig.nvars)]
    for rate in (0, 2):
        for key in monomials_up_to(sig, 4):
            angular = oracle_images(SuperPolynomial.monomial(sig, key), rate)["L"]
            for i, j in pairs:
                if i == j and i < sig.m:
                    with pytest.raises(ValueError):
                        _OPS["L"](sig, key, rate, i, j)
                    continue
                image = _OPS["L"](sig, key, rate, i, j)
                assert all(type(v) is int for v in image.values()), (key, i, j, rate)
                assert SuperPolynomial(sig, image) == angular(i, j), (key, i, j, rate)


@pytest.mark.parametrize("m,n", [
    (4, 1), (2, 2), (5, 0), (6, 1),
    pytest.param((2, 0), (2, 1), id="bi-2-0-2-1"),
])
def test_integral_rates_and_lambdas_keep_the_closed_forms_in_ints(m, n):
    """The boundary of the calculus, on the monomials of degree <= 4: at the
    rates 0, 2 and 4 with the integer lambdas 2 - M and 3, every value of a
    raw ``_OPS`` image is an int and ``op_column`` is those ints over 1; at
    the rate 1/3, and with lambda (1 + i)/2, ``op_column`` is ``int_column``
    of ``op_image``, down to its denominator."""
    if isinstance(m, tuple):
        sig = bi_signature(Signature(*m), Signature(*n, varset="z"))
    else:
        sig = Signature(m, n)
    keys = monomials_up_to(sig, 4)
    integral = [d for d in every_descriptor(sig) if d[0] != "bessel"]
    integral += [("bessel", lam, k) for lam in (2 - sig.M, 3) for k in range(sig.nvars)]
    for rate in (0, 2, 4):
        for d in integral:
            for key in keys:
                image = _OPS[d[0]](sig, key, rate, *d[1:])
                assert all(type(v) is int for v in image.values()), (key, d, rate)
                assert op_column(sig, d, key, rate) == \
                    (1, {k: (v, 0) for k, v in image.items()}), (key, d, rate)
    for d in every_descriptor(sig):
        for key in keys:
            rate = 0 if d[0] == "bessel" else Fraction(1, 3)
            assert op_column(sig, d, key, rate) == int_column(op_image(sig, d, key, rate)), \
                (key, d)
