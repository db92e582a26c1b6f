"""The Fock side: Bessel-Fischer product, reproducing kernels, and the actions.

The Bessel-Fischer product substitutes the tangential Bessel operators for
the variables of its first argument, applies the word to the coefficient
conjugate of the second, and evaluates at zero.  The product reads one memo,
``bessel_image``: the integer column (``algebra.op_column``) of
``bessel_mod`` at index i on one monomial, in a bounded ``lru_cache``
(``BESSEL_IMAGES`` entries, least recently used dropped first); each image is
asserted homogeneous of degree one less than its monomial.  Its readers are:

- ``bf_covectors``, the pairing covectors that the pairing table, the Gram
  matrices, the kernel pairing and the inverse Segal-Bargmann transform
  read: the covector of z^a z_i is that of z^a times the images of
  Bessel(z_i);
- the word route (``bf_word_apply``, ``bf_product``), which applies the word
  to q-bar in Gaussian-integer arithmetic.

The degree-shift route (``bf_product_shift_oracle``) applies the operator
through ``algebra.apply_op`` instead, and ``fock/dual-route`` compares the
memo with a fresh ``op_column`` on every monomial of degree <= 2.

The reproducing kernel of degree k is c_k P^k / 4^k, a bi-polynomial on the
joined alphabet (z|w) of ``bipoly``, with P^k = ``pairing_power(k)`` and c_k =
``b_series_coeff(M, 0, k)``, the coefficient of the kernel series B_0 =
sum_l c_l P^l that ``sbtransform`` reads as well.  The Fock action rho(X) =
pi_C(c(X)) is the action table ``rho_table`` over the ``algebra._OPS``
operators at rate 0, reduced modulo R^2 as pi and pi_C are: applied to
polynomials by ``algebra.table_apply`` with ``schrodinger.pi_op``
(``rho_apply``), and to monomials, as the row of the numbered columns of every basis
element at once, by ``algebra.table_columns`` with ``quotient.nf_terms``
(``verify.Context.rho_row``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import factorial

from . import linalg
from .algebra import (MonKey, Signature, SuperPolynomial, apply_op, derive_key,
                      monomial_keys, op_column, table_apply)
from .bipoly import LEFT, RIGHT, bi_signature, pairing_power
from .liealg import TKKElement
from .quotient import normal_form_keys
from .scalars import (HALF, I, ONE, ZERO, QQi, _acc, column_image, column_terms,
                      int_column, poch)
from .schrodinger import pi_op


def _word_indices(key: MonKey) -> list[int]:
    """Variable indices of a monomial in written order (evens by index, then odds)."""
    ev, odd = key
    out: list[int] = []
    for i, e in enumerate(ev):
        out.extend([i] * e)
    out.extend(odd)
    return out


# Bound of the ``bessel_image`` memo.  A full run at (7,1), max_degree 3,
# fills about 5,500 entries.
BESSEL_IMAGES = 1 << 14


@lru_cache(maxsize=BESSEL_IMAGES)
def bessel_image(sig: Signature, i: int, key: MonKey) -> tuple[int, dict]:
    """Integer column of the Bessel operator ``bessel_mod`` at index i on the
    monomial z^key, at rate 0 (``algebra.op_column``).

    The image must be homogeneous of degree deg(key) - 1; orthogonality of the
    product across degrees rests on that, so it is asserted here."""
    image = op_column(sig, ("bessel_mod", i), key)
    k = sum(key[0]) + len(key[1])
    for ikey in image[1]:
        if sum(ikey[0]) + len(ikey[1]) != k - 1:
            raise AssertionError(f"Bessel({i}) of {key} has a term {ikey} "
                                 f"outside degree {k - 1}")
    return image


def _word_column(sig: Signature, key: MonKey, column: tuple[int, dict]) -> tuple[int, dict]:
    """The Bessel word of a monomial applied to an integer column, rightmost
    factor first."""
    for i in reversed(_word_indices(key)):
        if not column[1]:
            break
        column = column_image(column, partial(bessel_image, sig, i))
    return column


def bf_word_apply(key: MonKey, q: SuperPolynomial) -> SuperPolynomial:
    """Apply the Bessel word of a monomial to q, rightmost factor first."""
    return SuperPolynomial(q.sig, column_terms(_word_column(q.sig, key, int_column(q.terms))))


def bf_product(p: SuperPolynomial, q: SuperPolynomial) -> QQi:
    """Bessel-Fischer product: p(Bessel) applied to the coefficient conjugate of q, at 0."""
    if p.sig != q.sig:
        raise ValueError("signature mismatch")
    qbar = int_column(q.conjugate().terms)
    one = ((0,) * p.sig.m, ())
    total = ZERO
    for key, c in p.terms.items():
        e, image = _word_column(p.sig, key, qbar)
        v = image.get(one)
        if v is not None:
            total = total + c * QQi(v[0], v[1], e)
    return total


@lru_cache(maxsize=None)
def bf_covectors(sig: Signature, k: int) -> dict[MonKey, dict[MonKey, QQi]]:
    """Pairing covectors of the degree-k monomials: a -> {b: <z^a, z^b>}, nonzero
    entries only (pairings across degrees vanish).

    With i the last index of the word of a, so that a = a' z_i and
    ``bf_word_apply`` applies Bessel(z_i) first, <z^a, z^b> is the sum over c
    of the coefficient of z^c in Bessel(z_i) z^b times <z^a', z^c>: one
    sparse product per monomial."""
    if k == 0:
        one = ((0,) * sig.m, ())
        return {one: {one: QQi(1)}}
    prev = bf_covectors(sig, k - 1)
    columns: dict[int, dict] = {}  # i -> {c: {b: coefficient of z^c in Bessel(z_i) z^b}}
    out = {}
    for key in monomial_keys(sig, k):
        i = _word_indices(key)[-1]
        col = columns.get(i)
        if col is None:
            col = columns[i] = {}
            for bkey in monomial_keys(sig, k):
                d, image = bessel_image(sig, i, bkey)
                for ckey, (a, b) in image.items():
                    col.setdefault(ckey, {})[bkey] = QQi(a, b, d)
        rest = derive_key(sig.m, i, key)[1]
        vec: dict[MonKey, QQi] = {}
        for ckey, v in prev[rest].items():
            for bkey, c in col.get(ckey, {}).items():
                _acc(vec, bkey, c * v)
        out[key] = vec
    return out


def bf_product_shift_oracle(p: SuperPolynomial, q: SuperPolynomial) -> QQi:
    """Independent evaluation through the shift identity
    <z_i p, q> = (-1)^{|i||p|} <p, Bessel(z_i) q>, peeling left factors."""
    if p.sig != q.sig:
        raise ValueError("signature mismatch")

    def pair_mono(key: MonKey, qb: SuperPolynomial) -> QQi:
        idxs = _word_indices(key)
        if not idxs:
            return qb.constant_term()
        i = idxs[0]
        rest = derive_key(p.sig.m, i, key)[1]
        rest_parity = (len(rest[1]) & 1) and p.sig.parity(i)
        val = pair_mono(rest, apply_op(("bessel_mod", i), qb))
        return -val if rest_parity else val

    qbar = q.conjugate()
    total = QQi(0)
    for key, a in p.terms.items():
        total = total + a * pair_mono(key, qbar)
    return total


# -- reproducing kernel -------------------------------------------------------


def b_series_coeff(M: int, alpha: int, l: int) -> Fraction:
    """Taylor coefficient of the renormalized Bessel series with shift alpha:
    Gamma(M/2-1) / (l! Gamma(l + M/2 - 1 + alpha)) = 1/(l! (M/2-1)_{l+alpha})."""
    den = factorial(l) * poch(Fraction(M, 2) - 1, l + alpha)
    if den == 0:
        raise ValueError("series coefficient undefined: M - 2 lies in -2N")
    return 1 / den


def kernel_coefficient(M: int, k: int) -> Fraction:
    """c_k / 4^k = 1 / (4^k k! (M/2 - 1)_k), with c_k the kernel series'
    coefficient; raises when the Pochhammer factor vanishes."""
    return b_series_coeff(M, 0, k) / 4 ** k


def kernel(k: int, sig: Signature, sig_w: Signature | None = None) -> SuperPolynomial:
    """Degree-k reproducing kernel as a (z, w)-polynomial."""
    if sig_w is None:
        sig_w = Signature(sig.m, sig.n, varset="w", beta=sig.beta)
    return SuperPolynomial(bi_signature(sig, sig_w), pairing_power(sig, sig_w, k)).scale(
        kernel_coefficient(sig.M, k))


def kernel_pair(p: SuperPolynomial, kern: SuperPolynomial) -> SuperPolynomial:
    """<p, K(., w)> in the first slot; returns a polynomial in w.

    A kernel term c z^zkey w^wkey contributes c <z^a, z^zkey> w^wkey to the
    pairing with z^a: the Bessel word of z^a acts on the left slot only."""
    bsig = kern.sig
    zsig = bsig.halves[LEFT]
    split = [(bsig.split(key), c) for key, c in kern.terms.items()]
    out: dict[MonKey, QQi] = {}
    for key, a in p.terms.items():
        vec = bf_covectors(zsig, sum(key[0]) + len(key[1]))[key]
        for (zkey, wkey), c in split:
            v = vec.get(zkey)
            if v is not None:
                _acc(out, wkey, a * c * v)
    return SuperPolynomial(bsig.halves[RIGHT], out)


# -- Gram matrices ------------------------------------------------------------


def gram(k: int, sig: Signature):
    """Gram matrix of the Bessel-Fischer product on the normal-form basis of F_k."""
    keys = normal_form_keys(sig, k)
    cov = bf_covectors(sig, k)
    zero = QQi(0)
    mat = [[cov[ka].get(kb, zero) for kb in keys] for ka in keys]
    return keys, mat


def gram_rank(k: int, sig: Signature) -> int:
    keys, mat = gram(k, sig)
    rows = [{c: v for c, v in enumerate(row) if v} for row in mat]
    return linalg.rank(rows, len(keys))


def gram_nullspace(k: int, sig: Signature) -> list[SuperPolynomial]:
    keys, mat = gram(k, sig)
    rows = [{c: v for c, v in enumerate(row) if v} for row in mat]
    vecs = linalg.nullspace(rows, len(keys))
    return [SuperPolynomial(sig, {keys[c]: v for c, v in vec.items()}) for vec in vecs]


# -- the Fock action -----------------------------------------------------------


def rho_table(tkk, a: int) -> list[tuple[tuple, QQi]]:
    """The Fock action of basis element a as [(descriptor, coefficient)] over
    the operators of ``algebra._OPS``; B_l is ``bessel_mod`` at l:

    - inn_ij -> L_ij;
    - L_l -> (z_l - B_l)/2;
    - minus_l, plus_l with l != 0 -> -i/2 (z_l + B_l +- 2 L_0l);
    - minus_0, plus_0 -> -i/2 (z_0 + B_0 +- ((M - 2) + 2E)).

    Applied by ``schrodinger.pi_op`` at rate 0."""
    kind, *rest = tkk.basis[a]
    if kind == "inn":
        return [(("L", *rest), ONE)]
    l = rest[0]
    if kind == "L":
        return [(("mul", l), HALF), (("bessel_mod", l), -HALF)]
    c = -I * HALF
    pm = 1 if kind == "minus" else -1
    out = [(("mul", l), c), (("bessel_mod", l), c)]
    if l:
        return out + [(("L", 0, l), c * (2 * pm))]
    return out + [(("E",), c * (2 * pm)), (("one",), c * (pm * (tkk.sig.M - 2)))]


def rho_apply(X: TKKElement, p: SuperPolynomial) -> SuperPolynomial:
    """Fock action: the Cayley twist of the complexified Schrodinger action,
    applied through ``rho_table``."""
    return table_apply(rho_table, pi_op, X, p, 0)


def rho_lowering(tkk) -> TKKElement:
    """Preimage under the Cayley map of (0,0,-2 e_0); acts as i Bessel(z_0)."""
    return tkk.cayley_inverse(tkk.plus(0, -2))


def rho_raising(tkk) -> TKKElement:
    """Preimage under the Cayley map of (-e_0/2, 0, 0); acts as i z_0."""
    return tkk.cayley_inverse(tkk.minus(0, QQi(-1, 0, 2)))
