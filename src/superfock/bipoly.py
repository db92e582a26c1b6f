"""Polynomials in two super-variable sets, as polynomials on a joined alphabet.

A bi-polynomial in (x|z) is a plain ``SuperPolynomial`` on the doubled
signature ``bi_signature(left, right)``.  Its variables are ordered left even,
right even, left odd, right odd, and its metric is block diagonal.  Even
variables commute past everything, so the canonical order of a joined
monomial is the left monomial followed by the right one, and the sign of an
odd right-slot variable crossing the odd left variables is the position sign
that ``SuperPolynomial`` already counts.  Products are therefore the ring
product, and the derivations, multiplications and Laplacian of either slot
are the closed forms of ``algebra`` at the slot's joined indices
(``BiSignature.slots``).  Only the slot Bessel operator, the reduction of one
slot modulo its R^2, and the slot degree bookkeeping need the split.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (MonKey, Signature, SuperPolynomial, add_term_product, apply_op,
                      laplacian_key)
from .quotient import _r2_power
from .scalars import QQi, _acc

LEFT, RIGHT = 0, 1


class BiSignature(Signature):
    """The joined alphabet of two signatures, remembering each slot."""

    __slots__ = ("slots", "halves", "_odd_split")

    def __init__(self, left: Signature, right: Signature):
        ml, mr, cut = left.m, right.m, left.m + right.m + 2 * left.n
        self.halves = (left, right)
        self.slots = (tuple(range(ml)) + tuple(range(ml + mr, cut)),
                      tuple(range(ml, ml + mr)) + tuple(range(cut, cut + 2 * right.n)))
        self._odd_split = cut  # first joined index of a right odd variable
        size = left.nvars + right.nvars
        beta = [[QQi(0)] * size for _ in range(size)]
        for sig, idx in zip(self.halves, self.slots):
            for i in range(sig.nvars):
                for j in range(sig.nvars):
                    beta[idx[i]][idx[j]] = sig.beta[i][j]
        super().__init__(ml + mr, left.n + right.n, left.varset,
                         tuple(tuple(r) for r in beta))

    def split(self, key: MonKey) -> tuple[MonKey, MonKey]:
        """The (left, right) monomial keys of a joined key."""
        ev, odd = key
        ml, mr = self.halves[LEFT].m, self.halves[RIGHT].m
        cut = self._odd_split
        return ((ev[:ml], tuple(o - mr for o in odd if o < cut)),
                (ev[ml:], tuple(o - cut + mr for o in odd if o >= cut)))

    def join(self, lkey: MonKey, rkey: MonKey) -> MonKey:
        """The joined key of the product (left monomial)(right monomial)."""
        mr = self.halves[RIGHT].m
        shift = self._odd_split - mr
        return (lkey[0] + rkey[0],
                tuple(o + mr for o in lkey[1]) + tuple(o + shift for o in rkey[1]))

    def slot_degree(self, key: MonKey, slot: int) -> int:
        """Degree of a joined key in one slot's variables."""
        ev, odd = key
        ml, cut = self.halves[LEFT].m, self._odd_split
        if slot == LEFT:
            return sum(ev[:ml]) + sum(1 for o in odd if o < cut)
        return sum(ev[ml:]) + sum(1 for o in odd if o >= cut)

    def var_name(self, i: int) -> str:
        for sig, idx in zip(self.halves, self.slots):
            if i in idx:
                return sig.var_name(idx.index(i))
        raise IndexError(i)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, BiSignature)
                                 and self.halves == other.halves)

    __hash__ = Signature.__hash__


@lru_cache(maxsize=None)
def bi_signature(left: Signature, right: Signature) -> BiSignature:
    return BiSignature(left, right)


def embed(p: SuperPolynomial, bsig: BiSignature, slot: int) -> SuperPolynomial:
    """A polynomial on one slot's signature, as a bi-polynomial."""
    halves = [((0,) * sig.m, ()) for sig in bsig.halves]
    out = {}
    for key, c in p.terms.items():
        halves[slot] = key
        out[bsig.join(*halves)] = c
    return SuperPolynomial(bsig, out)


def slot_constant(p: SuperPolynomial, slot: int) -> SuperPolynomial:
    """Terms free of the slot's variables, as a polynomial on the other slot."""
    bsig = p.sig
    return SuperPolynomial(bsig.halves[1 - slot],
                           {bsig.split(k)[1 - slot]: c for k, c in p.terms.items()
                            if not bsig.slot_degree(k, slot)})


def slot_euler(p: SuperPolynomial, slot: int) -> SuperPolynomial:
    """Euler operator of one slot: each term times its degree in that slot."""
    degree = p.sig.slot_degree
    out = {}
    for key, c in p.terms.items():
        k = degree(key, slot)
        if k:
            out[key] = c * k
    return SuperPolynomial(p.sig, out)


def slot_laplacian(p: SuperPolynomial, slot: int) -> SuperPolynomial:
    """The metric Laplacian of one slot, sum_b d_lower(b) d_upper(b) over its variables."""
    sig = p.sig
    out: dict = {}
    for key, c in p.terms.items():
        for k, v in laplacian_key(sig, key, sig.slots[slot]).items():
            _acc(out, k, c * v)
    q = SuperPolynomial.__new__(SuperPolynomial)
    q.sig, q.terms = sig, out
    return q


def slot_bessel_mod(p: SuperPolynomial, slot: int, k: int,
                    laplacian: SuperPolynomial | None = None) -> SuperPolynomial:
    """``bessel_mod`` (``algebra._OPS``) at index k of one slot, with lambda =
    2 - M of that slot.

    ``laplacian`` is ``slot_laplacian(p, slot)``; a caller that applies the
    operator at several indices computes it once and passes it in."""
    bsig = p.sig
    if laplacian is None:
        laplacian = slot_laplacian(p, slot)
    a = bsig.slots[slot][k]
    lam = 2 - bsig.halves[slot].M
    sign = -1 if k == 0 else 1
    degree = bsig.slot_degree
    out: dict = {}
    # (2E - lambda) d_lower(a), E counting the slot degree
    for key, c in apply_op(("d_lower", a), p).terms.items():
        f = sign * (2 * degree(key, slot) - lam)
        if f:
            out[key] = c * f
    for key, c in laplacian.mul_var(a).terms.items():
        _acc(out, key, c if sign < 0 else -c)
    q = SuperPolynomial.__new__(SuperPolynomial)
    q.sig, q.terms = bsig, out
    return q


@lru_cache(maxsize=None)
def _slot_r2_power(bsig: BiSignature, slot: int, j: int) -> SuperPolynomial:
    """r^(2j) of one slot, as a bi-polynomial."""
    return embed(_r2_power(bsig.halves[slot], j), bsig, slot)


def reduce_slot(p: SuperPolynomial, slot: int) -> SuperPolynomial:
    """Normal form of one slot modulo its R^2 ideal.

    The map is linear, and it keeps each term's degree in both slots: x_0^2
    becomes r^2 in the reduced slot, and the other slot is left alone.  So it
    commutes with truncation in either slot's degree.  The substituted r^2 is
    even, so the other slot's signs are unaffected: a term with slot exponent
    a >= 2 of x_0 becomes the slot's r^(2 floor(a/2)) times the term with
    exponent a mod 2, one product on the joined alphabet."""
    bsig = p.sig
    x0 = bsig.slots[slot][0]
    out: dict = {}
    for key, c in p.terms.items():
        ev, odd = key
        a = ev[x0]
        if a <= 1:
            _acc(out, key, c)
        else:
            add_term_product(out, _slot_r2_power(bsig, slot, a // 2),
                             (ev[:x0] + (a % 2,) + ev[x0 + 1:], odd), c)
    q = SuperPolynomial.__new__(SuperPolynomial)
    q.sig, q.terms = bsig, out
    return q


def pairing(sig_left: Signature, sig_right: Signature) -> SuperPolynomial:
    """The even pairing 2 x_0 z_0 + 2 sum_{i,j>=1} x_i beta^{ij} z_j."""
    bsig = bi_signature(sig_left, sig_right)

    def xz(i, j):
        return (SuperPolynomial.variable(bsig, bsig.slots[LEFT][i])
                * SuperPolynomial.variable(bsig, bsig.slots[RIGHT][j]))

    out = xz(0, 0).scale(2)
    for i, j, b in sig_left.beta_inv_pairs:
        if i and j:
            out = out + xz(i, j).scale(b + b)
    return out


@lru_cache(maxsize=None)
def pairing_power(sig_left: Signature, sig_right: Signature, k: int) -> SuperPolynomial:
    if k == 0:
        return SuperPolynomial.one(bi_signature(sig_left, sig_right))
    return pairing_power(sig_left, sig_right, k - 1) * pairing(sig_left, sig_right)
