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
(``BiSignature.slots``).  Only the split of a joined key into its slots
(``BiSignature.split``) and the powers of r^2 of one slot
(``_slot_r2_power``) need the slot layout.  Those powers and the
pairing's (``pairing_power``) are term maps {key: int}; ``QQi`` appears only
in ``pairing``, a polynomial, and in the callers that make polynomials.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import MonKey, Signature, SuperPolynomial, term_product
from .quotient import _r2_power
from .scalars import QQi, int_or_qqi

LEFT, RIGHT = 0, 1


class BiSignature(Signature):
    """The joined alphabet of two signatures, remembering each slot.  Its
    memo is ``bi_signature``; it never enters the ``Signature`` intern table."""

    __slots__ = ("slots", "halves", "_odd_split")

    def __new__(cls, left: Signature, right: Signature):
        self = object.__new__(cls)
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
        self._setup(ml + mr, left.n + right.n, left.varset, tuple(tuple(r) for r in beta))
        return self

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


@lru_cache(maxsize=None)
def _slot_r2_power(bsig: BiSignature, slot: int, j: int) -> dict:
    """r^(2j) of one slot as a term map on the joined alphabet, which
    ``quotient.reduce_terms`` reads to reduce that slot; r^2 is even, so this
    changes no sign of the other slot."""
    halves = [((0,) * sig.m, ()) for sig in bsig.halves]
    out = {}
    for key, c in _r2_power(bsig.halves[slot], j).items():
        halves[slot] = key
        out[bsig.join(*halves)] = c
    return out


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
def pairing_power(sig_left: Signature, sig_right: Signature, k: int) -> dict:
    """P^k of the pairing P as a term map {key: int} on the joined alphabet;
    ValueError if P has a coefficient that is not a real integer."""
    if k == 0:
        return {((0,) * (sig_left.m + sig_right.m), ()): 1}
    p = {key: int_or_qqi(c) for key, c in pairing(sig_left, sig_right).terms.items()}
    if any(type(c) is not int for c in p.values()):
        raise ValueError("pairing_power needs a pairing with real integer coefficients")
    return term_product(pairing_power(sig_left, sig_right, k - 1), p)
