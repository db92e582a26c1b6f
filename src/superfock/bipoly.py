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
(``BiSignature.slots``).  Only the slot degree bookkeeping and the reduction
of one slot modulo its R^2, on integer term maps, need the split.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .algebra import MonKey, Signature, SuperPolynomial, merge_odd
from .quotient import _r2_power
from .scalars import QQi

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


@lru_cache(maxsize=None)
def _slot_r2_power(bsig: BiSignature, slot: int, j: int) -> SuperPolynomial:
    """r^(2j) of one slot, as a bi-polynomial."""
    return embed(_r2_power(bsig.halves[slot], j), bsig, slot)


def real_int(c: QQi, what: str) -> int:
    """c as an int, or ValueError if it is not a real integer."""
    if c.b or c.d != 1:
        raise ValueError(f"integer slot arithmetic needs {what} with real "
                         f"integer coefficients, not {c}")
    return c.a


def add_times(out: dict, key: MonKey, c: int, terms) -> None:
    """Add c x^key times the (key, int) terms into the int map out."""
    ev, odd = key
    for (tev, todd), v in terms:
        merged = merge_odd(odd, todd)
        if merged:
            k = (tuple(map(add, ev, tev)), merged[1])
            out[k] = out.get(k, 0) + merged[0] * v * c


def reduce_slot_ints(terms: dict, bsig: BiSignature, slot: int) -> dict:
    """{key: int} terms modulo the R^2 ideal of one slot, keeping both slot
    degrees: each x_0^2 of the slot becomes its r^2, which is even, so no sign
    of the other slot changes; one power of x_0 at a time from the highest
    down, so each power's terms are summed before they are multiplied."""
    x0 = bsig.slots[slot][0]
    r2 = [(k, real_int(v, "a metric")) for k, v in _slot_r2_power(bsig, slot, 1).terms.items()]
    levels: dict = {}
    for key, c in terms.items():
        levels.setdefault(key[0][x0], {})[key] = c
    for a in range(max(levels, default=0), 1, -1):
        below = levels.setdefault(a - 2, {})
        for (ev, odd), c in levels.pop(a, {}).items():
            if c:
                add_times(below, (ev[:x0] + (a - 2,) + ev[x0 + 1:], odd), c, r2)
    out = levels.get(0, {})
    out.update(levels.get(1, {}))
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
def pairing_power(sig_left: Signature, sig_right: Signature, k: int) -> SuperPolynomial:
    if k == 0:
        return SuperPolynomial.one(bi_signature(sig_left, sig_right))
    return pairing_power(sig_left, sig_right, k - 1) * pairing(sig_left, sig_right)
