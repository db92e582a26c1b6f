"""Spherical harmonics, dimension formulas and Fischer decomposition.

Harmonic and generalized harmonic spaces are exact nullspaces, on the
monomial basis of each homogeneous slice, from one kernel routine; dimension
formulas are evaluated in closed form and cross-checked against each other.
The Fischer decomposition peels its components off with powers of Delta.
"""

from __future__ import annotations

from functools import partial
from math import prod

from . import linalg
from .algebra import (R2, Signature, SuperPolynomial, apply_op, dim_P,
                      in_minus_2n, monomial_keys, op_image, op_terms)
from .scalars import QQi

_DELTA = ("Delta",)


def _kernel_basis(sig: Signature, k: int, image) -> list[SuperPolynomial]:
    """Echelon-normalized basis of the kernel inside P_k of the map taking x^key
    to the term map image(key): one row per image monomial, on the
    ``monomial_keys`` columns.  An empty image leaves every monomial free."""
    dom = monomial_keys(sig, k)
    rows: dict = {}
    for c, key in enumerate(dom):
        for ikey, coeff in image(key).items():
            rows.setdefault(ikey, {})[c] = coeff
    vectors = linalg.nullspace(list(rows.values()), len(dom))
    return [SuperPolynomial(sig, {dom[c]: v for c, v in vec.items()}) for vec in vectors]


def harmonic_basis(k: int, sig: Signature) -> list[SuperPolynomial]:
    """Echelon-normalized basis of ker(Delta) inside P_k."""
    return _kernel_basis(sig, k, partial(op_image, sig, _DELTA))


def dim_harmonic(k: int, sig: Signature) -> int:
    """Closed-form dimension of H_k; the two known formulas must agree."""
    if sig.m < 2:
        raise ValueError("dimension formulas need m >= 2")
    if k < 0:
        return 0
    a = dim_P(sig.m, sig.n, k) - dim_P(sig.m, sig.n, k - 2)
    b = dim_P(sig.m - 1, sig.n, k) + dim_P(sig.m - 1, sig.n, k - 1)
    if a != b:
        raise AssertionError(f"dimension formulas disagree at k={k}: {a} vs {b}")
    return a


def fischer_decompose(p: SuperPolynomial) -> list[tuple[int, SuperPolynomial]]:
    """Write homogeneous p of degree k as sum_j R^{2j} h_{k-2j} with each h
    harmonic: the pairs (j, h_{k-2j}) with h nonzero, in ascending j.

    For h in H_l, Delta R^{2i} h = 2i(2l + 2i - 2 + M) R^{2i-2} h.  So Delta^j
    kills R^{2i} h_{k-2i} for i < j and sends R^{2j} h_{k-2j} to c_j h_{k-2j},
    c_j = prod_{i<=j} 2i(2(k-2j) + 2i - 2 + M): the parts come off from the top
    j down, and the last remainder is h_k.  They rebuild p by construction;
    ``check_fischer`` tests that each is harmonic.  c_j vanishes only for M in
    -2N, where :func:`generalized_basis` replaces the decomposition.
    """
    sig = p.sig
    if in_minus_2n(sig.M):
        raise ValueError("M in -2N: Fischer decomposition degenerates; "
                         "use generalized_basis")
    comps = p.homogeneous_components()
    if p.is_zero():
        return []
    if len(comps) != 1:
        raise ValueError("input must be homogeneous")
    (k, rest), = comps.items()
    out = []
    for j in range(k // 2, -1, -1):
        h = rest
        for _ in range(j):
            h = apply_op(_DELTA, h)
        c = prod(2 * i * (2 * (k - 2 * j) + 2 * i - 2 + sig.M) for i in range(1, j + 1))
        h = h.scale(QQi(1, 0, c))
        if not h.is_zero():
            out.append((j, h))
            rest = rest - R2(sig) ** j * h
    return out[::-1]


def generalized_basis(k: int, sig: Signature) -> list[SuperPolynomial]:
    """Exact nullspace of Delta R^2 Delta on P_k (generalized harmonics)."""
    def image(key):
        return op_terms(sig, _DELTA, op_terms(sig, ("R2",), op_image(sig, _DELTA, key)))
    return _kernel_basis(sig, k, image)
