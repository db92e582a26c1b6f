"""Spherical harmonics, dimension formulas and Fischer decomposition.

Harmonic spaces are computed as exact nullspaces of the Laplacian on the
monomial basis of each homogeneous slice; dimension formulas are evaluated
in closed form and cross-checked against each other.
"""

from __future__ import annotations

from functools import partial

from . import linalg
from .algebra import (R2, Signature, SuperPolynomial, dim_P,
                      in_minus_2n, monomial_keys, op_image, op_terms)
from .scalars import QQi

_DELTA = ("Delta",)


def _operator_rows(sig: Signature, k: int, image):
    """Rows of the matrix from P_k to P_(k-2), on monomial bases, of the map
    taking x^key to the term map image(key)."""
    dom = monomial_keys(sig, k)
    cod = {key: r for r, key in enumerate(monomial_keys(sig, k - 2))}
    rows: list[dict[int, QQi]] = [{} for _ in cod]
    for c, key in enumerate(dom):
        for ikey, coeff in image(key).items():
            rows[cod[ikey]][c] = coeff
    return rows, dom


def _kernel_basis(sig: Signature, k: int, image) -> list[SuperPolynomial]:
    """Echelon-normalized basis of the kernel inside P_k of a map that lowers
    the degree by two (``_operator_rows``)."""
    dom = monomial_keys(sig, k)
    if k < 2:
        return [SuperPolynomial.monomial(sig, key) for key in dom]
    rows, dom = _operator_rows(sig, k, image)
    vectors = linalg.nullspace(rows, len(dom))
    return [SuperPolynomial(sig, {dom[c]: v for c, v in vec.items()}) for vec in vectors]


def harmonic_basis(k: int, sig: Signature) -> list[SuperPolynomial]:
    """Echelon-normalized basis of ker(Delta) inside P_k."""
    return _kernel_basis(sig, k, partial(op_image, sig, _DELTA))


def harmonic_dim_nullspace(k: int, sig: Signature) -> int:
    """dim ker(Delta|P_k) via exact rank, without materializing the basis."""
    if k < 2:
        return dim_P(sig.m, sig.n, k)
    rows, dom = _operator_rows(sig, k, partial(op_image, sig, _DELTA))
    return len(dom) - linalg.rank(rows, len(dom))


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
    """Write homogeneous p as sum_j R^{2j} h_{k-2j} with each h harmonic.

    Only valid when the superdimension M avoids -2N; in the exceptional case
    use :func:`generalized_basis` instead.
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
    (k, _), = comps.items()
    dom = {key: r for r, key in enumerate(monomial_keys(sig, k))}
    columns = []
    pieces: list[tuple[int, SuperPolynomial]] = []
    r2 = R2(sig)
    for j in range(k // 2 + 1):
        power = SuperPolynomial.one(sig)
        for _ in range(j):
            power = power * r2
        for h in harmonic_basis(k - 2 * j, sig):
            img = power * h
            columns.append({dom[key]: c for key, c in img.terms.items()})
            pieces.append((j, h))
    target = {dom[key]: c for key, c in p.terms.items()}
    x = linalg.solve_columns(columns, target)
    if x is None:
        raise AssertionError("Fischer system inconsistent")
    parts: dict[int, SuperPolynomial] = {}
    for idx, coeff in x.items():
        j, h = pieces[idx]
        parts[j] = parts.get(j, SuperPolynomial.zero(sig)) + h.scale(coeff)
    out = [(j, parts[j]) for j in sorted(parts)]
    recon = SuperPolynomial.zero(sig)
    for j, h in out:
        term = h
        for _ in range(j):
            term = r2 * term
        recon = recon + term
    if recon != p:
        raise AssertionError("Fischer reconstruction failed")
    return out


def generalized_basis(k: int, sig: Signature) -> list[SuperPolynomial]:
    """Exact nullspace of Delta R^2 Delta on P_k (generalized harmonics)."""
    def image(key):
        return op_terms(sig, _DELTA, op_terms(sig, ("R2",), op_image(sig, _DELTA, key)))
    return _kernel_basis(sig, k, image)
