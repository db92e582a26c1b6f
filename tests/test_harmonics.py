import random
from functools import partial

import pytest

from superfock import harmonics, linalg, verify
from superfock.algebra import (R2, Signature, SuperPolynomial, apply_op, dim_P,
                               monomial_keys, random_polynomial)
from superfock.harmonics import (dim_harmonic, fischer_decompose,
                                 generalized_basis, harmonic_basis)
from superfock.quotient import graded_dim_F
from superfock.scalars import QQi
from superfock.verify import Context, RunConfig, check_fischer, check_generalized


def solve_columns(columns, target):
    """Solve sum_j x_j * columns[j] = target exactly; None if inconsistent."""
    ncols = len(columns)
    row_ids = set(target)
    for c in columns:
        row_ids |= set(c)
    rows = []
    for rid in sorted(row_ids):
        row = {}
        for j, col in enumerate(columns):
            v = col.get(rid)
            if v:
                row[j] = v
        t = target.get(rid)
        if t:
            row[ncols] = t
        rows.append(row)
    red, pivots = linalg.rref(rows, ncols + 1)
    if ncols in pivots:
        return None
    x = {}
    for prow, pcol in zip(red, pivots):
        v = prow.get(ncols)
        if v:
            x[pcol] = v
    return x


def solve_route_fischer(p):
    """The Fischer decomposition of homogeneous p by one linear solve against
    the columns R^(2j) h, h over the harmonic basis of every degree k - 2j."""
    sig = p.sig
    (k, _), = p.homogeneous_components().items()
    dom = {key: r for r, key in enumerate(monomial_keys(sig, k))}
    columns, pieces = [], []
    for j in range(k // 2 + 1):
        for h in harmonic_basis(k - 2 * j, sig):
            columns.append({dom[key]: c for key, c in (R2(sig) ** j * h).terms.items()})
            pieces.append((j, h))
    x = solve_columns(columns, {dom[key]: c for key, c in p.terms.items()})
    assert x is not None, "Fischer system inconsistent"
    parts = {}
    for idx, coeff in x.items():
        j, h = pieces[idx]
        parts[j] = parts.get(j, SuperPolynomial.zero(sig)) + h.scale(coeff)
    return [(j, parts[j]) for j in sorted(parts)]


def test_dim_examples():
    assert dim_harmonic(2, Signature(4, 1)) == 18
    assert dim_harmonic(2, Signature(3, 0)) == 5
    assert dim_harmonic(0, Signature(4, 1)) == 1
    assert dim_harmonic(1, Signature(5, 2)) == 9


def test_dim_formulas_agree_grid():
    for m in range(2, 8):
        for n in range(3):
            sig = Signature(m, n)
            for k in range(7):
                dim_harmonic(k, sig)  # raises on internal disagreement


@pytest.mark.parametrize("m,n", [(4, 0), (4, 1), (2, 2)])
def test_basis_is_harmonic(m, n):
    sig = Signature(m, n)
    for k in range(4):
        basis = harmonic_basis(k, sig)
        assert len(basis) == dim_harmonic(k, sig)
        for h in basis:
            assert apply_op(("Delta",), h).is_zero()
            assert apply_op(("E",), h) == h.scale(k)


def test_low_degree_bases():
    sig = Signature(4, 1)
    assert [str(h) for h in harmonic_basis(0, sig)] == ["1"]
    assert len(harmonic_basis(1, sig)) == sig.nvars


def test_fischer_example():
    sig = Signature(4, 0)
    x1 = SuperPolynomial.variable(sig, 1)
    parts = dict(fischer_decompose(x1 * x1))
    assert parts[0] == x1 * x1 - R2(sig).scale(QQi(1, 0, 4))
    assert parts[1] == SuperPolynomial.constant(sig, QQi(1, 0, 4))
    # trivial cases
    assert dict(fischer_decompose(R2(sig)))[1] == SuperPolynomial.one(sig)
    h = harmonic_basis(2, sig)[0]
    assert fischer_decompose(h) == [(0, h)]


@pytest.mark.parametrize("m,n", [(4, 0), (5, 0), (3, 1), (4, 1), (5, 1), (6, 1)])
def test_the_peel_agrees_with_the_linear_solve(m, n):
    sig = Signature(m, n)
    rng = random.Random(10 * m + n)
    samples = [random_polynomial(sig, 4, rng, nterms=6) for _ in range(3)]
    samples += [R2(sig) * random_polynomial(sig, 2, rng) for _ in range(2)]
    degrees = set()
    for p in samples:
        for k, comp in p.homogeneous_components().items():
            assert fischer_decompose(comp) == solve_route_fischer(comp), (k, comp)
            degrees.add(k)
    assert degrees == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("m,n", [(4, 0), (5, 1)])
def test_a_wrong_r2_in_the_peel_fails_the_fischer_check(monkeypatch, m, n):
    # the doubled R^2 leaves a remainder that Delta does not kill
    ctx = Context(RunConfig(m=m, n=n, max_degree=2))
    assert check_fischer(ctx) == (True, "")
    monkeypatch.setattr(harmonics, "R2", lambda sig: R2(sig).scale(2))
    ctx = Context(RunConfig(m=m, n=n, max_degree=2))
    assert check_fischer(ctx) == (False, "non-harmonic component at degree 2")


def test_fischer_sum_rule():
    sig = Signature(5, 0)
    for k in range(6):
        assert sum(dim_harmonic(k - 2 * j, sig) for j in range(k // 2 + 1)) \
            == dim_P(5, 0, k)


def test_fischer_refuses_exceptional():
    sig = Signature(2, 2)
    with pytest.raises(ValueError, match="generalized"):
        fischer_decompose(SuperPolynomial.variable(sig, 1))


def test_generalized_contains_harmonics():
    sig = Signature(2, 2)
    k = 3
    gsh = generalized_basis(k, sig)
    hb = harmonic_basis(k, sig)
    assert len(gsh) > len(hb)  # strictly larger in the exceptional case
    dom = {key: r for r, key in enumerate(monomial_keys(sig, k))}
    cols = [{dom[kk]: c for kk, c in g.terms.items()} for g in gsh]
    for h in hb:
        target = {dom[kk]: c for kk, c in h.terms.items()}
        assert solve_columns(cols, target) is not None


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (2, 3)])
def test_generalized_space_is_larger_on_the_window_of_exceptional_m(m, n):
    # [Delta, R^2] = 4E + 2M puts the extra generalized harmonics R^(2j) h_l
    # at the degrees 2 - M/2 <= k <= 2 - M; check_generalized tests the first
    sig = Signature(m, n)
    M = sig.M
    larger = [k for k in range(4 - M)
              if len(generalized_basis(k, sig)) > len(harmonic_basis(k, sig))]
    assert larger == list(range(2 - M // 2, 3 - M))
    ok, detail = check_generalized(Context(RunConfig(m=m, n=n, max_degree=1)))
    assert ok and f"GSH_{2 - M // 2}" in detail


@pytest.mark.parametrize("m,n", [(4, 0), (4, 1), (3, 0)])
def test_a_harmonic_vector_outside_the_generalized_space_fails_the_check(monkeypatch, m, n):
    # M is not in -2N at these shapes, so the check compares at degree 3
    sig = Signature(m, n)
    ctx = Context(RunConfig(m=m, n=n, max_degree=1))
    assert check_generalized(ctx)[0] is True
    r2 = R2(sig)
    monos = (SuperPolynomial.monomial(sig, key) for key in monomial_keys(sig, 3))
    delta = partial(apply_op, ("Delta",))
    outside = next(v for v in monos if not delta(r2 * delta(v)).is_zero())
    monkeypatch.setattr(verify, "harmonic_basis",
                        lambda k, sig: harmonic_basis(k, sig) + [outside])
    assert check_generalized(ctx) == (False, "harmonics not contained in generalized harmonics")


def test_generalized_low_degrees_are_everything():
    sig = Signature(4, 1)
    for k in (0, 1):
        assert len(generalized_basis(k, sig)) == dim_P(4, 1, k)


def test_dim_chain_with_quotient():
    for (m, n) in [(4, 0), (4, 1), (2, 2)]:
        sig = Signature(m, n)
        sigz = Signature(m, n, varset="z")
        for k in range(5):
            assert graded_dim_F(k, sigz) == len(harmonic_basis(k, sig))
