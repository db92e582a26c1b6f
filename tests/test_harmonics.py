from functools import partial

import pytest

from superfock import linalg, verify
from superfock.algebra import (R2, Signature, SuperPolynomial, apply_op, dim_P,
                               monomial_keys)
from superfock.harmonics import (dim_harmonic, fischer_decompose,
                                 generalized_basis, harmonic_basis,
                                 harmonic_dim_nullspace)
from superfock.quotient import graded_dim_F
from superfock.scalars import QQi
from superfock.verify import Context, RunConfig, check_generalized


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
        assert len(basis) == dim_harmonic(k, sig) == harmonic_dim_nullspace(k, sig)
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
        assert linalg.solve_columns(cols, target) is not None


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
            assert graded_dim_F(k, sigz) == harmonic_dim_nullspace(k, sig)
