"""The shared commutator and adjointness loops of ``verify`` must be able to
fail: each check, run on a context whose action columns or pairing table carry
one wrong entry, reports a failure with a witness."""

import gc
import weakref

import pytest

from superfock.liealg import TKK
from superfock.verify import (Context, RunConfig, check_bf_l_adjoint,
                              check_pi_representation, check_pi_skew,
                              check_realization, check_rho_composition,
                              check_rho_representation, check_rho_skew,
                              run_suite, suite_fock)


def small_context(m=5, n=1) -> Context:
    return Context(RunConfig(m=m, n=n, max_degree=1, seed=0))


def double_one_column(column, target):
    """Wrap a column lookup so that the column at target = (a, key) is doubled."""
    def wrapped(a, key):
        col = column(a, key)
        if (a, key) == target:
            return {k: v * 2 for k, v in col.items()}
        return col
    return wrapped


def assert_fails(outcome):
    ok, witness = outcome
    assert ok is False and witness


@pytest.mark.parametrize("check,name", [
    (check_rho_composition, "rho_column"),
    (check_rho_representation, "rho_column"),
    (check_rho_skew, "rho_column"),
    (check_pi_representation, "pi_column"),
    (check_pi_skew, "pi_column"),
])
def test_a_corrupted_action_column_fails_the_check(check, name):
    # the W-side form needs M >= 4
    ctx = small_context(6, 1) if check is check_pi_skew else small_context()
    assert check(ctx, 1)[0] is True
    column = getattr(ctx, name)
    sig = ctx.sig_z if name == "rho_column" else ctx.sig
    one = ((0,) * sig.m, ())  # the constant monomial
    a = next(a for a in range(ctx.tkk.dim) if column(a, one))
    setattr(ctx, name, double_one_column(column, (a, one)))
    assert_fails(check(ctx, 1))


def test_a_corrupted_realization_fails_the_check(monkeypatch):
    ctx = small_context()
    assert check_realization(ctx, 1)[0] is True
    realize = TKK.realize

    def doubled_first_element(tkk, x):
        op = realize(tkk, x)
        if x.coeffs.keys() == {0}:
            return lambda p: op(p).scale(2)
        return op

    monkeypatch.setattr(TKK, "realize", doubled_first_element)
    assert_fails(check_realization(small_context(), 1))


def test_a_corrupted_pairing_fails_the_angular_adjointness():
    ctx = small_context()
    assert check_bf_l_adjoint(ctx, 1)[0] is True
    keys, table = ctx.bf_table(1)
    pair = next(pair for pair in table if pair[0] != pair[1])
    bad = dict(table)
    bad[pair] = table[pair] * 2
    ctx.bf_table = lambda max_degree: (keys, bad)
    assert_fails(check_bf_l_adjoint(ctx, 1))


def test_memoized_columns_do_not_outlive_the_context():
    ctx = small_context()
    results = list(suite_fock(ctx))
    assert results and all(r.status == "pass" for r in results)
    ref = weakref.ref(ctx)
    del ctx, results
    gc.collect()
    assert ref() is None


def test_rho_skew_is_blind_on_degree_one_at_m_2():
    # Pinned limitation, see check_rho_skew: the Bessel-Fischer form vanishes
    # on F_1 at M = 2, so the corruption that fails at (5,1) passes at (4,1).
    ctx = small_context(4, 1)
    one = ((0,) * ctx.sig_z.m, ())
    a = next(a for a in range(ctx.tkk.dim) if ctx.rho_column(a, one))
    ctx.rho_column = double_one_column(ctx.rho_column, (a, one))
    assert check_rho_skew(ctx, 1)[0] is True


@pytest.mark.parametrize("m,n", [(2, 0), (3, 1), (3, 2)])
def test_small_shapes_run_the_schrodinger_and_specfun_checks_without_raising(m, n):
    # (2,0) has two variables, one short of the angular descriptor L_12;
    # at (3,1) and (3,2), M = 1 and -1 put the order-zero Laguerre
    # normalization 1/Gamma(mu/2 + 1) on a pole of Gamma
    results = run_suite(RunConfig(m=m, n=n, max_degree=1, suites=("schrodinger", "specfun")))
    assert len(results) == 8
    raised = [(r.name, r.detail) for r in results
              if r.detail.split(":")[0].endswith(("Error", "Exception"))]
    assert raised == []
