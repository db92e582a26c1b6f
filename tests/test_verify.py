"""The shared commutator and adjointness loops (``linalg``) must be able to
fail: each check, run on a context whose action columns, operator table,
pairing table, moment table or transform images carry one wrong entry,
reports a failure with a witness (or, for the forward transform, raises on
its nonvanishing tail).  The key-major integer commutator loop on rows
finds the first failure of the identity-major loops it replaced, over
``QQi`` and over integer columns, on random columns and on the rows of the
representation and operator checks; the integer fill of the action columns
equals the columns of the polynomial applier; the shift identity on the
nonzero pairings finds the failure of the loop over every (p, i, q) it
replaced; the column route of the intertwining check
finds the first failure of its polynomial loop; and the integer route of the
product rule and the memoized columns of the angular commutant give the
witnesses of the polynomial route and of unmemoized columns; the integer
routes of the Jacobi identity, of bracket preservation under the Cayley
transform and of the matrix model give the witnesses of their ``QQi``
routes.  One wrong derivative in the Taylor sums (``algebra.taylor_terms``)
that |X| and the W-integral's weight factors share fails the radial check
and the integral checks; one wrong term of a weight factor
(``integral.weights``) fails the radial check too.  Every shape the CLI accepts at small size passes
every suite."""

import gc
import random
import re
import weakref
from collections import ChainMap
from fractions import Fraction
from functools import cache, partial

import pytest

import superfock
from superfock import algebra, integral, sbtransform, schrodinger, verify
from superfock.algebra import (_OPS, R2, Signature, SuperPolynomial, apply_op,
                               monomial_keys, monomials_up_to, mul_key, op_column,
                               op_image, table_apply, table_columns)
from superfock.fock import bessel_image, bf_covectors, rho_apply, rho_table
from superfock.linalg import commutator_failure, skew_failure
from superfock.liealg import TKK, k_basis, tkk_for
from superfock.quotient import nf_terms, normal_form_keys
from superfock.scalars import (I, ZERO, QQi, _acc, column_combination, column_terms,
                               int_column)
from superfock.schrodinger import pi_apply, pi_op, pi_table
from superfock.verify import (ALL_SUITES, CHECKS, Context, RunConfig,
                              check_angular_commutes, check_bessel_commutator,
                              check_bessel_tangential,
                              check_bessel_product_rule,
                              check_bessel_supercommute, check_bf_l_adjoint,
                              check_cayley, check_exp_identities, check_intertwining,
                              check_intertwining_inverse, check_jordan,
                              check_osp_matrices, check_pi_representation,
                              check_pi_skew, check_realization,
                              check_representative_independence,
                              check_rho_composition, check_rho_representation,
                              check_rho_skew, check_sb_lowest, check_sl2_triple,
                              check_tkk_axioms, check_unitarity, run_check, run_checks,
                              run_suite)
from test_algebra import parity
from test_liealg import osp_matrix, qqi_matrix_model


def small_context(m=5, n=1) -> Context:
    return Context(RunConfig(m=m, n=n, max_degree=1, seed=0))


def double_one_entry(row, target):
    """Wrap a lookup of rows of integer columns so that every numerator of
    the column of a on x^key, target = (a, key), is doubled."""
    a, key = target

    def wrapped(k):
        r = row(k)
        if k != key:
            return r
        den, nums = r[a]
        return ChainMap({a: (den, {k3: (2 * x, 2 * y) for k3, (x, y) in nums.items()})}, r)
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
    name = name.replace("_column", "_row")  # the row lookup of the action's columns
    row = getattr(ctx, name)
    sig = ctx.sig_z if name == "rho_row" else ctx.sig
    one = ((0,) * sig.m, ())  # the constant monomial
    a = next(a for a in range(ctx.tkk.dim) if row(one)[a][1])
    setattr(ctx, name, double_one_entry(row, (a, one)))
    assert_fails(check(ctx, 1))


def qqi_commutator_failure(column, keys, identities):
    """The commutator loop over ``QQi`` columns {key: QQi} that the integer
    loop replaced; an oracle for ``linalg.commutator_failure``."""
    for label, A, B, s, rhs in identities:
        minus_s = QQi(-s)
        minus_rhs = [(C, -c) for C, c in rhs.items() if c]
        for key in keys:
            resid: dict = {}
            for k2, c in column(B, key).items():
                for k3, v in column(A, k2).items():
                    _acc(resid, k3, c * v)
            for k2, c in column(A, key).items():
                c = minus_s * c
                for k3, v in column(B, k2).items():
                    _acc(resid, k3, c * v)
            for C, cc in minus_rhs:
                for k3, v in column(C, key).items():
                    _acc(resid, k3, v * cc)
            if resid:
                return label, key
    return None


def random_qqi(rng, zero_parts=True):
    """A nonzero Gaussian rational over 1, 2, 3 or 6, often with a zero part."""
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if zero_parts and rng.random() < 0.4:
            a, b = (0, b) if rng.random() < 0.5 else (a, 0)
        if a or b:
            return QQi(a, b, rng.choice((1, 2, 3, 6)))


def identity_major_commutator_failure(column, keys, identities):
    """The identity-major integer loop that the key-major one replaced: one
    ``column_combination`` per (identity, key); an oracle for
    ``linalg.commutator_failure``."""
    for label, A, B, s, rhs in identities:
        minus_rhs = [(C, -q.a, -q.b, q.d) for C, c in rhs.items()
                     if (q := QQi.coerce(c))]  # zero terms stay unread
        for key in keys:
            terms = []
            for outer, inner, sign in ((B, A, 1), (A, B, -s)):
                d0, nums = column(outer, key)
                for k2, (x, y) in nums.items():
                    d1, inums = column(inner, k2)
                    terms.append((sign * x, sign * y, d0 * d1, inums))
            for C, x, y, e in minus_rhs:
                d0, nums = column(C, key)
                terms.append((x, y, d0 * e, nums))
            if any(re or im for re, im in column_combination(terms)[1].values()):
                return label, key
    return None


@pytest.mark.parametrize("seed", range(60))
def test_the_integer_commutator_loop_finds_the_failure_of_the_qqi_loop(seed):
    # seeds 40 and up plant two wrong entries: one for identity 1 on key 0
    # and one for identity 0 on a later key, so that the first failure in
    # identity-major order is not the first failing key
    rng = random.Random(seed)
    keys = list(range(6))

    def random_column():
        return {k: random_qqi(rng) for k in rng.sample(keys, rng.randint(0, 3))}
    cols = {op: {k: random_column() for k in keys} for op in ("A", "B", "D")}
    identities = []
    for label, s in (("even", 1), ("odd", -1)):
        # C = (A B - s B A - d D) / c, so that [A, B}_s = c C + d D holds exactly
        c, d = random_qqi(rng), random_qqi(rng)
        C = f"C{label}"
        cols[C] = {}
        for key in keys:
            resid: dict = {}
            for k2, x in cols["B"][key].items():
                for k3, v in cols["A"][k2].items():
                    _acc(resid, k3, x * v)
            for k2, x in cols["A"][key].items():
                for k3, v in cols["B"][k2].items():
                    _acc(resid, k3, x * v * -s)
            for k3, v in cols["D"][key].items():
                _acc(resid, k3, -d * v)
            cols[C][key] = {k: v / c for k, v in resid.items()}
        identities.append((label, "A", "B", s, {C: c, "D": d, "A": QQi(0)}))

    def plant(C, key):  # C x^key gains a nonzero entry
        k3 = rng.choice(keys)
        col = cols[C][key]
        col[k3] = col.get(k3, QQi(0)) + random_qqi(rng)
        if col[k3].is_zero():
            del col[k3]
    if seed >= 40:
        later = rng.choice(keys[1:])
        plant("Codd", keys[0])
        plant("Ceven", later)
    elif seed % 3:  # one wrong entry, at a random key of a random identity
        plant(rng.choice(("Ceven", "Codd")), rng.choice(keys))
    int_cols = {(op, key): int_column(col) for op, by_key in cols.items()
                for key, col in by_key.items()}
    rows = {key: {op: int_cols[op, key] for op in cols} for key in keys}
    want = qqi_commutator_failure(lambda op, key: cols[op][key], keys, identities)
    got = commutator_failure(rows.__getitem__, keys, identities)
    assert got == want
    assert identity_major_commutator_failure(
        lambda op, key: int_cols[op, key], keys, identities) == want
    if seed >= 40:
        assert want == ("even", later)
    else:
        assert (want is None) == (seed % 3 == 0)


def representation_loop_inputs(ctx, action):
    """(row, keys, identities) of the commutator loop of one representation
    check at max_degree 1: rho and pi on normal forms, D on the big signature."""
    tkk = ctx.tkk
    pairs = [(a, b) for a in range(tkk.dim) for b in range(a, tkk.dim)]
    if action == "D":
        bsig = tkk.big_signature
        row = verify.action_rows(TKK.realization_table, tkk, bsig, 0)
        keys = monomials_up_to(bsig, 1)
    else:
        row = ctx.rho_row if action == "rho" else ctx.pi_row
        keys = verify._nf_keys(ctx.sig_z if action == "rho" else ctx.sig, 1)
    return row, keys, list(verify._bracket_identities(tkk, pairs))


@pytest.mark.parametrize("m,n", [(4, 1), (5, 1), (3, 1)])
@pytest.mark.parametrize("action", ["rho", "pi", "D"])
@pytest.mark.parametrize("seed", range(2))
def test_a_doubled_column_fails_both_commutator_loops_alike(m, n, action, seed):
    ctx = small_context(m, n)
    row, keys, identities = representation_loop_inputs(ctx, action)
    assert commutator_failure(row, keys, identities) is None
    rng = random.Random(f"{m},{n},{action},{seed}")
    target = rng.choice([(a, key) for key in keys for a in range(ctx.tkk.dim)
                         if row(key)[a][1]])
    doubled = double_one_entry(row, target)
    want = identity_major_commutator_failure(lambda a, key: doubled(key)[a], keys, identities)
    assert want is not None
    assert commutator_failure(doubled, keys, identities) == want


# the witness each operator-row check makes of a loop failure (label, key)
ROW_WITNESS = {
    check_sl2_triple: "{} fails on {}",
    check_bessel_commutator: "{} on {}",
    check_angular_commutes: "{} fails on {}",
}


@pytest.mark.parametrize("check,op", [
    (check_sl2_triple, ("E",)),
    (check_bessel_commutator, ("L", 1, 2)),
    (check_angular_commutes, ("R2",)),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
def test_a_doubled_operator_column_fails_the_row_check_as_the_column_oracle_does(
        monkeypatch, check, op):
    # the check's own rows, with the column of op on x_1 x_2 doubled, in the
    # loop and in the identity-major oracle on the same identities
    ctx = small_context(4, 1)
    sig = ctx.sig
    assert check(ctx, 2)[0] is True
    loop = verify.commutator_failure
    seen = {}

    def doubled_loop(row, keys, identities):
        seen["args"] = double_one_entry(row, (op, x1x2(sig))), list(keys), list(identities)
        seen["got"] = loop(*seen["args"])
        return seen["got"]
    monkeypatch.setattr(verify, "commutator_failure", doubled_loop)
    ok, witness = check(ctx, 2)
    row, keys, identities = seen["args"]
    want = identity_major_commutator_failure(lambda o, key: row(key)[o], keys, identities)
    assert want is not None and seen["got"] == want
    assert (ok, witness) == (
        False, ROW_WITNESS[check].format(want[0], SuperPolynomial.monomial(sig, want[1])))


def qqi_skew_residual(table, keys, column, sign):
    """The nonzero entries {(p, q): <op p, q> + sign(p) <p, op q>} of the QQi
    contraction that the integer one replaced; ``column(p)`` is {r: QQi}."""
    pre: dict = {}
    for p in keys:
        for r, c in column(p).items():
            pre.setdefault(r, []).append((p, c))
    resid: dict = {}
    for (r, q), g in table.items():
        if q in keys:
            for p, c in pre.get(r, ()):
                _acc(resid, (p, q), c * g)
    for (p, r), g in table.items():
        if p in keys:
            for q, c in pre.get(r, ()):
                _acc(resid, (p, q), sign(p) * c.conjugate() * g)
    return resid


@pytest.mark.parametrize("seed", range(20))
def test_the_integer_skew_contraction_finds_a_failure_of_the_qqi_one(seed):
    # A diagonal pairing g_p = omega r_p with complex omega and rational r_p,
    # and an operator C with C[p][q] g_q = -s conj(C[q][p]) g_p, so that
    # <C p, q> + s <p, C q> = 0; complex entries on both sides, so the
    # conjugation is seen.
    rng = random.Random(seed)
    keys = list(range(5))
    omega = random_qqi(rng, zero_parts=False)
    g = {p: omega * QQi(rng.choice((1, 2, 3, -1, -2)), 0, rng.choice((1, 2, 3, 6)))
         for p in keys}
    s = rng.choice((1, -1))
    cols: dict = {p: {} for p in keys}
    for p in keys:
        for q in keys[p:]:
            if rng.random() < 0.5:
                continue
            c = random_qqi(rng)
            if p == q:  # C[p][p] = -s conj(C[p][p])
                cols[p][p] = QQi(0, c.b or 1, c.d) if s == 1 else QQi(c.a or 1, 0, c.d)
            else:
                cols[q][p] = c
                cols[p][q] = -s * c.conjugate() * g[p] / g[q]
    if seed % 3:  # one wrong off-diagonal entry
        p, q = rng.sample(keys, 2)
        cols[p][q] = cols[p].get(q, QQi(0)) + random_qqi(rng)
        if cols[p][q].is_zero():
            del cols[p][q]
    table = {(p, p): v for p, v in g.items()}
    want = qqi_skew_residual(table, keys, lambda p: cols[p], lambda p: s)
    got = skew_failure(int_column(table), keys, lambda p: int_column(cols[p]), lambda p: s)
    assert (got is None) == (not want) == (seed % 3 == 0)
    assert got is None or got in want


@pytest.mark.parametrize("m,n", [(5, 1), (4, 1)])
def test_rho_apply_equals_the_rho_columns(m, n):
    ctx = small_context(m, n)
    sig = ctx.sig_z
    for key in monomials_up_to(sig, 2):
        p = SuperPolynomial.monomial(sig, key)
        for a in range(ctx.tkk.dim):
            assert column_terms(ctx.rho_row(key)[a]) == \
                rho_apply(ctx.tkk.basis_element(a), p).terms


def test_a_corrupted_realization_fails_the_check(monkeypatch):
    ctx = small_context()
    assert check_realization(ctx, 1)[0] is True
    table = TKK.realization_table

    def doubled_first_element(tkk, a):
        return [(d, c * 2 if a == 0 else c) for d, c in table(tkk, a)]

    monkeypatch.setattr(TKK, "realization_table", doubled_first_element)
    assert_fails(check_realization(small_context(), 1))


def test_the_actions_refuse_an_element_of_another_shape():
    tkk = tkk_for(Signature(4, 1))
    X = tkk.minus(0)
    with pytest.raises(ValueError, match="different shapes"):
        pi_apply(X, SuperPolynomial.one(Signature(5, 1)))
    with pytest.raises(ValueError, match="different shapes"):
        rho_apply(X, SuperPolynomial.one(Signature(5, 1, varset="z")))
    # pi and rho act on the algebra's shape, D on its big signature only
    y1 = SuperPolynomial.variable(tkk.big_signature, 1)
    x1 = SuperPolynomial.variable(tkk.sig, 1)
    with pytest.raises(ValueError, match="different shapes"):
        pi_apply(X, y1)
    with pytest.raises(ValueError, match="different shapes"):
        rho_apply(X, y1)
    with pytest.raises(ValueError, match="different shapes"):
        table_apply(TKK.realization_table, apply_op, X, x1)
    for table, sig in ((pi_table, tkk.big_signature),
                       (rho_table, tkk.big_signature),
                       (TKK.realization_table, tkk.sig),
                       (rho_table, Signature(5, 1, varset="z"))):
        with pytest.raises(ValueError, match="different shapes"):
            table_columns(table, tkk, sig)


@pytest.mark.parametrize("m,n", [(4, 0), (5, 1), (2, 2)])
def test_the_integer_fill_equals_the_columns_of_the_polynomial_applier(m, n):
    # the same tuple, denominator included: pi at rates 0 and 2, rho and D
    tkk = tkk_for(Signature(m, n))
    sig, sig_z, bsig = tkk.sig, Signature(m, n, varset="z"), tkk.big_signature
    nf = [key for d in range(3) for key in normal_form_keys(sig, d)]
    nf_z = [key for d in range(3) for key in normal_form_keys(sig_z, d)]
    for table, op, space, rate, keys in (
            (pi_table, pi_op, sig, 2, nf), (pi_table, pi_op, sig_z, 0, nf_z),
            (rho_table, pi_op, sig_z, 0, nf_z),
            (TKK.realization_table, apply_op, bsig, 0, monomials_up_to(bsig, 2))):
        assert_fill_equals_the_polynomial_applier(tkk, table, op, space, rate, keys)


def assert_fill_equals_the_polynomial_applier(tkk, table, op, space, rate, keys):
    """``table_columns`` on each key against ``int_column`` of ``table_apply``
    of every basis element: the same tuple, denominator included.  The fill
    reduces modulo R^2 where op is ``pi_op``."""
    fill = table_columns(table, tkk, space, rate, nf_terms if op is pi_op else None)
    for key in keys:
        p = SuperPolynomial.monomial(space, key)
        columns = fill(key)
        for a in range(tkk.dim):
            want = int_column(table_apply(table, op, tkk.basis_element(a), p, rate).terms)
            assert columns[a] == want, (table.__name__, rate, a, key)


def test_the_fill_equals_the_polynomial_applier_at_a_rational_rate_and_metric():
    # rate 1/3 and a metric with entries 2, 1/3 and -2 run the closed forms
    # and the reduction in QQi; D on the big signature stays integral
    tkk = tkk_for(Signature(4, 1))
    beta = [[0] * 6 for _ in range(6)]
    for i, b in enumerate((-1, 2, QQi(1, 0, 3), 1)):
        beta[i][i] = b
    beta[4][5], beta[5][4] = -2, 2
    odd_metric = Signature(4, 1, varset="z", beta=beta)
    assert odd_metric.beta != Signature(4, 1, varset="z").beta
    bsig = tkk.big_signature
    for table, op, space, rate in ((pi_table, pi_op, tkk.sig, Fraction(1, 3)),
                                   (pi_table, pi_op, odd_metric, 0),
                                   (pi_table, pi_op, odd_metric, 2),
                                   (pi_table, pi_op, odd_metric, Fraction(1, 3)),
                                   (rho_table, pi_op, odd_metric, 0),
                                   (TKK.realization_table, apply_op, bsig, 0)):
        keys = (monomials_up_to(bsig, 2) if space is bsig else
                [key for d in range(3) for key in normal_form_keys(space, d)])
        assert_fill_equals_the_polynomial_applier(tkk, table, op, space, rate, keys)


def first_inn_bracket(tkk):
    """The first pair (a, b) of inner derivations with [X_a, X_b] != 0."""
    inn = [a for a, d in enumerate(tkk.basis) if d[0] == "inn"]
    return next((a, b) for a in inn for b in inn if tkk.struct[a, b])


def double_struct(tkk, pairs):
    for key in pairs:
        tkk.struct[key] = {k: v * 2 for k, v in tkk.struct[key].items()}


@pytest.mark.parametrize("check", [check_realization, check_tkk_axioms,
                                   check_pi_representation])
def test_a_corrupted_structure_constant_fails_the_check(check):
    # a fresh algebra, so that the shared one of the shape stays intact
    ctx = small_context(4, 1)
    tkk = ctx.tkk = TKK(ctx.sig)
    args = () if check is check_tkk_axioms else (1,)
    assert check(ctx, *args)[0] is True
    a, b = first_inn_bracket(tkk)
    double_struct(tkk, [(a, b), (b, a)])  # both orders, so that antisymmetry still holds
    assert_fails(check(ctx, *args))


def qqi_tkk_axioms(ctx, full_jacobi_limit=36):
    """The ``QQi`` route of ``check_tkk_axioms`` that the commutator loop on
    integer columns replaced: the basis brackets P[a][b] are formed once as
    ``TKKElement``s, antisymmetry compares them, and the Jacobi identity takes
    its three inner brackets from them, over all triples in lexicographic
    order or over 2,000 sampled ones."""
    tkk = ctx.tkk
    dim = tkk.dim
    X = [tkk.basis_element(a) for a in range(dim)]
    P = [[tkk.bracket(x, y) for y in X] for x in X]
    odd = [tkk.parity(a) for a in range(dim)]
    for a in range(dim):
        for b in range(dim):
            s = -1 if (odd[a] and odd[b]) else 1
            if P[a][b] != P[b][a].scale(-s):
                return False, f"antisymmetry fails at ({a},{b})"
    if dim <= full_jacobi_limit:
        triples = [(a, b, c) for a in range(dim) for b in range(dim) for c in range(dim)]
    else:
        rng = ctx.rng
        triples = [(rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))
                   for _ in range(2000)]
    for (a, b, c) in triples:
        s = -1 if (odd[a] and odd[b]) else 1
        lhs = tkk.bracket(X[a], P[b][c])
        rhs = tkk.bracket(P[a][b], X[c]) + tkk.bracket(X[b], P[a][c]).scale(s)
        if lhs != rhs:
            return False, f"Jacobi fails at ({a},{b},{c})"
    mode = "all" if dim <= full_jacobi_limit else "sampled"
    return True, f"antisymmetry on all pairs; Jacobi on {mode} triples"


@pytest.mark.parametrize("m,n", [(4, 1), (5, 1)])  # all triples, then sampled ones
@pytest.mark.parametrize("sides", [0, 1, 2])
def test_the_jacobi_loop_gives_the_witness_of_the_qqi_route(m, n, sides):
    # one inn-inn bracket doubled on no side, on one side (antisymmetry
    # breaks) or on both (antisymmetry holds, Jacobi breaks)
    ctx = small_context(m, n)
    tkk = ctx.tkk = TKK(ctx.sig)
    a, b = first_inn_bracket(tkk)
    double_struct(tkk, [(a, b), (b, a)][:sides])
    state = ctx.rng.getstate()
    got = check_tkk_axioms(ctx)
    after = ctx.rng.getstate()
    ctx.rng.setstate(state)
    assert got == qqi_tkk_axioms(ctx)
    assert ctx.rng.getstate() == after
    assert got[0] is (sides == 0)
    assert got[1].startswith(("antisymmetry on all", "antisymmetry fails", "Jacobi fails")[sides])


def qqi_cayley(ctx):
    """The ``QQi`` route of ``check_cayley`` that the integer columns replaced:
    bracket preservation compares c([X_a, X_b]) with [c X_a, c X_b] as
    ``TKKElement``s."""
    tkk = ctx.tkk
    nv = ctx.sig.nvars
    quarter = QQi(1, 0, 4)
    for l in range(nv):
        if tkk.cayley(tkk.minus(l)) != tkk.minus(l, quarter) + tkk.L(l, I) + tkk.plus(l):
            return False, f"closed form fails on minus e_{l}"
        if tkk.cayley(tkk.L(l)) != tkk.minus(l, I * quarter) + tkk.plus(l, -I):
            return False, f"closed form fails on L_{l}"
        if tkk.cayley(tkk.plus(l)) != tkk.minus(l, quarter) + tkk.L(l, -I) + tkk.plus(l):
            return False, f"closed form fails on plus e_{l}"
    for (i, j) in tkk.inn_pairs:
        if tkk.cayley(tkk.inn(i, j)) != tkk.inn(i, j):
            return False, f"inner derivation not fixed: ({i},{j})"
    for a in range(tkk.dim):
        X = tkk.basis_element(a)
        for b in range(tkk.dim):
            Y = tkk.basis_element(b)
            if tkk.cayley(tkk.bracket(X, Y)) != tkk.bracket(tkk.cayley(X), tkk.cayley(Y)):
                return False, f"bracket preservation fails at ({a},{b})"
    for x in k_basis(tkk):
        cx = tkk.cayley(x)
        if cx.part("minus") or cx.part("plus"):
            return False, "image of (a, I, -a) has nonzero odd grade"
    return True, "closed forms, bracket preservation, and c(k) in istr"


@pytest.mark.parametrize("kind", ["minus", "L", "inn", "plus"])
def test_a_doubled_cayley_image_fails_the_cayley_check_as_the_qqi_route_does(kind):
    # the closed forms pin down the image of every basis element, so they see it
    ctx = small_context(4, 1)
    tkk = ctx.tkk = TKK(ctx.sig)
    assert check_cayley(ctx)[0] is True
    b = next(b for b, d in enumerate(tkk.basis) if d[0] == kind)
    image = tkk._cayley_columns[0][b]
    r = next(iter(image))
    image[r] = image[r] * 2
    got = check_cayley(ctx)
    assert got[0] is False and got == qqi_cayley(ctx)


@pytest.mark.parametrize("m,n", [(4, 1), (2, 2)])
def test_a_corrupted_bracket_fails_the_bracket_preservation_as_the_qqi_route_does(m, n):
    # the Cayley images are made before the corruption, so the closed forms
    # hold; c fixes the inner derivations, so [e_1^+, e_1^-] is doubled
    ctx = small_context(m, n)
    tkk = ctx.tkk = TKK(ctx.sig)
    tkk._cayley_columns
    a, b = tkk.index[("plus", 1)], tkk.index[("minus", 1)]
    double_struct(tkk, [(a, b), (b, a)])
    got = check_cayley(ctx)
    assert got[0] is False and got[1].startswith("bracket preservation fails at")
    assert got == qqi_cayley(ctx)


@pytest.mark.parametrize("m,n,kind", [(4, 1, "minus"), (4, 1, "inn"), (2, 2, "L")])
def test_a_doubled_realization_entry_fails_the_matrix_model_as_the_qqi_route_does(
        monkeypatch, m, n, kind):
    # X_a is the first basis element of its kind, and the first nonzero entry
    # (r, u) of its matrix, u outer, is doubled
    ctx = small_context(m, n)
    tkk = ctx.tkk
    bsig = tkk.big_signature
    a = next(a for a, d in enumerate(tkk.basis) if d[0] == kind)
    mat = osp_matrix(tkk, tkk.basis_element(a))
    u, r = next((u, r) for u in range(bsig.nvars) for r in range(bsig.nvars) if mat[r][u])
    key_u, key_r = (next(iter(SuperPolynomial.variable(bsig, v).terms)) for v in (u, r))
    assert check_osp_matrices(ctx) == (True, "")
    action_rows = verify.action_rows

    def doubled(*args):
        rows = action_rows(*args)

        def wrapped(key):
            row = rows(key)
            if key != key_u:
                return row
            den, nums = row[a]
            return ChainMap({a: (den, {**nums, key_r: tuple(2 * z for z in nums[key_r])})}, row)
        return wrapped

    def doubled_matrix(b):
        mat = osp_matrix(tkk, tkk.basis_element(b))
        if b == a:
            mat[r][u] = mat[r][u] * 2
        return mat
    monkeypatch.setattr(verify, "action_rows", doubled)
    assert check_osp_matrices(ctx) == qqi_matrix_model(tkk, doubled_matrix) == \
        (False, f"metric not preserved by basis element {a}")


def test_a_multiple_of_one_realization_passes_the_matrix_model_but_not_the_realization(
        monkeypatch):
    # at (4,1), D of the odd-pair inner derivation ("inn", 5, 5) maps y_6 to
    # 2 y_7; doubled to 4 y_7, D(X_a) is still in the orthosymplectic algebra
    ctx = small_context(4, 1)
    tkk = ctx.tkk
    a = tkk.basis.index(("inn", 5, 5))
    y6 = next(iter(SuperPolynomial.variable(tkk.big_signature, 6).terms))
    action_rows = verify.action_rows
    monkeypatch.setattr(verify, "action_rows",
                        lambda *args: double_one_entry(action_rows(*args), (a, y6)))
    status = {r.name: (r.status, r.detail) for r in run_checks(ctx, ("liealg",))}
    assert status["matrix-model"] == ("pass", "")
    assert status["differential-realization"] == ("fail", f"homomorphism fails at pair (4,{a})")


def test_a_failing_word_sample_names_its_basis_element(monkeypatch):
    ctx = small_context(5, 0)  # M = 5: the forward transform is defined
    tkk = ctx.tkk
    nonzero = SuperPolynomial.one(ctx.sig_z)
    monkeypatch.setattr(verify, "rho_apply", lambda X, p: rho_apply(X, p) + nonzero)
    # no monomials of degree <= -1, so the first word sample is the witness
    rng = random.Random(ctx.cfg.seed + 1)
    for _ in range(rng.randrange(3)):
        rng.randrange(tkk.dim)
    label = tkk.basis_label(rng.randrange(tkk.dim))
    assert check_intertwining(ctx, -1) == (False, f"{label} on a sampled word vector")


def intertwining_by_polynomials(ctx, max_degree):
    """The basis-element loop of ``check_intertwining`` on polynomials, the
    route its column contraction replaced: the first failure's detail, or None."""
    tkk = ctx.tkk
    for a in range(tkk.dim):
        X = tkk.basis_element(a)
        for f in ctx.monomials(ctx.sig, max_degree):
            diff = ctx.sb.sb(pi_apply(X, f)) - rho_apply(X, ctx.sb.sb(f))
            if not diff.is_zero():
                return f"{tkk.basis_label(a)} on {f}: residue {diff}"
    return None


def test_a_doubled_forward_image_fails_the_intertwining_as_the_polynomials_do():
    ctx = small_context(5, 0)
    # degree 3 is out of the spanning set of degree <= 2: pi(X) f alone reads it
    key = normal_form_keys(ctx.sig, 3)[0]
    den, nums = ctx.sb.sb_column(key)
    ctx.sb._columns[key] = den, {k: (2 * x, 2 * y) for k, (x, y) in nums.items()}
    ok, witness = check_intertwining(ctx, 2)
    assert ok is False
    assert witness == intertwining_by_polynomials(ctx, 2) == \
        "e0- on 1*x0*x4: residue -15/32*i*z4 + -3/16*i*z0*z4 + -1/32*i*z4^3"


def test_a_doubled_inverse_image_fails_the_inverse_intertwining():
    ctx = small_context(5, 0)
    assert check_intertwining_inverse(ctx, 2)[0] is True
    ctx = small_context(5, 0)
    z0 = ((1,) + (0,) * (ctx.sig.m - 1), ())
    den, nums = ctx.sb.inverse_column(z0)
    ctx.sb._inv_columns[z0] = den, {k: (2 * x, 2 * y) for k, (x, y) in nums.items()}
    assert_fails(check_intertwining_inverse(ctx, 2))


@pytest.mark.parametrize("check", [check_intertwining, check_intertwining_inverse])
def test_a_doubled_rho_column_fails_both_intertwining_checks(check):
    ctx = small_context(5, 0)
    one = ((0,) * ctx.sig.m, ())
    # both checks read rho(X_a) on 1: SB(1) = 1, and 1 lies in F_<=2
    a = next(a for a in range(ctx.tkk.dim) if ctx.rho_row(one)[a][1])
    ctx.rho_row = double_one_entry(ctx.rho_row, (a, one))
    assert_fails(check(ctx, 2))


def test_a_corrupted_pairing_fails_the_angular_adjointness():
    ctx = small_context()
    assert check_bf_l_adjoint(ctx, 1)[0] is True
    _, nums = ctx.bf_table(1)
    pair = next(pair for pair in nums if pair[0] != pair[1])
    assert pair == (((0, 0, 0, 0, 0), (5,)), ((0, 0, 0, 0, 0), (6,)))
    nums[pair] = tuple(2 * x for x in nums[pair])
    assert check_bf_l_adjoint(ctx, 1) == (
        False, "adjointness fails at L(0,5) on (((1, 0, 0, 0, 0), ()), ((0, 0, 0, 0, 0), (6,)))")


def triple_loop_shift_failure(sig, covs):
    """The (degree, p, i, q) loop of the shift identity that the inverse
    Bessel-image map replaced, over every q of the degree above; an oracle
    for ``verify._shift_identity_failure``."""
    for k in range(len(covs) - 1):
        for ka in monomial_keys(sig, k):
            for i in range(sig.nvars):
                if not (zia := mul_key(sig.m, i, ka)):
                    continue
                zc, zkey = zia
                s = QQi(-1 if (sig.parity(i) and len(ka[1]) & 1) else 1)
                upper, lower = covs[k + 1][zkey], covs[k][ka]
                for kb in monomial_keys(sig, k + 1):
                    d, image = bessel_image(sig, i, kb)
                    g = upper.get(kb)
                    terms = [QQi(a, b, d) * h for bkey, (a, b) in image.items()
                             if (h := lower.get(bkey)) is not None]
                    if g is None and not terms:
                        continue  # both sides vanish
                    if zc * (ZERO if g is None else g) != s * sum(terms, ZERO):
                        return i, ka, kb
    return None


@pytest.mark.parametrize("m,n", [(5, 1), (5, 0), (2, 2)])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("doubled", [1, 2])
def test_a_doubled_covector_entry_fails_both_shift_identity_routes_alike(m, n, seed, doubled):
    # a copy of the degree-2 covectors with one or two entries of one
    # covector doubled: it is the upper side at degree 1 and the lower side
    # at degree 2.  The doubled covector keeps its entries in reverse order,
    # so that the first failing q is not the first one in the map.
    sig = Signature(m, n, varset="z")
    covs = [bf_covectors(sig, k) for k in range(4)]
    assert verify._shift_identity_failure(sig, covs) is None
    assert triple_loop_shift_failure(sig, covs) is None
    rng = random.Random(seed)
    p = rng.choice(sorted(p for p, vec in covs[2].items() if len(vec) >= doubled))
    row = dict(sorted(covs[2][p].items(), reverse=True))
    for q in rng.sample(sorted(row), doubled):
        row[q] = row[q] * 2
    covs[2] = {**covs[2], p: row}
    want = triple_loop_shift_failure(sig, covs)
    assert want is not None
    assert verify._shift_identity_failure(sig, covs) == want


def test_memoized_columns_do_not_outlive_the_context():
    ctx = small_context()
    results = run_checks(ctx, ("fock",))
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
    a = next(a for a in range(ctx.tkk.dim) if ctx.rho_row(one)[a][1])
    ctx.rho_row = double_one_entry(ctx.rho_row, (a, one))
    assert check_rho_skew(ctx, 1)[0] is True


def test_a_doubled_rho_table_coefficient_fails_the_cayley_route_at_m_2(monkeypatch):
    # Second route for the blind spot above: doubling the z_1 coefficient of
    # rho(L_1) changes rho only by terms of degree >= 1 on F_<=1, which the
    # form at M = 2 cannot see, so rho-skew passes at (4,1) and fails at
    # (5,1); the Cayley route compares rho with pi_C, which reads pi_table,
    # and fails at (4,1).
    def doubled(tkk, a):
        row = rho_table(tkk, a)
        if tkk.basis[a] == ("L", 1):
            return [(d, 2 * c if d[0] == "mul" else c) for d, c in row]
        return row
    monkeypatch.setattr(verify, "rho_table", doubled)
    ctx = small_context(4, 1)
    assert check_rho_skew(ctx, 1)[0] is True
    assert check_rho_composition(ctx, 1) == (False, "L1 on 1")
    assert_fails(check_rho_skew(small_context(5, 1), 1))


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


def doubled_on(fn, key, *only):
    """Wrap a closed form of the operator table so that its image of the
    monomial x^key is doubled, for operator arguments starting with only."""
    def wrapped(sig, k, rate, *args):
        out = fn(sig, k, rate, *args)
        if k == key and args[:len(only)] == only:
            return {image_key: 2 * v for image_key, v in out.items()}
        return out
    return wrapped


def x1x2(sig):
    (key,) = SuperPolynomial.variable(sig, 1).mul_var(2).terms
    return key


WITNESS = {
    check_sl2_triple: r"\[(Delta,R\^2|Delta,E|R\^2,E)\] fails on \S.*",
    check_bessel_supercommute: r"supercommutativity fails at \(\d+,\d+\) on \S.*",
    check_bessel_commutator: r"commutator fails at \(\d+,\d+\) on \S.*",
    check_bessel_product_rule: r"product rule fails: i=\d+, phi=\S.*, psi=\S.*",
}


@pytest.mark.parametrize("check,op", [
    (check_sl2_triple, ("E",)),
    (check_sl2_triple, ("R2",)),
    # doubling every B_i on one monomial would keep B_i B_j = +-B_j B_i
    (check_bessel_supercommute, ("bessel_mod", 1)),
    (check_bessel_commutator, ("L",)),
    (check_bessel_commutator, ("mul",)),
    (check_bessel_product_rule, ("bessel",)),
    (check_bessel_product_rule, ("d_lower",)),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
def test_a_corrupted_operator_fails_the_algebra_check(monkeypatch, check, op):
    # at M = 2 the Bessel operators kill some degree-2 images, so take M = 3
    ctx = small_context(5, 1)
    assert check(ctx, 2)[0] is True
    name, *only = op
    monkeypatch.setitem(_OPS, name, doubled_on(_OPS[name], x1x2(ctx.sig), *only))
    ok, witness = check(ctx, 2)
    assert ok is False and re.fullmatch(WITNESS[check], witness), witness


@pytest.mark.parametrize("m,n", [(3, 0), (4, 0), (5, 1)])
def test_representative_independence_passes(m, n):
    assert check_representative_independence(small_context(m, n)) == (True, "")


def test_a_non_tangential_operator_fails_representative_independence(monkeypatch):
    ctx = small_context(4, 0)
    monkeypatch.setitem(_OPS, "E", _OPS["Delta"])
    ok, witness = check_representative_independence(ctx)
    assert ok is False and witness.startswith("('E',) depends on the representative")


def test_the_delta_control_of_representative_independence_is_live(monkeypatch):
    ctx = small_context(4, 0)
    monkeypatch.setitem(_OPS, "Delta", _OPS["E"])
    assert check_representative_independence(ctx) == \
        (False, "control: Delta maps R^2 into the ideal")


def test_a_doubled_bessel_image_on_a_term_of_r2_fails_the_tangentiality(monkeypatch):
    ctx = small_context(4, 0)
    assert check_bessel_tangential(ctx, 3)[0] is True
    x1_squared = ((0, 2, 0, 0), ())
    assert x1_squared in R2(ctx.sig).terms
    monkeypatch.setitem(_OPS, "bessel", doubled_on(_OPS["bessel"], x1_squared))
    assert check_bessel_tangential(ctx, 3) == (False, "B_(2-M)(x_0) leaks on R^2*1")


def test_a_bessel_operator_blind_to_lambda_has_no_counterexample(monkeypatch):
    ctx = small_context(4, 0)
    bessel = _OPS["bessel"]
    monkeypatch.setitem(_OPS, "bessel",
                        lambda sig, key, rate, lam, k: bessel(sig, key, rate, QQi(2 - sig.M), k))
    assert check_bessel_tangential(ctx, 3) == (False, "no counterexample found at lambda = 3-M")


def test_each_sb_check_carries_one_identity_whether_it_runs_or_skips():
    # the kernel series is undefined at M = 2: (4,1) skips it and (5,0) runs it
    runs = {(m, n): run_suite(RunConfig(m=m, n=n, max_degree=1, suites=("sb",)))
            for m, n in ((4, 1), (5, 0))}
    status = {shape: {r.status for r in results if r.name == "kernel-series-identities"}
              for shape, results in runs.items()}
    assert status == {(4, 1): {"skip"}, (5, 0): {"pass"}}
    identities: dict = {}
    for results in runs.values():
        for r in results:
            identities.setdefault(r.name, set()).add(r.identity)
    assert {name: len(v) for name, v in identities.items() if len(v) > 1} == {}


def product_rule_oracle(ctx, max_degree):
    """An earlier polynomial route of the product rule, with the Bessel
    operator inline; it reads E, Delta and d_lower from the operator table,
    so a corrupted entry reaches it as well."""
    E, lap = partial(apply_op, ("E",)), partial(apply_op, ("Delta",))
    sig = ctx.sig
    lam = QQi(2 - sig.M)
    monos = monomials_up_to(sig, max_degree)
    nv = sig.nvars
    cache = []
    for key in monos:
        p = SuperPolynomial.monomial(sig, key)
        cache.append((p, E(p), lap(p), [apply_op(("d_lower", r), p) for r in range(nv)]))
    for (phi, ephi, lphi, dphi) in cache:
        pphi = parity(phi)
        for (psi, epsi, lpsi, dpsi) in cache:
            prod = phi * psi
            lprod = lap(prod)
            cross = SuperPolynomial.zero(sig)
            for r, s, b in sig.beta_inv_pairs:
                sr = -1 if (pphi and sig.parity(r)) else 1
                cross = cross + (dphi[r] * dpsi[s]).scale(b * sr)
            for i in range(nv):
                si = -1 if (sig.parity(i) and pphi) else 1
                bphi = dphi[i].scale(-lam) + E(dphi[i]).scale(2) - lphi.mul_var(i)
                bpsi = dpsi[i].scale(-lam) + E(dpsi[i]).scale(2) - lpsi.mul_var(i)
                rhs = bphi * psi + (phi * bpsi).scale(si) \
                    + (ephi * dpsi[i]).scale(2 * si) \
                    + (dphi[i] * epsi).scale(2) \
                    - cross.mul_var(i).scale(2)
                dprod = apply_op(("d_lower", i), prod)
                lhs = dprod.scale(-lam) + E(dprod).scale(2) - lprod.mul_var(i)
                if lhs != rhs:
                    return False, f"product rule fails: i={i}, phi={phi}, psi={psi}"
    return True, f"all monomial pairs of degree <= {max_degree}"


def polynomial_product_rule(ctx, max_degree):
    """The polynomial route that check_bessel_product_rule replaced: every
    image an ``op_image`` of a monomial from one per-check memo, every
    product and sum a ``SuperPolynomial`` one."""
    sig = ctx.sig
    nv = sig.nvars
    op = cache(partial(op_image, sig))
    B = [("bessel", 2 - sig.M, i) for i in range(nv)]

    def image(d, key, c=1):
        return SuperPolynomial(sig, op(d, key)).scale(c)
    # (phi, 2 E phi, [d_lower(r) phi], [B_i phi]) for each monomial phi
    monos = [(SuperPolynomial.monomial(sig, key), image(("E",), key, 2),
              [image(("d_lower", r), key) for r in range(nv)], [image(b, key) for b in B])
             for key in monomials_up_to(sig, max_degree)]
    for (phi, ephi2, dphi, bphi) in monos:
        pphi = parity(phi)
        for (psi, epsi2, dpsi, bpsi) in monos:
            # phi psi is a signed monomial or zero, and B_i is linear
            prod = (phi * psi).terms.items()
            # twice the index-independent cross term; d_r(phi) d_s(psi) is zero
            # unless x_r divides phi and x_s divides psi
            cross2 = SuperPolynomial.zero(sig)
            for r, s, b in sig.beta_inv_pairs:
                if dphi[r].terms and dpsi[s].terms:
                    sr = -2 if (pphi and sig.parity(r)) else 2
                    cross2 = cross2 + (dphi[r] * dpsi[s]).scale(b * sr)
            for i in range(nv):
                si = -1 if (sig.parity(i) and pphi) else 1
                rhs = bphi[i] * psi + (phi * bpsi[i] + ephi2 * dpsi[i]).scale(si) \
                    + dphi[i] * epsi2 - cross2.mul_var(i)
                lhs = {k3: c * v for k, c in prod for k3, v in op(B[i], k).items()}
                if lhs != rhs.terms:
                    return False, f"product rule fails: i={i}, phi={phi}, psi={psi}"
    return True, f"all monomial pairs of degree <= {max_degree}"


def assert_the_product_rule_routes_agree(ctx, op):
    """The integer route gives the full verdict and witness of the polynomial
    route, and the verdict of the inline oracle, which computes the Bessel
    operator itself and so cannot see a corrupted "bessel" entry."""
    got = check_bessel_product_rule(ctx, 2)
    assert got == polynomial_product_rule(ctx, 2)
    assert got[0] is (op is None)
    if op != "bessel":
        assert product_rule_oracle(ctx, 2)[0] is got[0]


@pytest.mark.parametrize("m,n", [(4, 1), (2, 2)])
@pytest.mark.parametrize("op", [None, "E", "d_lower", "bessel"])
def test_product_rule_gives_the_verdict_of_the_polynomial_route(monkeypatch, m, n, op):
    ctx = small_context(m, n)
    if op:
        monkeypatch.setitem(_OPS, op, doubled_on(_OPS[op], x1x2(ctx.sig)))
    assert_the_product_rule_routes_agree(ctx, op)


@pytest.mark.parametrize("m,n", [(4, 1), (2, 2)])
@pytest.mark.parametrize("op", ["E", "d_lower", "bessel"])
@pytest.mark.parametrize("odd", ["x1t1", "t1t2"])
def test_a_corruption_on_an_odd_monomial_fails_the_product_rule_as_the_polynomial_route_does(
        monkeypatch, m, n, op, odd):
    # the supersign s_i and the odd-odd sign of the cross term act on these pairs
    ctx = small_context(m, n)
    sig = ctx.sig
    a, b = {"x1t1": (1, sig.m), "t1t2": (sig.m, sig.m + 1)}[odd]
    (key,) = SuperPolynomial.variable(sig, a).mul_var(b).terms
    monkeypatch.setitem(_OPS, op, doubled_on(_OPS[op], key))
    assert_the_product_rule_routes_agree(ctx, op)


def test_a_corrupted_angular_operator_fails_the_angular_commutant(monkeypatch):
    ctx = small_context(4, 1)
    assert check_angular_commutes(ctx, 2)[0] is True
    monkeypatch.setitem(_OPS, "L", doubled_on(_OPS["L"], x1x2(ctx.sig)))
    ok, witness = check_angular_commutes(ctx, 2)
    assert ok is False and re.fullmatch(r"\[L_\d+, (R\^2|E|Delta)\] fails on \S.*", witness)


@pytest.mark.parametrize("op", ["R2", "E", "Delta"])
def test_a_corrupted_memoized_operator_fails_the_angular_commutant_as_unmemoized_columns_do(
        monkeypatch, op):
    ctx = small_context(4, 1)
    sig = ctx.sig
    # Delta vanishes on x_1 x_2, not on x_1^2
    monkeypatch.setitem(_OPS, op, doubled_on(_OPS[op], ((0, 2, 0, 0), ())))
    keys = monomials_up_to(sig, 2)
    bad = identity_major_commutator_failure(partial(op_column, sig), keys, [
        (f"[L_{i}{j}, {name}]", ("L", i, j), C, 1, {})
        for i in range(sig.nvars) for j in range(sig.nvars) if i != j or sig.parity(i)
        for name, C in (("R^2", ("R2",)), ("E", ("E",)), ("Delta", ("Delta",)))])
    assert bad is not None
    sizes = {name: info.currsize for name, info in superfock.cache_stats().items()}
    assert check_angular_commutes(ctx, 2) == \
        (False, f"{bad[0]} fails on {SuperPolynomial.monomial(sig, bad[1])}")
    # the memo of the R^2, E and Delta columns goes with the check
    assert {name: info.currsize for name, info in superfock.cache_stats().items()} == sizes


@pytest.mark.parametrize("m,n", [(3, 0), (4, 1)])
def test_a_corrupted_jordan_product_fails_the_jordan_identity(monkeypatch, m, n):
    # e_1 e_1 gains an e_2 term: symmetric, and e_0 stays the unit; the
    # corrupted product builds a fresh TKK, so the ``tkk_for`` memo keeps the
    # true one
    image = TKK._image

    def corrupted(self, desc, k):
        out = image(self, desc, k)
        return {**out, 2: out.get(2, 0) + 1} if desc == ("L", 1) and k == 1 else out
    ctx = small_context(m, n)
    assert check_jordan(ctx) == (True, "")
    monkeypatch.setattr(TKK, "_image", corrupted)
    ctx.tkk = TKK(ctx.sig)
    ok, witness = check_jordan(ctx)
    assert ok is False and re.fullmatch(r"Jordan identity fails on basis triple \(\d+,\d+,\d+\)",
                                        witness), witness


@pytest.mark.parametrize("m,n,target,extra,triple", [
    (4, 1, {(1, 3), (3, 1)}, 2, (1, 1, 3)),  # e_1 e_3 = e_3 e_1 gains e_2
    (5, 1, {(2, 2)}, 1, (2, 2, 2)),  # e_2 e_2 gains e_1
])
def test_a_corrupted_jordan_product_fails_at_its_first_basis_triple(
        monkeypatch, m, n, target, extra, triple):
    # Both corruptions keep the unit and supercommutativity, and 80 triples
    # drawn from a fresh context at seed 0 miss every failing one; the check
    # visits every triple, so it names the first failing one
    image = TKK._image

    def corrupted(self, desc, k):
        out = image(self, desc, k)
        if desc[0] == "L" and (desc[1], k) in target:
            return {**out, extra: out.get(extra, 0) + 1}
        return out
    assert check_jordan(small_context(m, n)) == (True, "")
    monkeypatch.setattr(TKK, "_image", corrupted)
    ctx = small_context(m, n)
    ctx.tkk = TKK(ctx.sig)
    assert check_jordan(ctx) == (False, "Jordan identity fails on basis triple ({},{},{})"
                                 .format(*triple))


def doubled_moment(sig, key, rate=4):
    """The moment table with the value at (sig, key, rate) doubled."""
    moment = integral.moment

    def wrapped(s, k, r):
        value = moment(s, k, r)
        return value * 2 if (s, k, r) == (sig, key, rate) else value
    return wrapped


@pytest.mark.parametrize("m,n", [(5, 0), (6, 1)])
@pytest.mark.parametrize("check", [check_intertwining, check_unitarity])
def test_a_corrupted_moment_fails_the_forward_checks(monkeypatch, check, m, n):
    ctx = small_context(m, n)
    assert check(ctx, 1)[0] is True
    x0_squared = ((2,) + (0,) * (m - 1), ())
    assert not integral.moment(ctx.sig, x0_squared, 4).is_zero()
    wrapped = doubled_moment(ctx.sig, x0_squared)
    monkeypatch.setattr(integral, "moment", wrapped)
    monkeypatch.setattr(sbtransform, "moment", wrapped)
    try:
        outcome = check(small_context(m, n), 1)
    except AssertionError as exc:
        # the forward images check their own tail
        assert str(exc).startswith("transform tail does not vanish")
    else:
        assert_fails(outcome)


def test_a_corrupted_w_side_moment_fails_the_unitarity(monkeypatch):
    # the forward images keep the true table, so the verdict, not the tail, fails
    ctx = small_context(5, 0)
    monkeypatch.setattr(integral, "moment", doubled_moment(ctx.sig, ((2, 0, 0, 0, 0), ())))
    ok, witness = check_unitarity(ctx, 1)
    assert ok is False and witness.startswith("forms differ on")


def test_a_doubled_first_derivative_of_the_taylor_sums_fails_radial_and_integral_checks(
        monkeypatch):
    # |X| (schrodinger) and the weight factors of the W-integral (integral)
    # read one Taylor composition, so one wrong derivative reaches both
    taylor_terms = algebra.taylor_terms

    def doubled(nil, derivatives, one):
        table = list(derivatives)
        if len(table) > 1:
            table[1] = {key: 2 * v for key, v in table[1].items()}
        return taylor_terms(nil, table, one)
    monkeypatch.setattr(schrodinger, "taylor_terms", doubled)
    monkeypatch.setattr(integral, "taylor_terms", doubled)
    superfock.clear_caches()
    try:
        results = run_suite(RunConfig(m=6, n=1, max_degree=2,
                                      suites=("schrodinger", "integral")))
    finally:
        superfock.clear_caches()
    failed = {f"{r.suite}/{r.name}": r.detail for r in results if r.status == "fail"}
    assert set(failed) == {"schrodinger/radial-superfunctions", "integral/normalization",
                           "integral/pi-skew-supersymmetry"}
    assert failed["integral/normalization"] == (
        "engine gamma (-5/6)*pi^2 vs closed form (-1/4)*pi^2: ratio 10/3")


@pytest.mark.parametrize("m,n,failing,gamma", [
    (6, 1, {"schrodinger/radial-superfunctions", "integral/normalization",
            "integral/pi-skew-supersymmetry"},
     "engine gamma (-7/12)*pi^2 vs closed form (-1/4)*pi^2: ratio 7/3"),
    (4, 1, {"schrodinger/radial-superfunctions"}, None),  # M = 2: the integral skips
], ids=["6-1", "4-1"])
def test_a_doubled_weight_factor_fails_the_radial_check(monkeypatch, m, n, failing, gamma):
    # the radial check squares back the weight factors that the W-integral
    # multiplies in, so a wrong term of w2 = t2^(-1/2) fails it
    weights = integral.weights

    def doubled(sig):
        w1, w2 = weights(sig)
        unit = ((0,) * (sig.m + 1), ())
        return w1, {key: v if key == unit else 2 * v for key, v in w2.items()}
    monkeypatch.setattr(integral, "weights", doubled)
    superfock.clear_caches()
    try:
        results = run_suite(RunConfig(m=m, n=n, max_degree=2,
                                      suites=("schrodinger", "integral")))
    finally:
        superfock.clear_caches()
    failed = {f"{r.suite}/{r.name}": r.detail for r in results if r.status == "fail"}
    assert set(failed) == failing
    if gamma:
        assert failed["integral/normalization"] == gamma


@pytest.mark.parametrize("m,n", [(5, 0), (6, 1)])
def test_a_wrong_exponential_coefficient_fails_the_series_check_and_both_transforms(
        monkeypatch, m, n):
    # exp(-z_0) has one coefficient function, read by ``exp_z0_truncation``,
    # the forward images and the inverse kernel alike
    coefficient = sbtransform.exp_coefficient

    def doubled_at_2(e):
        value = coefficient(e)
        return 2 * value if e == 2 else value
    ctx = small_context(m, n)
    assert check_exp_identities(ctx)[0] is True and check_sb_lowest(ctx)[0] is True
    monkeypatch.setattr(sbtransform, "exp_coefficient", doubled_at_2)
    ctx = small_context(m, n)
    assert check_exp_identities(ctx) == (False, "index-0 case fails at degree 1")
    # the forward image of the lowest vector reads e = 0, 1, 2 and checks its tail
    lowest = run_check("sb", "lowest-vector", "", lambda: check_sb_lowest(ctx))
    assert lowest.status == "fail" and lowest.detail.startswith(
        "AssertionError: transform tail does not vanish at degree 2")
    assert_fails(check_intertwining_inverse(ctx, 1))


@pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3, 4) for n in (0, 1, 2)])
def test_small_shapes_pass_every_suite(m, n):
    results = run_suite(RunConfig(m=m, n=n, max_degree=1))
    assert {r.suite for r in results} == set(ALL_SUITES)
    assert [(r.suite, r.name, r.detail) for r in results if r.status == "fail"] == []
    raised = [(r.name, r.detail) for r in results
              if r.detail.split(":")[0].endswith(("Error", "Exception"))]
    assert raised == []


def test_check_table_names_the_suites_in_order_and_each_check_once():
    suites = [row[0] for row in CHECKS]
    assert tuple(dict.fromkeys(suites)) == ALL_SUITES
    # the rows of a suite are contiguous, so a run reports them in table order
    assert suites == sorted(suites, key=ALL_SUITES.index)
    names = [row[:2] for row in CHECKS]
    assert len(set(names)) == len(names)
