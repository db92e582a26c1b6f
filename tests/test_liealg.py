import gc
import itertools
import json
import random
import weakref

import pytest

from superfock import linalg
from superfock.algebra import (Signature, SuperPolynomial, apply_op,
                               monomials_up_to, table_apply)
from superfock.liealg import TKK, k_basis, k_center_dimension, k_closes, tkk_for
from superfock.scalars import I, ONE, QQi, _acc, column_terms
from superfock.verify import action_rows
from test_harmonics import solve_columns

TKK41 = tkk_for(Signature(4, 1))


class Jordan:
    """J = K e_0 + V with product (a e_0 + u)(b e_0 + v) = (ab + <u,v>) e_0 + a v + b u,
    on dense coordinate vectors: the oracle of the product that ``TKK._image``
    reads off the metric."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.dim = sig.nvars

    def multiply(self, a: list[QQi], b: list[QQi]) -> list[QQi]:
        pair = QQi(0)
        for i in range(1, self.dim):
            if a[i]:
                for j, bij in self.sig.beta_rows[i]:
                    if j >= 1 and b[j]:
                        pair = pair + a[i] * bij * b[j]
        return [a[0] * b[0] + pair] + [a[0] * b[i] + b[0] * a[i] for i in range(1, self.dim)]

    def basis_product(self, i: int, j: int) -> list[QQi]:
        a = [QQi(0)] * self.dim
        b = [QQi(0)] * self.dim
        a[i] = ONE
        b[j] = ONE
        return self.multiply(a, b)


def test_jordan_products():
    J = Jordan(TKK41.sig)
    m, n = 4, 1
    e0e0 = J.basis_product(0, 0)
    assert e0e0[0] == ONE and all(v.is_zero() for v in e0e0[1:])
    assert J.basis_product(1, 1)[0] == ONE
    assert J.basis_product(m, m + n)[0] == QQi(-1)   # odd block, top-right
    assert J.basis_product(m + n, m)[0] == QQi(1)
    assert all(v.is_zero() for v in J.basis_product(1, 2))


def test_bracket_anchors():
    tkk = TKK41
    assert tkk.bracket(tkk.plus(0), tkk.minus(0)) == tkk.L(0, 2)
    assert tkk.bracket(tkk.L(0), tkk.plus(1)) == tkk.plus(1)
    assert tkk.bracket(tkk.L(0), tkk.minus(1)) == tkk.minus(1, -1)
    assert tkk.bracket(tkk.plus(1), tkk.plus(2)).is_zero()
    # defining property of the grading: Jacobi on a plus/minus/L triple
    X, Y, Z = tkk.plus(1), tkk.minus(1), tkk.L(0)
    lhs = tkk.bracket(X, tkk.bracket(Y, Z))
    rhs = tkk.bracket(tkk.bracket(X, Y), Z) + tkk.bracket(Y, tkk.bracket(X, Z))
    assert lhs == rhs


def test_graded_antisymmetry_and_jacobi_small():
    tkk = tkk_for(Signature(2, 1))
    for a in range(tkk.dim):
        for b in range(tkk.dim):
            X, Y = tkk.basis_element(a), tkk.basis_element(b)
            s = -1 if (tkk.parity(a) and tkk.parity(b)) else 1
            assert tkk.bracket(X, Y) == tkk.bracket(Y, X).scale(-s)
    for (a, b, c) in itertools.product(range(tkk.dim), repeat=3):
        X, Y, Z = (tkk.basis_element(t) for t in (a, b, c))
        s = -1 if (tkk.parity(a) and tkk.parity(b)) else 1
        assert tkk.bracket(X, tkk.bracket(Y, Z)) == \
            tkk.bracket(tkk.bracket(X, Y), Z) + \
            tkk.bracket(Y, tkk.bracket(X, Z)).scale(s)


def test_dimension_counts():
    assert tkk_for(Signature(4, 0)).dim == 15   # so(4,2)
    assert tkk_for(Signature(6, 1)).dim == 47
    assert TKK41.dim == 30


def test_cayley_closed_forms():
    tkk = TKK41
    for l in range(tkk.sig.nvars):
        assert tkk.cayley(tkk.minus(l)) == \
            tkk.minus(l, QQi(1, 0, 4)) + tkk.L(l, I) + tkk.plus(l)
        assert tkk.cayley(tkk.L(l)) == tkk.minus(l, I * QQi(1, 0, 4)) + tkk.plus(l, -I)
        assert tkk.cayley(tkk.plus(l)) == \
            tkk.minus(l, QQi(1, 0, 4)) + tkk.L(l, -I) + tkk.plus(l)
    for (i, j) in tkk.inn_pairs:
        assert tkk.cayley(tkk.inn(i, j)) == tkk.inn(i, j)
    # (a, I, -a) goes to I + 2i L_a
    a = tkk.minus(1) + tkk.inn(*tkk.inn_pairs[0]) - tkk.plus(1)
    assert tkk.cayley(a) == tkk.inn(*tkk.inn_pairs[0]) + tkk.L(1, 2 * I)


def test_cayley_is_invertible_bracket_morphism():
    tkk = TKK41
    rng = random.Random(4)
    for _ in range(60):
        a, b = rng.randrange(tkk.dim), rng.randrange(tkk.dim)
        X, Y = tkk.basis_element(a), tkk.basis_element(b)
        assert tkk.cayley_inverse(tkk.cayley(X)) == X
        assert tkk.cayley(tkk.bracket(X, Y)) == \
            tkk.bracket(tkk.cayley(X), tkk.cayley(Y))


# Dense matrices, for the matrix routes kept as oracles below.

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[QQi(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            v = a[i][t]
            if v:
                for j in range(m):
                    if b[t][j]:
                        out[i][j] = out[i][j] + v * b[t][j]
    return out


def left_mult_matrix(jordan, l):
    """Matrix of L_{e_l} in the basis (e_0, ..., e_{dim-1})."""
    cols = [jordan.basis_product(l, k) for k in range(jordan.dim)]
    return [[cols[k][r] for k in range(jordan.dim)] for r in range(jordan.dim)]


def graded_comm(a, b, pa, pb):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    s = -1 if (pa and pb) else 1
    return [[x - s * y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def dense_cayley_matrices(tkk):
    """The dense route that the sparse Cayley columns replaced, kept as their
    oracle: the matrices of ad(e_0^-+), exp(t ad) = 1 + t ad + t^2/2 ad^2 as
    matrices, and their products."""
    n = tkk.dim

    def ad_matrix(idx):
        return [[tkk.struct[(idx, c)].get(r, QQi(0)) for c in range(n)] for r in range(n)]

    def expo(mat, t):
        sq = mat_mul(mat, mat)
        return [[(ONE if r == c else QQi(0)) + t * mat[r][c] + t * t * QQi(1, 0, 2) * sq[r][c]
                 for c in range(n)] for r in range(n)]

    am, ap = ad_matrix(tkk.index[("minus", 0)]), ad_matrix(tkk.index[("plus", 0)])
    return (mat_mul(expo(am, I * QQi(1, 0, 2)), expo(ap, I)),
            mat_mul(expo(ap, -I), expo(am, -I * QQi(1, 0, 2))))


@pytest.mark.parametrize("m,n", [(3, 0), (4, 1), (2, 2)])
def test_sparse_cayley_columns_equal_the_dense_matrices(m, n):
    tkk = TKK(Signature(m, n))
    for mat, cols in zip(dense_cayley_matrices(tkk), tkk._cayley_columns):
        for c in range(tkk.dim):
            assert cols[c] == {r: mat[r][c] for r in range(tkk.dim) if mat[r][c]}, c


def test_sparse_cayley_refuses_an_ad_that_is_not_nilpotent():
    tkk = TKK(Signature(3, 0))
    ep = tkk.index[("plus", 0)]
    tkk.struct[(ep, ep)] = {ep: ONE}
    with pytest.raises(AssertionError, match="nilpotent"):
        tkk._cayley_columns


def realized(x):
    """D(x) through the realization table."""
    return lambda p: table_apply(TKK.realization_table, apply_op, x, p)


def test_realization_anchor():
    tkk = TKK41
    bsig = tkk.big_signature
    # the unit multiplication goes to a single angular operator:
    # L_{0,(m+1)} y0 = -y_{m+1} with the block metric
    op = realized(tkk.L(0))
    y0 = SuperPolynomial.variable(bsig, 0)
    assert op(y0) == SuperPolynomial.variable(bsig, 5).scale(-1)
    # homomorphism on a generating pair
    X, Y = tkk.minus(1), tkk.plus(1)
    opx, opy = realized(X), realized(Y)
    br = realized(tkk.bracket(X, Y))
    for key in monomials_up_to(bsig, 2):
        p = SuperPolynomial.monomial(bsig, key)
        assert opx(opy(p)) - opy(opx(p)) == br(p)


def realization_pairs(tkk, idx):
    """D of a basis element as [(c, a, b)] for sum c L_ab, written out case by
    case as before the realization table; an oracle for the table."""
    m = tkk.sig.m
    tilde = tkk._tilde
    kind, *rest = tkk.basis[idx]
    if kind == "minus":
        l = rest[0]
        a = m if l == 0 else tilde(l)
        return [(ONE, a, m + 1), (ONE, a, 0)]
    if kind == "plus":
        l = rest[0]
        if l == 0:
            return [(QQi(-1), m, m + 1), (ONE, m, 0)]
        return [(ONE, tilde(l), m + 1), (QQi(-1), tilde(l), 0)]
    if kind == "L":
        l = rest[0]
        if l == 0:
            return [(ONE, 0, m + 1)]
        return [(ONE, tilde(l), m)]
    i, j = rest
    return [(ONE, tilde(i), tilde(j))]


def realize(tkk, x):
    """The differential operator of x, summed from ``realization_pairs``."""
    pairs = [(c * s, a, b) for idx, c in x.coeffs.items()
             for s, a, b in realization_pairs(tkk, idx)]

    def op(p):
        out = SuperPolynomial.zero(p.sig)
        for s, a, b in pairs:
            out = out + apply_op(("L", a, b), p).scale(s)
        return out

    return op


@pytest.mark.parametrize("m,n", [(4, 0), (3, 1)])
def test_realization_table_equals_the_case_dispatch(m, n):
    tkk = tkk_for(Signature(m, n))
    bsig = tkk.big_signature
    elements = [tkk.basis_element(a) for a in range(tkk.dim)]
    elements.append(tkk.minus(0) + tkk.plus(0, I) + tkk.L(1, 2))
    for x in elements:
        want, got = realize(tkk, x), realized(x)
        for key in monomials_up_to(bsig, 2):
            p = SuperPolynomial.monomial(bsig, key)
            assert got(p) == want(p), (x, key)


def osp_matrix(tkk, x):
    """Matrix of D(x) on the span of the big variables, mat[r][c] the
    coefficient of y_r in D(x) y_c, through the polynomial applier; an oracle
    for the matrices that ``verify.check_osp_matrices`` reads off D's columns."""
    bsig = tkk.big_signature
    nv = bsig.nvars
    mat = [[QQi(0)] * nv for _ in range(nv)]
    for c in range(nv):
        img = table_apply(TKK.realization_table, apply_op, x, SuperPolynomial.variable(bsig, c))
        for (ev, odd), coeff in img.terms.items():
            mat[odd[0] if odd else ev.index(1)][c] = coeff
    return mat


def qqi_matrix_model(tkk, matrix):
    """The ``QQi`` loop of ``check_osp_matrices`` that the Gaussian-integer sum
    replaced, on the matrices matrix(a) of D(X_a) on the big variables."""
    bsig = tkk.big_signature
    bb = bsig.beta
    nv = bsig.nvars
    for a in range(tkk.dim):
        mat = matrix(a)
        pX = tkk.parity(a)
        for u in range(nv):
            su = QQi(-1 if (bsig.parity(u) and pX) else 1)
            for v in range(nv):
                lhs = sum((mat[r][u] * bb[r][v] for r in range(nv) if mat[r][u]), QQi(0))
                rhs = sum((bb[u][r] * mat[r][v] for r in range(nv) if mat[r][v]), QQi(0))
                if not (lhs + su * rhs).is_zero():
                    return False, f"metric not preserved by basis element {a}"
    return True, ""


def qqi_bracket_model(tkk, matrix):
    """The bracket condition of ``check_osp_matrices`` in ``QQi`` on the
    matrices matrix(a) of D(X_a): M_a M_b - s M_b M_a = sum_c [X_a, X_b]_c M_c
    for every basis pair a <= b, the first failing pair in order."""
    nv = tkk.big_signature.nvars
    mats = []  # sparse: row i -> [(j, entry)]
    for a in range(tkk.dim):
        mat = matrix(a)
        mats.append([[(j, v) for j, v in enumerate(r) if v] for r in mat])

    def product(x, y):
        out: dict = {}
        for i in range(nv):
            for k, u in x[i]:
                for j, v in y[k]:
                    _acc(out, (i, j), u * v)
        return out
    for a in range(tkk.dim):
        for b in range(a, tkk.dim):
            s = -1 if (tkk.parity(a) and tkk.parity(b)) else 1
            resid = product(mats[a], mats[b])
            for ij, v in product(mats[b], mats[a]).items():
                _acc(resid, ij, v * -s)
            for c, coeff in tkk.struct[a, b].items():
                for i in range(nv):
                    for j, v in mats[c][i]:
                        _acc(resid, (i, j), -coeff * v)
            if resid:
                return False, f"bracket not preserved at pair ({a},{b})"
    return True, ""


def test_osp_matrix_preserves_metric():
    tkk = TKK41
    assert qqi_matrix_model(tkk, lambda a: osp_matrix(tkk, tkk.basis_element(a))) == (True, "")
    assert qqi_bracket_model(tkk, lambda a: osp_matrix(tkk, tkk.basis_element(a))) == (True, "")


@pytest.mark.parametrize("m,n", [(4, 0), (4, 1), (2, 2)])
def test_the_realization_columns_on_the_variables_are_the_osp_matrices(m, n):
    tkk = tkk_for(Signature(m, n))
    bsig = tkk.big_signature
    number = linalg.Numbering()
    row = action_rows(TKK.realization_table, tkk, bsig, number, 0)
    keys = [next(iter(SuperPolynomial.variable(bsig, u).terms)) for u in range(bsig.nvars)]
    for a in range(tkk.dim):
        mat = osp_matrix(tkk, tkk.basis_element(a))
        for u, key in enumerate(keys):
            want = {keys[r]: mat[r][u] for r in range(bsig.nvars) if mat[r][u]}
            assert column_terms(linalg.decode(row(number[key])[a], number.key)) == want, (a, u)


def test_k_subalgebra():
    tkk = TKK41
    assert k_closes(tkk)
    assert k_center_dimension(tkk) == 1
    assert len(k_basis(tkk)) == tkk.sig.nvars + len(tkk.inn_pairs)


def test_k_is_abelian_only_at_2_0():
    # k = so(2) + osp(m|2n); osp(2|0) = so(2) is the one summand with a centre
    for (m, n), want in [((2, 0), 2), ((2, 1), 1), ((2, 2), 1), ((3, 0), 1), ((4, 0), 1)]:
        tkk = tkk_for(Signature(m, n))
        assert k_center_dimension(tkk) == want, (m, n)
    assert len(k_basis(tkk_for(Signature(2, 0)))) == 2


def test_structure_constant_export():
    tkk = tkk_for(Signature(2, 1))
    blob = tkk.structure_constants_json()
    table = json.loads(blob)
    assert table["e0+ , e0-"] == {"L0": "2"}
    assert blob == tkk.structure_constants_json()


def test_cayley_cache_does_not_keep_the_algebra_alive():
    tkk = TKK(Signature(3, 0))
    assert tkk._cayley_columns is tkk._cayley_columns
    ref = weakref.ref(tkk)
    del tkk
    gc.collect()
    assert ref() is None


def matrix_route_struct(tkk: TKK) -> dict:
    """The structure constants through matrices: istr(J) realized by the
    matrices of L_a and [L_a, L_b}, each graded commutator decomposed by exact
    elimination against the inner-derivation columns."""
    sig, nv = tkk.sig, tkk.sig.nvars
    jordan = Jordan(sig)
    lmat = [left_mult_matrix(jordan, l) for l in range(nv)]
    innmat = {(i, j): graded_comm(lmat[i], lmat[j], sig.parity(i), sig.parity(j))
              for (i, j) in tkk.inn_pairs}

    def flat(mat):
        return {r * nv + c: mat[r][c] for r in range(nv) for c in range(nv) if mat[r][c]}

    columns = [flat(innmat[p]) for p in tkk.inn_pairs]
    rows = [{c: col[r] for c, col in enumerate(columns) if r in col} for r in range(nv * nv)]
    assert linalg.rank(rows, len(columns)) == len(columns), "inner derivations are dependent"
    base = tkk.index[("inn",) + tkk.inn_pairs[0]] if tkk.inn_pairs else None

    def decompose_inn(mat):
        sol = solve_columns(columns, flat(mat))
        assert sol is not None, "operator not in the span of inner derivations"
        return {base + k: v for k, v in sol.items()}

    def decompose_istr(mat):
        out = {}
        rest = [row[:] for row in mat]
        for l in range(nv):
            u = mat[l][0]
            if u:
                out[tkk.index[("L", l)]] = u
                rest = [[rest[r][c] - u * lmat[l][r][c] for c in range(nv)] for r in range(nv)]
        out.update(decompose_inn(rest))
        return {k: v for k, v in out.items() if v}

    def istr(desc):
        return lmat[desc[1]] if desc[0] == "L" else innmat[desc[1:]]

    struct = {}

    def bracket(a, b):
        (ka, *ta), (kb, *tb) = tkk.basis[a], tkk.basis[b]
        if (ka, kb) in (("minus", "minus"), ("plus", "plus")):
            return {}
        if ka in ("L", "inn") and kb in ("L", "inn"):
            return decompose_istr(graded_comm(istr(tkk.basis[a]), istr(tkk.basis[b]),
                                               tkk.parity(a), tkk.parity(b)))
        if ka == "plus" and kb == "minus":
            out = {tkk.index[("L", l)]: v + v
                   for l, v in enumerate(jordan.basis_product(ta[0], tb[0])) if v}
            comm = graded_comm(lmat[ta[0]], lmat[tb[0]], tkk.parity(a), tkk.parity(b))
            for k, v in decompose_inn(comm).items():
                _acc(out, k, v + v)
            return out
        if ka in ("L", "inn") and kb in ("minus", "plus"):
            col = [row[tb[0]] for row in istr(tkk.basis[a])]
            sign = -1 if (ka, kb) == ("L", "minus") else 1
            return {tkk.index[(kb, l)]: v * sign for l, v in enumerate(col) if v}
        s = -1 if (tkk.parity(a) and tkk.parity(b)) else 1
        rev = struct[(b, a)] if (b, a) in struct else bracket(b, a)
        return {k: v * -s for k, v in rev.items()}

    for a in range(tkk.dim):
        for b in range(tkk.dim):
            struct[(a, b)] = bracket(a, b)
    return struct


@pytest.mark.parametrize("m,n", [(2, 0), (2, 1), (3, 0), (4, 0), (4, 1), (2, 2), (3, 2), (5, 1)])
def test_structure_constants_match_the_matrix_route(m, n):
    tkk = TKK(Signature(m, n))
    want = matrix_route_struct(tkk)
    assert list(tkk.struct) == list(want)
    for key, st in tkk.struct.items():
        assert list(st.items()) == list(want[key].items()), [tkk.basis[k] for k in key]
