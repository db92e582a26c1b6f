"""Exact linear algebra over QQi: Gaussian elimination and sparse contractions.

Matrices are lists of sparse rows (dict column -> QQi).  There is no pivot
tolerance anywhere: a pivot is any exactly nonzero entry.

The contractions (``commutator_failure``, ``skew_failure``) read operators as
integer columns (``scalars.int_column``) and sum plain ints, so they box no
``QQi``; each returns the first point where an identity fails.
"""

from __future__ import annotations

from math import lcm

from .scalars import ONE, QQi, column_combination


def rref(rows: list[dict[int, QQi]], ncols: int):
    """Reduced row echelon form.  Returns (new_rows, pivot_cols)."""
    rows = [dict(r) for r in rows]
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(rows)):
            if rows[r].get(col):
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        prow = rows[pivot_row]
        inv = prow[col].inverse()
        prow = {c: v * inv for c, v in prow.items()}
        rows[pivot_row] = prow
        for r in range(len(rows)):
            if r == pivot_row:
                continue
            f = rows[r].get(col)
            if not f:
                continue
            row = rows[r]
            for c, v in prow.items():
                s = row.get(c, None)
                s = -f * v if s is None else s - f * v
                if s.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = s
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows[:pivot_row], pivot_cols


def rank(rows, ncols: int) -> int:
    _, pivots = rref(rows, ncols)
    return len(pivots)


def nullspace(rows, ncols: int) -> list[dict[int, QQi]]:
    """Basis of {x : A x = 0}, echelon-normalized (one free column set to 1)."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {free: ONE}
        for prow, pcol in zip(red, pivots):
            v = prow.get(free)
            if v:
                vec[pcol] = -v
        basis.append(vec)
    return basis


def solve_columns(columns: list[dict[int, QQi]], target: dict[int, QQi]):
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
    red, pivots = rref(rows, ncols + 1)
    if ncols in pivots:
        return None
    x = {}
    for prow, pcol in zip(red, pivots):
        v = prow.get(ncols)
        if v:
            x[pcol] = v
    return x


def inv_dense(mat: list[list[QQi]]) -> list[list[QQi]]:
    n = len(mat)
    rows = []
    for i in range(n):
        row = {j: QQi.coerce(v) for j, v in enumerate(mat[i]) if QQi.coerce(v)}
        row.update({n + i: ONE})
        rows.append(row)
    red, pivots = rref(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    out = [[red[i].get(n + j, QQi(0)) for j in range(n)] for i in range(n)]
    return out


def mat_mul(a: list[list[QQi]], b: list[list[QQi]]) -> list[list[QQi]]:
    n, k, m = len(a), len(b), len(b[0])
    out = [[QQi(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            v = ai[t]
            if not v:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j]:
                    oi[j] = oi[j] + v * bt[j]
    return out


# -- contractions of integer columns -------------------------------------------


def commutator_failure(column, keys, identities):
    """First (label, key) with A B x^key - s B A x^key != sum c C x^key, or None.

    An identity is (label, A, B, s, {C: c}); ``column(op, key)`` is the
    integer column of op x^key, and linearity reads every side off the
    columns, in Gaussian integers (``scalars.column_combination``)."""
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


def skew_failure(table: tuple, keys, column, sign):
    """First (p, q) of keys with <op p, q> + sign(p) <p, op q> != 0, or None.

    ``table`` is the integer column of the nonzero entries {(p, q): <p, q>} of
    a sesquilinear pairing (linear in p, conjugate-linear in q), ``column(p)``
    the integer column of op p and ``sign(p)`` +-1; both sides are scatter
    sums of the table against the columns, brought to one denominator."""
    columns = {p: column(p) for p in keys}
    den = lcm(*(d for d, _ in columns.values()))
    signs = {p: sign(p) for p in keys}
    pre: dict = {}  # r -> [(p, x, y)]: r appears in op p with coefficient (x + y i)/den
    for p, (d, nums) in columns.items():
        f = den // d
        for r, (x, y) in nums.items():
            pre.setdefault(r, []).append((p, x * f, y * f))
    resid: dict = {}
    entries = table[1]
    for (r, q), (u, v) in entries.items():
        if q in signs:
            for p, x, y in pre.get(r, ()):
                z = resid.setdefault((p, q), [0, 0])
                z[0] += x * u - y * v
                z[1] += x * v + y * u
    for (p, r), (u, v) in entries.items():
        s = signs.get(p)
        if s is not None:
            for q, x, y in pre.get(r, ()):  # sign(p) conj(c) <p, r>
                z = resid.setdefault((p, q), [0, 0])
                z[0] += s * (x * u + y * v)
                z[1] += s * (x * v - y * u)
    return next((pq for pq, (a, b) in resid.items() if a or b), None)
