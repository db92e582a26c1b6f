"""Exact linear algebra over QQi: Gaussian elimination and sparse contractions.

Matrices are lists of sparse rows (dict column -> QQi).  There is no pivot
tolerance anywhere: a pivot is any exactly nonzero entry.

The contractions (``commutator_failure``, ``skew_failure``) read operators as
integer columns (``scalars.int_column``) and sum plain ints, so they box no
``QQi``; each returns the first point where an identity fails.  The
commutator loop reads rows: ``row(key)`` maps every operator to its integer
column on x^key, so that a monomial reached through the column of one
operator is looked up once for all the operators composed after it.  It
sums all identities key-major, one monomial at a time, into one bucket of
terms per identity, and still reports the first failure in identity-major
order.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, lcm

from .scalars import ONE, QQi


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




# -- contractions of integer columns -------------------------------------------


def commutator_failure(row, keys, identities):
    """First (label, key) with A B x^key - s B A x^key != sum c C x^key, or None.

    An identity is (label, A, B, s, {C: c}); ``row(key)`` maps every operator
    to its integer column on x^key, and linearity reads every side off the
    rows.  The failure reported is the first in identity-major order: the
    first failing identity, on its first failing key.

    The sum runs key-major.  For each key, every operator first that some
    identity composes is read once from the row of x^key, and each entry of
    its column names one row, of x^k2, read once for all the operators then
    composed after first: the column of then on x^k2, scaled by the entry,
    is one term of every identity using the pair, with sign +1 (then = A) or
    -s (then = B).  The right-hand sides add one term per nonzero
    coefficient.  The terms go to one bucket per identity; the buckets are
    summed in identity order, each into one map {k3: [re, im]} in Gaussian
    integers over a running common denominator, and tested for zero before
    the next.  That is ``scalars.column_combination`` written out, as a call
    per bucket cost about a fifth of the loop's time at (8,2).  Only the
    columns that an identity uses are read; zero coefficients stay unread."""
    labels = []
    plan: dict = {}  # first -> [(then, identity, sign)]
    rhs: dict = {}  # C -> [(identity, x, y, e)]: -c = (x + y i)/e
    for i, (label, A, B, s, sides) in enumerate(identities):
        labels.append(label)
        for first, then, sign in ((A, B, -s), (B, A, 1)):
            plan.setdefault(first, []).append((then, i, sign))
        for C, c in sides.items():
            if (q := QQi.coerce(c)):
                rhs.setdefault(C, []).append((i, -q.a, -q.b, q.d))
    plan, rhs = list(plan.items()), list(rhs.items())
    best = None  # (identity, key) of the first failure found
    for key in keys:
        outer = row(key)
        buckets = defaultdict(list)  # identity -> [(x, y, e, nums)]: (x + y i)/e times a column
        for first, targets in plan:
            d0, nums = outer[first]
            for k2, (x, y) in nums.items():
                inner = row(k2)
                for then, i, sign in targets:
                    d1, inums = inner[then]
                    if inums:
                        buckets[i].append((sign * x, sign * y, d0 * d1, inums))
        for C, targets in rhs:
            d0, nums = outer[C]
            if nums:
                for i, x, y, e in targets:
                    buckets[i].append((x, y, e * d0, nums))
        for i in sorted(buckets):
            if best is not None and i >= best[0]:
                break  # keys come in order: only an earlier identity improves
            bucket = buckets[i]
            resid: dict = {}  # k3 -> [re, im] over den
            den = bucket[0][2]
            for x, y, e, nums in bucket:
                if e != den:
                    if den % e:
                        new = den // gcd(den, e) * e
                        g = new // den
                        for r in resid.values():
                            r[0] *= g
                            r[1] *= g
                        den = new
                    f = den // e
                    x *= f
                    y *= f
                for k3, (u, v) in nums.items():
                    r = resid.get(k3)
                    if r is None:
                        resid[k3] = [x * u - y * v, x * v + y * u]
                    else:
                        r[0] += x * u - y * v
                        r[1] += x * v + y * u
            if any(map(any, resid.values())):
                best = i, key
                break
        if best is not None and best[0] == 0:
            break
    return None if best is None else (labels[best[0]], best[1])


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
