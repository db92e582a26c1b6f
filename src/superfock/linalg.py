"""Exact linear algebra over QQi: Gaussian elimination and sparse contractions.

Matrices are lists of sparse rows (dict column -> QQi).  There is no pivot
tolerance anywhere: a pivot is any exactly nonzero entry.

The contractions (``commutator_failure``, ``skew_failure``) read operators as
numbered columns (d, re, im): the value at number k is (re[k] + im[k] i)/d,
with plain-int numerators and the real and imaginary parts in two maps keyed
by int (``numbered``), so that a real column is one map.  The monomials are
numbered once by a ``Numbering``, which decodes a number back to its key for
a witness.  Both loops sum plain ints into maps keyed by int, so they box no
``QQi`` and build no tuple per entry; each returns the first point where an
identity fails, in numbers.  The commutator loop reads rows: ``row(n)`` maps
every operator to its column on monomial n, so that a monomial reached
through the column of one operator is looked up once for all the operators
composed after it.  It sums every identity of one monomial into one flat map
keyed by the int (identity, monomial, part), and still reports the first
failure in identity-major order.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, lcm
from types import MappingProxyType

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


# -- numbered columns ---------------------------------------------------------

# A flat key is number + part * _PART + identity * _IDENTITY (part 1 for the
# imaginary part); a pairing table keys the pair (p, q) as p * _PART + q.
# Numbers stay below _PART.
_PART = 1 << 32
_IDENTITY = 2 * _PART

EMPTY = MappingProxyType({})  # the imaginary part of a real column, shared


class Numbering(dict):
    """key -> number, each key numbered on its first read, in the order read;
    ``key[n]`` is the key of number n."""

    __slots__ = ("key",)

    def __init__(self):
        super().__init__()
        self.key = []

    def __missing__(self, key):
        n = self[key] = len(self.key)
        self.key.append(key)
        return n


def numbered(terms: dict, number=None) -> tuple:
    """A map {key: int or QQi} as the numbered column (d, re, im), d > 0 the
    least common multiple of the denominators, each key read through number
    (kept as it is where number is None); zero parts are left out."""
    if all(type(v) is int for v in terms.values()):
        if number is None:
            return 1, dict(terms), EMPTY
        return 1, {number[k]: v for k, v in terms.items()}, EMPTY
    terms = {k if number is None else number[k]: QQi.coerce(v) for k, v in terms.items()}
    d = lcm(*(q.d for q in terms.values()))
    re = {n: q.a * (d // q.d) for n, q in terms.items() if q.a}
    im = {n: q.b * (d // q.d) for n, q in terms.items() if q.b}
    return d, re, im or EMPTY


def renumber(column: tuple, number) -> tuple:
    """An integer column (d, {key: (a, b)}) (``scalars.int_column``) as the
    numbered column of its keys."""
    d, nums = column
    re = {number[k]: a for k, (a, b) in nums.items() if a}
    im = {number[k]: b for k, (a, b) in nums.items() if b}
    return d, re, im or EMPTY


def decode(column: tuple, key) -> tuple:
    """A numbered column as the integer column (d, {key[n]: (a, b)})."""
    d, re, im = column
    return d, {key[n]: (re.get(n, 0), im.get(n, 0)) for n in {**re, **im}}


def pair_table(pairings: dict, number) -> tuple:
    """The pairings {(p, q): value} of keys as the numbered column of the pairs,
    (p, q) read as number[p] * _PART + number[q]: the table ``skew_failure``
    reads."""
    return numbered({number[p] * _PART + number[q]: v for (p, q), v in pairings.items()})


def _rescale(acc: dict, den: int, e: int) -> int:
    """Bring the numerators of acc over den to the least common multiple of
    den and e, in place, and return it."""
    new = den // gcd(den, e) * e
    g = new // den
    for k in acc:
        acc[k] *= g
    return new


def combination(terms: list) -> tuple:
    """sum (x + y i)/e (re + im i) over terms (x, y, e, re, im), with ints x, y
    and e > 0 and (re, im) the parts of a numbered column, as a numbered
    column over the least common multiple of the e: cancelled entries
    dropped and the content gcd divided out."""
    d = 1
    for t in terms:
        if d % t[2]:
            d = lcm(d, t[2])
    out_re: dict = {}
    out_im: dict = {}
    for x, y, e, re, im in terms:
        if e != d:
            f = d // e
            x, y = x * f, y * f
        if x:
            for k, u in re.items():
                out_re[k] = out_re.get(k, 0) + x * u
            if im:
                for k, v in im.items():
                    out_im[k] = out_im.get(k, 0) + x * v
        if y:
            for k, u in re.items():
                out_im[k] = out_im.get(k, 0) + y * u
            if im:
                for k, v in im.items():
                    out_re[k] = out_re.get(k, 0) - y * v
    re = {k: v for k, v in out_re.items() if v}
    im = {k: v for k, v in out_im.items() if v}
    if d != 1 and (g := gcd(d, *re.values(), *im.values())) != 1:
        d //= g
        re = {k: v // g for k, v in re.items()}
        im = {k: v // g for k, v in im.items()}
    return d, re, im or EMPTY


# -- contractions of numbered columns ------------------------------------------


def commutator_failure(row, keys, identities):
    """First (label, n) with A B x^n - s B A x^n != sum c C x^n, or None.

    An identity is (label, A, B, s, {C: c}); ``row(n)`` maps every operator
    to its numbered column on monomial n, and linearity reads every side off
    the rows.  The failure reported is the first in identity-major order: the
    first failing identity, on its first failing number of keys.

    The sum runs key-major.  For each key, every operator first that some
    identity composes is read once from the row of the key, and each entry of
    its column names one row, read once for all the operators then composed
    after first: the column of then there, scaled by the entry, is one term
    of every identity using the pair, with sign +1 (then = A) or -s (then =
    B).  The right-hand sides add one term per nonzero coefficient; zero
    coefficients stay unread.  Every term of every identity is summed into
    one map keyed by the int (identity, monomial, part), one integer update
    per entry and part, over a running common denominator; int keys and
    values are untracked by the garbage collector and share no tuples.  The
    least nonzero flat key names the first failing identity of the key; once
    one fails, later keys sum only the identities before it."""
    labels = []
    plan: dict = {}  # first -> {(then, base): sign}, base = identity * _IDENTITY
    rhs: dict = {}  # C -> [(base, x, y, e)]: -c = (x + y i)/e
    for i, (label, A, B, s, sides) in enumerate(identities):
        labels.append(label)
        base = i * _IDENTITY
        for first, then, sign in ((A, B, -s), (B, A, 1)):
            targets = plan.setdefault(first, {})  # A = B: the two terms merge
            targets[then, base] = targets.get((then, base), 0) + sign
        for C, c in sides.items():
            if (q := QQi.coerce(c)):
                rhs.setdefault(C, []).append((base, -q.a, -q.b, q.d))
    plan = [(first, [(then, base, sign) for (then, base), sign in targets.items() if sign])
            for first, targets in plan.items()]
    rhs = list(rhs.items())
    best = None  # (identity, key) of the first failure found
    for key in keys:
        outer = row(key)
        acc: dict = defaultdict(int)  # base + part * _PART + n -> numerator over den
        den = 1
        for first, targets in plan:
            d0, re0, im0 = outer[first]
            # x (u + v i) from a real entry, y i (u + v i) = -y v + y u i from
            # an imaginary one: u goes to part to_re, v to to_im times flip
            for nums, to_re, to_im, flip in ((re0, 0, _PART, 1), (im0, _PART, 0, -1)):
                for k2, x in nums.items():
                    inner = row(k2)
                    for then, base, sign in targets:
                        d1, re1, im1 = inner[then]
                        if not (re1 or im1):
                            continue
                        e = d0 * d1
                        if e == den:
                            f = sign * x
                        else:
                            if den % e:
                                den = _rescale(acc, den, e)
                            f = sign * x * (den // e)
                        b = base + to_re
                        for k3, u in re1.items():
                            acc[b + k3] += f * u
                        if im1:
                            b = base + to_im
                            f *= flip
                            for k3, v in im1.items():
                                acc[b + k3] += f * v
        for C, targets in rhs:
            d0, re0, im0 = outer[C]
            if not (re0 or im0):
                continue
            for base, x, y, e in targets:
                e *= d0
                if den % e:
                    den = _rescale(acc, den, e)
                f = den // e
                imag = base + _PART
                if x:  # x (u + v i)
                    x *= f
                    for k3, u in re0.items():
                        acc[base + k3] += x * u
                    for k3, v in im0.items():
                        acc[imag + k3] += x * v
                if y:  # y i (u + v i) = -y v + y u i
                    y *= f
                    for k3, u in re0.items():
                        acc[imag + k3] += y * u
                    for k3, v in im0.items():
                        acc[base + k3] -= y * v
        first_bad = min((k for k, v in acc.items() if v), default=None)
        if first_bad is not None:
            best = first_bad // _IDENTITY, key
            if best[0] == 0:
                break
            cut = best[0] * _IDENTITY  # only an earlier identity improves
            plan = [(first, kept) for first, targets in plan
                    if (kept := [t for t in targets if t[1] < cut])]
            rhs = [(C, kept) for C, targets in rhs
                   if (kept := [t for t in targets if t[0] < cut])]
    return None if best is None else (labels[best[0]], best[1])


def skew_failure(table: tuple, keys, column, sign):
    """First (p, q) of keys with <op p, q> + sign(p) <p, op q> != 0, or None.

    ``table`` is the numbered ``pair_table`` of the nonzero entries
    {(p, q): <p, q>} of a sesquilinear pairing (linear in p, conjugate-linear
    in q), ``column(p)`` the numbered column of op p and ``sign(p)`` +-1;
    both sides are scatter sums of the table against the columns, brought to
    one denominator, into one residual per pair (p, q), keyed by the int
    p * _PART + q."""
    columns = {p: column(p) for p in keys}
    den = lcm(*(d for d, _, _ in columns.values()))
    signs = {p: sign(p) for p in keys}
    pre: dict = {}  # r -> [(p, x, y)]: r appears in op p with coefficient (x + y i)/den
    for p, (d, re, im) in columns.items():
        f = den // d
        for r, x in re.items():
            pre.setdefault(r, []).append((p, x * f, 0))
        for r, y in im.items():
            pre.setdefault(r, []).append((p, 0, y * f))
    resid: dict = {}
    parts = ((table[1], False), (table[2], True))
    for entries, imag in parts:
        for rq, w in entries.items():
            r, q = divmod(rq, _PART)
            if q in signs:
                u, v = (0, w) if imag else (w, 0)
                for p, x, y in pre.get(r, ()):
                    z = resid.setdefault(p * _PART + q, [0, 0])
                    z[0] += x * u - y * v
                    z[1] += x * v + y * u
    for entries, imag in parts:
        for pr, w in entries.items():
            p, r = divmod(pr, _PART)
            s = signs.get(p)
            if s is not None:
                u, v = (0, w) if imag else (w, 0)
                for q, x, y in pre.get(r, ()):  # sign(p) conj(c) <p, r>
                    z = resid.setdefault(p * _PART + q, [0, 0])
                    z[0] += s * (x * u + y * v)
                    z[1] += s * (x * v - y * u)
    bad = next((pq for pq, (a, b) in resid.items() if a or b), None)
    return None if bad is None else divmod(bad, _PART)
