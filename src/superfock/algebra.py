"""Supercommutative polynomial algebra over C^{m|2n} with an orthosymplectic metric.

Variables are indexed 0 .. m+2n-1; the first m are commuting ("even"), the
last 2n anticommuting ("odd").  A monomial is a pair (even exponent tuple,
strictly increasing tuple of odd indices); every sign is produced by counting
transpositions needed to reach that canonical order.  Coefficients are exact
Gaussian rationals.

The operators (derivations, Euler, Laplace, angular and Bessel operators,
multiplications, R^2) are one calculus in ints: each ``_OPS`` entry is a
closed form whose image of a monomial is a map {key: int} at an integral rate
and lambda (``Signature`` keeps its metric rows and R^2 in ints); a rate,
lambda or metric entry that is not an integer is made a ``QQi`` once
(``scalars.int_or_qqi``) and runs through the same code.  ``op_terms`` is the
linear extension and ``add_term_product`` the one term product, which
``term_product`` sums into the product of two term maps; ``taylor_terms`` is
the one composition of a scalar function with a nilpotent.  ``QQi``
appears only at the boundary: ``op_image`` and ``apply_op`` return ``QQi``
maps and polynomials, ``op_column`` wraps the ints as an integer column and
``table_columns`` as numbered columns (``linalg.numbered``).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add

from . import linalg
from .linalg import combination, numbered
from .scalars import I, QQi, _acc, int_column, int_or_qqi

MonKey = tuple[tuple[int, ...], tuple[int, ...]]


def standard_metric(m: int, n: int) -> tuple[tuple[QQi, ...], ...]:
    """diag(-1, I_{m-1}) on the even block, [[0, -I_n], [I_n, 0]] on the odd block."""
    size = m + 2 * n
    rows = [[QQi(0)] * size for _ in range(size)]
    rows[0][0] = QQi(-1)
    for i in range(1, m):
        rows[i][i] = QQi(1)
    for i in range(n):
        rows[m + i][m + n + i] = QQi(-1)
        rows[m + n + i][m + i] = QQi(1)
    return tuple(tuple(r) for r in rows)


class Signature:
    """Variable layout (m even, 2n odd) plus the metric and its exact inverse.

    ``Signature(m, n, varset, beta)`` is one shared instance per shape,
    variable set and metric (the intern table ``_signature``), and an explicit
    beta equal to the standard metric gives the instance of beta=None; so the
    caches keyed by a signature and the ring operations meet the same object.
    Equality stays structural: an instance made before
    ``superfock.clear_caches()`` equals the one made after."""

    __slots__ = ("m", "n", "varset", "beta", "beta_inv", "nvars",
                 "beta_rows", "beta_inv_pairs", "r2_terms", "_hash")

    def __new__(cls, m: int, n: int, varset: str = "x", beta=None):
        if m < 2:
            raise ValueError("need at least two even variables")
        if n < 0:
            raise ValueError("n must be nonnegative")
        if varset not in ("x", "z", "w", "y"):
            raise ValueError(f"unknown variable set {varset!r}")
        if beta is not None:
            beta = tuple(tuple(QQi.coerce(v) for v in row) for row in beta)
            if beta == standard_metric(m, n):
                beta = None
        return _signature(m, n, varset, beta)

    def _setup(self, m: int, n: int, varset: str, beta) -> None:
        """Check the metric (standard if None) and fill the slots."""
        self.m = m
        self.n = n
        self.varset = varset
        self.nvars = m + 2 * n
        if beta is None:
            beta = standard_metric(m, n)
        elif len(beta) != self.nvars or any(len(r) != self.nvars for r in beta):
            raise ValueError("metric has wrong shape")
        for i in range(self.nvars):
            for j in range(self.nvars):
                pi, pj = self.parity(i), self.parity(j)
                if pi != pj and beta[i][j]:
                    raise ValueError("metric must be even")
                sym = beta[j][i] if pi * pj == 0 else -beta[j][i]
                if beta[i][j] != sym:
                    raise ValueError("metric must be supersymmetric")
        self.beta = beta
        self.beta_inv = tuple(tuple(r) for r in linalg.inv_dense([list(r) for r in beta]))
        # the metric, its inverse and R^2 in ints where they are integral
        self.beta_rows = tuple(tuple((i, int_or_qqi(row[i])) for i in range(self.nvars)
                                     if row[i]) for row in self.beta)
        self.beta_inv_pairs = tuple((i, j, int_or_qqi(self.beta_inv[i][j]))
                                    for i in range(self.nvars) for j in range(self.nvars)
                                    if self.beta_inv[i][j])
        self.r2_terms = {}  # R^2 = sum beta^{ij} x_i x_j
        for i, j, b in self.beta_inv_pairs:
            if (t := mul_key(m, j, ((0,) * m, ()))) and (u := mul_key(m, i, t[1])):
                _acc(self.r2_terms, u[1], b * t[0] * u[0])
        self._hash = hash((m, n, varset, beta))

    @property
    def M(self) -> int:
        """Superdimension m - 2n."""
        return self.m - 2 * self.n

    def parity(self, i: int) -> int:
        return 0 if i < self.m else 1

    def var_name(self, i: int) -> str:
        return f"{self.varset}{i}" if i < self.m else f"t{i - self.m + 1}"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, Signature) and self.m == other.m and self.n == other.n
                and self.varset == other.varset and self.beta == other.beta)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Signature(m={self.m}, n={self.n}, varset={self.varset!r})"


@lru_cache(maxsize=None)
def _signature(m: int, n: int, varset: str, beta) -> Signature:
    """The one ``Signature`` of a shape, variable set and metric (None for
    the standard metric); a metric that fails its checks leaves no entry."""
    sig = object.__new__(Signature)
    sig._setup(m, n, varset, beta)
    return sig


def merge_odd(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two increasing odd-index tuples; returns (sign, merged) or None on collision."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    out = []
    i = j = 0
    inversions = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
            inversions += len(a) - i
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if inversions & 1 else 1), tuple(out)


class SuperPolynomial:
    """Finitely supported map (even exponents, odd subset) -> QQi.  ``apply_op``
    and ``quotient.reduce_poly`` keep the number type of the coefficients."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms: dict[MonKey, QQi] | None = None):
        self.sig = sig
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = QQi.coerce(c)
                if not c.is_zero():
                    self.terms[k] = c

    # -- constructors ----------------------------------------------------

    @classmethod
    def _wrap(cls, sig: Signature, terms: dict) -> "SuperPolynomial":
        """The polynomial of a term map with no zero values, taken as it is."""
        p = cls.__new__(cls)
        p.sig, p.terms = sig, terms
        return p

    @classmethod
    def zero(cls, sig: Signature) -> "SuperPolynomial":
        return cls(sig)

    @classmethod
    def constant(cls, sig: Signature, c) -> "SuperPolynomial":
        return cls(sig, {((0,) * sig.m, ()): QQi.coerce(c)})

    @classmethod
    def one(cls, sig: Signature) -> "SuperPolynomial":
        return cls.constant(sig, 1)

    @classmethod
    def variable(cls, sig: Signature, i: int, coeff=1) -> "SuperPolynomial":
        if not 0 <= i < sig.nvars:
            raise IndexError(f"variable index {i} out of range")
        if i < sig.m:
            ev = tuple(1 if j == i else 0 for j in range(sig.m))
            return cls(sig, {(ev, ()): QQi.coerce(coeff)})
        return cls(sig, {((0,) * sig.m, (i,)): QQi.coerce(coeff)})

    @classmethod
    def monomial(cls, sig: Signature, key: MonKey, coeff=1) -> "SuperPolynomial":
        return cls(sig, {key: QQi.coerce(coeff)})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> QQi:
        return self.terms.get(((0,) * self.sig.m, ()), QQi(0))

    def homogeneous_components(self) -> dict[int, "SuperPolynomial"]:
        out: dict[int, dict] = {}
        for key, c in self.terms.items():
            out.setdefault(sum(key[0]) + len(key[1]), {})[key] = c
        return {k: SuperPolynomial(self.sig, t) for k, t in sorted(out.items())}

    # -- ring operations -------------------------------------------------

    def _check(self, other: "SuperPolynomial"):
        if self.sig is not other.sig and self.sig != other.sig:
            raise ValueError("signature mismatch")

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return SuperPolynomial._wrap(self.sig, out)

    def __neg__(self) -> "SuperPolynomial":
        return SuperPolynomial._wrap(self.sig, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + (-other)

    def scale(self, c) -> "SuperPolynomial":
        c = QQi.coerce(c)
        if c.is_zero():
            return SuperPolynomial(self.sig)
        return SuperPolynomial._wrap(self.sig, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not SuperPolynomial and isinstance(other, (int, Fraction, QQi)):
            return self.scale(other)
        self._check(other)
        return SuperPolynomial._wrap(self.sig, term_product(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "SuperPolynomial":
        if k < 0:
            raise ValueError("negative power")
        out = SuperPolynomial.one(self.sig)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "SuperPolynomial":
        return SuperPolynomial._wrap(self.sig, {k: c.conjugate() for k, c in self.terms.items()})

    def mul_var(self, i: int) -> "SuperPolynomial":
        """Left multiplication by variable i, the ``_OPS`` operator ("mul", i)."""
        return apply_op(("mul", i), self)

    # -- comparison / rendering ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        sig = self.sig
        parts = []
        for (ev, odd) in sorted(self.terms, key=lambda k: (sum(k[0]) + len(k[1]), k[0], k[1])):
            c = self.terms[(ev, odd)]
            factors = [str(c)]
            for i, e in enumerate(ev):
                if e == 1:
                    factors.append(sig.var_name(i))
                elif e > 1:
                    factors.append(f"{sig.var_name(i)}^{e}")
            for o in odd:
                factors.append(sig.var_name(o))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SuperPolynomial({self})"


def add_term_product(out: dict, terms: dict, key: MonKey, c) -> dict:
    """Add (c x^key) * (the term map terms) into the term map out, and return
    it; the values are ints or ``QQi``, and the products are as their factors."""
    ev, odd = key
    for (tev, todd), v in terms.items():
        merged = merge_odd(odd, todd)
        if merged is None:
            continue
        v = c * v
        _acc(out, (tuple(map(add, ev, tev)), merged[1]), -v if merged[0] < 0 else v)
    return out


def term_product(a: dict, b: dict) -> dict:
    """The product of the term maps a and b, a on the left (``add_term_product``
    per term of a).  Keys are pairs (even exponents, odd indices), monomial
    keys or any equal-length exponent tuples: Laurent or in half powers."""
    out: dict = {}
    for key, c in a.items():
        add_term_product(out, b, key, c)
    return out


def taylor_terms(nil: dict, derivatives, one: dict) -> dict:
    """sum_j nil^j d_j / j!, d_j = derivatives[j]: the scalar function whose
    j-th derivative at an even body is d_j, composed with body + nil, nil
    nilpotent; one is the term map of 1.  The sum stops where nil^j
    vanishes; ValueError if the table runs out first."""
    out: dict = {}
    power = one  # nil^j / j!
    for j in itertools.count():
        if not power:
            return out
        if j >= len(derivatives):
            raise ValueError(f"derivative table too short: need order {j}")
        for key, v in term_product(power, derivatives[j]).items():
            _acc(out, key, v)
        power = {key: v * Fraction(1, j + 1) for key, v in term_product(power, nil).items()}


# -- distinguished elements ------------------------------------------------


@lru_cache(maxsize=None)
def R2(sig: Signature) -> SuperPolynomial:
    """Square of the radial coordinate, sum beta^{ij} x_i x_j."""
    return SuperPolynomial(sig, sig.r2_terms)


@lru_cache(maxsize=None)
def r2_small(sig: Signature) -> SuperPolynomial:
    """r^2 = sum_{i>=1} x^i x_i, so that R^2 = -x_0^2 + r^2."""
    x0sq = SuperPolynomial.monomial(sig, ((2,) + (0,) * (sig.m - 1), ()))
    return R2(sig) + x0sq


@lru_cache(maxsize=None)
def theta2(sig: Signature) -> SuperPolynomial:
    """Odd part of r^2: sum over odd indices of beta^{ij} x_i x_j."""
    return SuperPolynomial(sig, {k: c for k, c in R2(sig).terms.items() if k[1]})


# -- the operator calculus ----------------------------------------------------
#
# Each ``_OPS`` entry maps (sig, key, c, *args) to the image {key: number}
# of x^key at the rate c, the operator conjugated by exp(-c x_0): ints when
# c, lambda and the metric are integral, else ``QQi``.


def derive_key(m: int, i: int, key: MonKey):
    """d_upper(i) x^key, acting from the left, as (coefficient, key), or None."""
    ev, odd = key
    if i < m:
        e = ev[i]
        return (e, (ev[:i] + (e - 1,) + ev[i + 1:], odd)) if e else None
    if i not in odd:
        return None
    pos = odd.index(i)
    return (-1 if pos & 1 else 1), (ev, odd[:pos] + odd[pos + 1:])


def mul_key(m: int, i: int, key: MonKey):
    """x_i x^key, multiplied from the left, as (sign, key), or None."""
    ev, odd = key
    if i < m:
        return 1, (ev[:i] + (ev[i] + 1,) + ev[i + 1:], odd)
    if i in odd:
        return None
    pos = bisect(odd, i)
    return (-1 if pos & 1 else 1), (ev, odd[:pos] + (i,) + odd[pos:])


def _derive(sig, key, c, row):
    """sum b d_upper(i, c) over (i, b) in row; d_upper(0, c) = d_upper(0) - c.
    The keys of the terms are distinct, so each is set once."""
    out: dict = {}
    for i, b in row:
        t = derive_key(sig.m, i, key)
        if t:
            out[t[1]] = b * t[0]
        if c and i == 0:
            out[key] = -c * b
    return out


def _euler(sig, key, c):
    k = sum(key[0]) + len(key[1])
    out = {key: k} if k else {}
    if c:
        _acc(out, mul_key(sig.m, 0, key)[1], -c)
    return out


def _laplacian(sig, key, c):
    """sum_i d_lower(i, c) d_upper(i, c) x^key."""
    out: dict = {}
    for i in range(sig.nvars):
        t = derive_key(sig.m, i, key)
        if t:
            for k1, v in _derive(sig, t[1], 0, sig.beta_rows[i]).items():
                _acc(out, k1, t[0] * v)
    if c:  # - 2c d_lower(0) + c^2 beta[0][0]
        for k1, v in _derive(sig, key, 0, sig.beta_rows[0]).items():
            _acc(out, k1, -2 * c * v)
        _acc(out, key, c * c * dict(sig.beta_rows[0]).get(0, 0))
    return out


def _angular(sig, key, c, i, j):
    """L_ij = x_i d_lower(j) - (-1)^{|i||j|} x_j d_lower(i)."""
    m = sig.m
    if i == j and i < m:
        raise ValueError("L_ii is only defined for odd indices")
    out: dict = {}
    for a, b, f in ((i, j, 1), (j, i, 1 if (i >= m and j >= m) else -1)):
        for l, v in sig.beta_rows[b]:  # x_a v d_upper(l, c), the rate term at l = 0
            if (t := derive_key(m, l, key)) and (u := mul_key(m, a, t[1])):
                _acc(out, u[1], f * u[0] * (v * t[0]))
            if c and l == 0 and (u := mul_key(m, a, key)):
                _acc(out, u[1], f * u[0] * (-c * v))
    return out


def _bessel(sig, key, c, lam, k):
    """((-lambda + 2E) d_lower(k) - x_k Delta), every factor at rate c."""
    m = sig.m
    lam = int_or_qqi(lam)
    out: dict = {}
    for k1, v in _derive(sig, key, c, sig.beta_rows[k]).items():
        _acc(out, k1, (2 * (sum(k1[0]) + len(k1[1])) - lam) * v)
        if c:
            _acc(out, mul_key(m, 0, k1)[1], -2 * c * v)
    for k1, v in _laplacian(sig, key, c).items():
        t = mul_key(m, k, k1)
        if t:
            _acc(out, t[1], -t[0] * v)
    return out


def _bessel_mod(sig, key, c, k):
    """The tangential parameter lambda = 2 - M, with the sign flipped at k = 0."""
    out = _bessel(sig, key, c, 2 - sig.M, k)
    return {k1: -v for k1, v in out.items()} if k == 0 else out


def _mul(sig, key, c, i):
    t = mul_key(sig.m, i, key)
    return {t[1]: t[0]} if t else {}


# The operators by descriptor (name, *args).
_OPS = {
    "d_upper": lambda sig, key, c, i: _derive(sig, key, c, ((i, 1),)),
    "d_lower": lambda sig, key, c, j: _derive(sig, key, c, sig.beta_rows[j]),
    "E": _euler,
    "Delta": _laplacian,
    "L": _angular,
    "bessel": _bessel,
    "bessel_mod": _bessel_mod,
    "mul": _mul,
    "R2": lambda sig, key, c: add_term_product({}, sig.r2_terms, key, 1),
    "one": lambda sig, key, c: {key: 1},
}


def _column(image: dict) -> tuple[int, dict]:
    """An image as an integer column: its ints over 1, or its ``QQi`` values
    (from a rate, lambda or metric that is not integral) by ``int_column``."""
    if all(type(v) is int for v in image.values()):
        return 1, {k: (v, 0) for k, v in image.items()}
    return int_column({k: QQi.coerce(v) for k, v in image.items()})


def op_terms(sig: Signature, descriptor: tuple, terms: dict, rate=0) -> dict:
    """The ``_OPS`` operator of a descriptor, e.g. ("L", 0, 1), on the term map
    terms at rate: the linear extension of its closed form into one term map,
    in the number type of terms and the images."""
    image, args = _OPS[descriptor[0]], descriptor[1:]
    c = int_or_qqi(rate)
    out: dict = {}
    for key, x in terms.items():
        for k, v in image(sig, key, c, *args).items():
            _acc(out, k, x * v)
    return out


def apply_op(descriptor: tuple, p: SuperPolynomial, rate=0) -> SuperPolynomial:
    """``op_terms`` on the terms of p, as a polynomial."""
    return SuperPolynomial._wrap(p.sig, op_terms(p.sig, descriptor, p.terms, rate))


def op_image(sig: Signature, descriptor: tuple, key: MonKey, rate=0) -> dict:
    """The ``_OPS`` image {key: QQi} of x^key at rate."""
    image = _OPS[descriptor[0]](sig, key, int_or_qqi(rate), *descriptor[1:])
    return {k: QQi.coerce(v) for k, v in image.items()}


def op_column(sig: Signature, descriptor: tuple, key: MonKey, rate=0) -> tuple[int, dict]:
    """The ``_OPS`` image of x^key at rate as an integer column."""
    return _column(_OPS[descriptor[0]](sig, key, int_or_qqi(rate), *descriptor[1:]))


def _check_shape(table, tkk, sig: Signature) -> None:
    """pi and rho act on polynomials of the algebra's shape (m, n), D
    (``TKK.realization_table``) on its big signature and nowhere else."""
    if table is type(tkk).realization_table:
        same = sig == tkk.big_signature
    else:
        same = (sig.m, sig.n) == (tkk.sig.m, tkk.sig.n)
    if not same:
        raise ValueError("TKK element and polynomial have different shapes")


def table_apply(table, op, X, p: SuperPolynomial, rate=0) -> SuperPolynomial:
    """X = sum_a c_a X_a applied to p through an action table, which maps
    (tkk, a) to basis element a as [(descriptor, coefficient)]; op(descriptor,
    p, rate) is the image of one descriptor.  The tables are
    ``schrodinger.pi_table`` (pi, pi_C), ``fock.rho_table`` (rho) and
    ``liealg.TKK.realization_table`` (D, on the big signature).  Coefficients
    are gathered per descriptor first, so each operator is applied once."""
    tkk = X.tkk
    _check_shape(table, tkk, p.sig)
    ops: dict = {}
    for a, x in X.coeffs.items():
        for d, c in table(tkk, a):
            _acc(ops, d, x * c)
    out: dict = {}
    for d, c in ops.items():
        for key, v in op(d, p, rate).terms.items():
            _acc(out, key, v * c)
    return SuperPolynomial(p.sig, out)


def table_columns(table, tkk, sig: Signature, number, rate=0, reduce=None):
    """fill(n): the row of the monomial numbered n by number (a
    ``linalg.Numbering`` of sig), a list of the numbered columns of X_a x^key
    indexed by the basis element a of tkk, through an action table; it is the
    row that ``linalg.commutator_failure`` reads.  reduce(sig, terms) reduces
    an image where the action acts modulo R^2 (``quotient.nf_terms`` for pi,
    pi_C and rho) and is None where it does not (D).  The shape is checked
    here; the table is read once per algebra, on the first fill, so that a
    filler no check uses reads nothing.

    Each descriptor's image of x^key is made once per fill, straight from its
    ``_OPS`` closed form at rate (read at call time), as an int map that is
    reduced and numbered as it is (``linalg.numbered``: an int map becomes
    the real part); no polynomial is built.  The column of X_a is one
    ``linalg.combination`` of those images with a's coefficients, in plain
    ints, with cancelled entries dropped and the content gcd divided out, so
    that it decodes (``linalg.decode``) to ``int_column`` of the polynomial
    route ``table_apply`` on x^key exactly, down to its denominator, with op
    ``schrodinger.pi_op`` where the fill reduces and ``apply_op`` where it
    does not."""
    _check_shape(table, tkk, sig)
    c = int_or_qqi(rate)
    entries = []  # per basis element, [(descriptor, x, y, e)]: coefficient (x + y i)/e

    def fill(n) -> list[tuple]:
        if not entries:
            entries.extend([(d, x.a, x.b, x.d) for d, x in table(tkk, a)]
                           for a in range(tkk.dim))
        key = number.key[n]
        images: dict = {}
        columns = []
        for row in entries:
            terms = []
            for d, x, y, e in row:
                image = images.get(d)
                if image is None:
                    image = _OPS[d[0]](sig, key, c, *d[1:])
                    image = images[d] = numbered(reduce(sig, image) if reduce else image,
                                                 number)
                terms.append((x, y, e * image[0], image[1], image[2]))
            if len(row) == 1 and row[0][1:] == (1, 0, 1):
                columns.append(image)  # one descriptor with coefficient 1
            else:
                columns.append(combination(terms))
        return columns
    return fill


# -- enumeration and dimensions ----------------------------------------------


def in_minus_2n(x: int) -> bool:
    """Whether x lies in -2N = {0, -2, -4, ...}, where the Gamma-type factors degenerate."""
    return x <= 0 and x % 2 == 0


def dim_P(m: int, n: int, k: int) -> int:
    """Dimension of the degree-k slice of the polynomial algebra on C^{m|2n}."""
    if k < 0:
        return 0
    return sum(comb(2 * n, i) * comb(k - i + m - 1, m - 1) for i in range(min(k, 2 * n) + 1))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomial_keys(sig: Signature, k: int) -> tuple[MonKey, ...]:
    """All degree-k monomial keys, in a fixed deterministic order."""
    out = []
    for j in range(min(2 * sig.n, k) + 1):
        for odd in itertools.combinations(range(sig.m, sig.nvars), j):
            for ev in _compositions(k - j, sig.m):
                out.append((ev, odd))
    out.sort()
    return tuple(out)


def monomials_up_to(sig: Signature, k: int) -> list[MonKey]:
    keys: list[MonKey] = []
    for d in range(k + 1):
        keys.extend(monomial_keys(sig, d))
    return keys


def random_polynomial(sig: Signature, degree: int, rng: random.Random,
                      nterms: int = 4) -> SuperPolynomial:
    """Seeded sample with coefficients from {1, -1, 1/2, -1/2, i, -i}."""
    coeffs = [QQi(1), QQi(-1), QQi(1, 0, 2), QQi(-1, 0, 2), I, -I]
    terms: dict[MonKey, QQi] = {}
    for _ in range(nterms):
        d = rng.randrange(degree + 1)
        keys = monomial_keys(sig, d)
        _acc(terms, keys[rng.randrange(len(keys))], rng.choice(coeffs))
    return SuperPolynomial(sig, terms)
