"""Segal-Bargmann transform between the W-side and Fock-side models.

A vector q exp(-2 x_0) of W is its reduced polynomial q (``schrodinger``), so
``sb`` maps polynomials in x to polynomials in z and ``sb_inverse`` maps
back; the actions they intertwine are applied by the checks in ``verify``.
Both directions use the kernel exp(-z_0) B_0(x|z), and each factor has one
implementation: B_0 = sum_l c_l P^l, the integer powers P^l =
``bipoly.pairing_power(l)`` of the mixed pairing x|z times c_l =
``b_series_coeff(M, 0, l)`` (defined in ``fock``, whose reproducing kernel
reads the same c_k, and read here as this module's own name), and exp(-z_0)
by its coefficients ``exp_coefficient(e)``, of which ``exp_z0_truncation`` is
the polynomial.  One memo splits each term c_l P^l once (``_split``) into
c_l and the entries (xkey, zkey, v, |odd(zkey)| mod 2) of the int map P^l,
bucketed by the parity of xkey's omega exponents, and both directions read
it.  The forward transform needs finitely many series terms, because the
source elements are polynomial times exponential: the image of x^key reads,
for l <= deg(key) + 2, the one bucket whose parity matches key's omega
exponents (every other entry has zero moment), merges the odd parts with
their signs and reads each product monomial from the table of normalized
moments (``integral.moment``) before exp(-z_0) is applied.  The inverse is
a closed Bessel-Fischer pairing with the kernel's part of each z-degree,
sum c_l P^l (-z_0)^(k-l)/(k-l)! over l <= k, and needs no integration.
Both directions sum Gaussian-integer numerators over one running
denominator (``scalars.ColumnSum``), never a ``QQi`` product, and reduce
each part modulo R^2.  Each direction keeps one memo, the integer columns
of its monomial images in lowest terms (``sb_column``, ``inverse_column``);
``sb``, ``sb_inverse`` and ``verify``'s intertwining checks sum those
columns.  The series' own identities (``b0_identity_failures``) read the
same P^l and c_l one degree at a time, in ints, making each operator image
once per degree and dropping it when that degree is checked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import factorial, gcd
from operator import add

from .algebra import (MonKey, Signature, SuperPolynomial, apply_op, merge_odd, op_terms,
                      term_product)
from .bipoly import LEFT, RIGHT, _slot_r2_power, bi_signature, pairing_power
from .fock import _word_indices, b_series_coeff, bf_covectors
from .integral import moment
from .quotient import nf_terms, reduce_poly, reduce_terms
from .scalars import QQi, ColumnSum, _acc, column_image, column_terms, int_column


def _combination(*parts) -> dict:
    """sum f * terms over the parts (f, terms) of term maps, as one term map."""
    out: dict = {}
    for f, terms in parts:
        for key, v in terms.items():
            _acc(out, key, f * v)
    return out


def _differs(a, t: dict, b, s: dict) -> bool:
    """Whether a t != b s, for term maps t and s that hold no zero."""
    if not (a and b):
        return bool(a and t or b and s)
    return len(t) != len(s) or any(a * v != b * s.get(k, 0) for k, v in t.items())


def b0_identity_failures(sig: Signature, sig_z: Signature, max_degree: int,
                         lam=None) -> list:
    """(label, first right-slot degree <= max_degree where the identity fails,
    or None) for each kernel-series identity, in checking order.

    B_alpha's l-th term is c_alpha(l) P^l with P^l = ``pairing_power(l)`` of
    bidegree (l, l), and each operator moves the right-slot degree by a fixed
    step, so the degree-d part of an identity's difference is A T(P^l) -
    B S(P^(l-1)) for one l, the two coefficients cleared to integers A, B:
    l = d + 1 for d/dz and the z-side Bessel operator, l = d for the Euler
    and x-side identities.  The parts are {key: int} maps on the joined
    alphabet: d_lower, d_upper and mul are the ``_OPS`` closed forms on the
    joined signature (``op_terms``), the slot Laplacian is sum d_lower(b)
    d_upper(b) over the slot's indices, and a pairing that is not integral
    raises ValueError.  The Bessel identities hold modulo the R^2 ideal of
    the inert slot (the Bessel operator contracts two variables of one
    alphabet into R^2 of the other), so their parts are reduced there
    (``reduce_terms``).  That reduction commutes with the operators of the
    other slot, so the slot Laplacian is reduced once and x_a times it is
    not reduced again.  lam is the Bessel lambda, 2 - M unless given.

    The check runs one degree at a time over the identities that have not
    failed yet, and makes each operator image once: d_lower(z_k) P^(d+1) and
    x_k P^d are read by the z-derivative and the z-side Bessel identity of
    k, and a slot Laplacian by every index of its slot.  Each image is
    dropped once the identities of its degree have read it."""
    bsig = bi_signature(sig, sig_z)
    x, z = bsig.slots
    nv = sig.nvars
    lam = 2 - sig.M if lam is None else lam
    coeff = cache(partial(b_series_coeff, sig.M))
    power = partial(pairing_power, sig, sig_z)
    op = partial(op_terms, bsig)

    def cleared(a, b):  # A T - B S vanishes iff a T = b S
        return a.numerator * b.denominator, b.numerator * a.denominator

    def reduced(slot, terms):  # modulo the R^2 ideal of the other, inert slot
        return reduce_terms(terms, bsig.slots[1 - slot][0],
                            partial(_slot_r2_power, bsig, 1 - slot))

    def laplacian(slot, terms):
        return reduced(slot, _combination(*((1, op(("d_lower", b), op(("d_upper", b), terms)))
                                            for b in bsig.slots[slot])))

    def bessel_differs(slot, i, l, lowered, multiplied, lap):
        """The Bessel identity of the slot at index i on the l-th terms, from
        lowered = d_lower(a) P^l, multiplied = (the other slot's variable i)
        P^(l-1) and the slot's Laplacian lap of P^l."""
        a, s = bsig.slots[slot][i], -1 if i == 0 else 1
        A, B = cleared(coeff(0, l), 4 * coeff(0, l - 1))
        # (2E - lam) d_lower(a) - x_a Delta, E = l - 1 after d_lower; x_a is
        # a variable of the slot, so x_a Delta is reduced as Delta is
        lhs = reduced(slot, _combination((s * A * (2 * (l - 1) - lam), lowered),
                                         (-B, multiplied)))
        return _differs(1, lhs, s * A, op(("mul", a), lap))

    labels = [f"z-derivative (k={k})" for k in list(range(1, nv)) + [0]]
    labels.append("Euler contraction")
    for i in range(nv):
        labels += [f"Bessel eigenfunction (z side, i={i})",
                   f"Bessel eigenfunction (x side, i={i})"]
    first = [None] * len(labels)
    derivative = [(k - 1) % nv for k in range(nv)]  # label positions, by index
    z_bessel = [nv + 1 + 2 * i for i in range(nv)]
    x_bessel = [nv + 2 + 2 * i for i in range(nv)]

    def pending(positions):
        return any(first[j] is None for j in positions)

    # each side makes its Laplacian, the largest image, before the images of
    # its indices, so that no other image is held while it is built
    def z_side(d):
        lap = laplacian(RIGHT, power(d + 1)) if pending(z_bessel) else None
        for k, (jd, jb) in enumerate(zip(derivative, z_bessel)):
            if not pending((jd, jb)):
                continue
            lowered = op(("d_lower", z[k]), power(d + 1))
            multiplied = op(("mul", x[k]), power(d))
            if first[jd] is None:
                A, B = cleared(coeff(0, d + 1), (-2 if k == 0 else 2) * coeff(1, d))
                if _differs(A, lowered, B, multiplied):
                    first[jd] = d
            if first[jb] is None and bessel_differs(RIGHT, k, d + 1, lowered, multiplied, lap):
                first[jb] = d

    def x_side(d):  # d >= 1
        if not pending(x_bessel):
            return
        lap = laplacian(LEFT, power(d))
        for i, j in enumerate(x_bessel):
            if first[j] is None:
                lowered = op(("d_lower", x[i]), power(d))
                multiplied = op(("mul", z[i]), power(d - 1))
                if bessel_differs(LEFT, i, d, lowered, multiplied, lap):
                    first[j] = d

    for d in range(max_degree + 1):
        if None not in first:
            break
        z_side(d)
        if d:
            x_side(d)
            if first[nv] is None:
                A, B = cleared(d * coeff(0, d), coeff(1, d - 1))
                if _differs(A, power(d), B, term_product(power(d - 1), power(1))):
                    first[nv] = d
    return list(zip(labels, first))


def exp_coefficient(e: int) -> Fraction:
    """(-1)^e / e!, the coefficient of z_0^e in exp(-z_0)."""
    return Fraction((-1) ** e, factorial(e))


def exp_z0_truncation(sig: Signature, max_degree: int) -> SuperPolynomial:
    """Degree-truncated exp(-z_0)."""
    rest = (0,) * (sig.m - 1)
    return SuperPolynomial(sig, {((e,) + rest, ()): exp_coefficient(e)
                                 for e in range(max_degree + 1)})


def _reduced_column(sig: Signature, acc: ColumnSum) -> tuple[int, dict]:
    """The sum in acc modulo R^2 as an integer column: each part reduced by
    ``nf_terms``, cancelled entries dropped and the content gcd(d, every
    numerator) divided out, so it is the column ``int_column`` makes of the
    same values."""
    d, nums = acc.d, acc.nums
    re = nf_terms(sig, {key: a for key, (a, _) in nums.items() if a})
    im = nf_terms(sig, {key: b for key, (_, b) in nums.items() if b})
    out = {key: (re.get(key, 0), im.get(key, 0)) for key in {**re, **im}}
    g = gcd(d, *re.values(), *im.values())
    if g != 1:
        d //= g
        out = {key: (a // g, b // g) for key, (a, b) in out.items()}
    return d, out


class SBTransform:
    """Forward/inverse transform for one variable shape, with cached tables."""

    def __init__(self, sig_x: Signature, sig_z: Signature | None = None):
        self.sig_x = sig_x
        self.sig_z = sig_z or Signature(sig_x.m, sig_x.n, varset="z", beta=sig_x.beta)
        self.bsig = bi_signature(self.sig_x, self.sig_z)
        self.M = sig_x.M
        self._terms: dict[int, tuple[Fraction, dict]] = {}
        self._columns: dict[MonKey, tuple[int, dict]] = {}
        self._inv_columns: dict[MonKey, tuple[int, dict]] = {}

    def _split(self, l: int) -> tuple[Fraction, dict]:
        """The term c_l P^l of B_0 as c_l and the entries (xkey, zkey, v,
        |odd(zkey)| mod 2) of the int map P^l, bucketed by the parity pattern
        of xkey[0][1:]; memoized per l and read by both directions."""
        split = self._terms.get(l)
        if split is None:
            buckets: dict = {}
            for key, v in pairing_power(self.sig_x, self.sig_z, l).items():
                xkey, zkey = self.bsig.split(key)
                buckets.setdefault(tuple(e & 1 for e in xkey[0][1:]), []).append(
                    (xkey, zkey, v, len(zkey[1]) & 1))
            split = self._terms[l] = b_series_coeff(self.M, 0, l), buckets
        return split

    # -- forward -----------------------------------------------------------

    def sb_column(self, mono: MonKey) -> tuple[int, dict]:
        """The reduced transform of x^mono exp(-2 x_0) as an integer column
        (``scalars.int_column``), memoized.

        The carrier B_0(x|z) x^mono is summed from the split series terms
        (``_split``) for l <= cap + 2: only the bucket whose omega parity
        matches mono's can have a nonzero moment.  An entry's x-monomial
        times x^mono is (merge_odd(xodd, mono_odd), even exponents added),
        with the crossing sign (-1)^(|z odd| |mono odd|) of x^mono passing
        the entry's odd z-variables.  The entries and then the powers of
        z_0 are summed as Gaussian-integer numerators over one running
        denominator (``scalars.ColumnSum``)."""
        column = self._columns.get(mono)
        if column is not None:
            return column
        mev, modd = mono
        cap = sum(mev) + len(modd)
        crossing = len(modd) & 1
        parity = tuple(e & 1 for e in mev[1:])
        carrier = ColumnSum()
        for l in range(cap + 3):
            c, buckets = self._split(l)
            p, q = c.numerator, c.denominator
            for (xev, xodd), zkey, v, zodd in buckets.get(parity, ()):
                merged = merge_odd(xodd, modd)
                if merged is None:
                    continue
                sign, odd = merged
                if crossing and zodd:
                    sign = -sign
                mu = moment(self.sig_x, (tuple(map(add, xev, mev)), odd), 4)
                f = sign * v * p
                carrier.add(zkey, f * mu.a, f * mu.b, q * mu.d)
        # times exp(-z_0) up to degree cap + 2; z_0 is even, so z_0^e only
        # raises the first exponent
        image = ColumnSum()
        powers = [(f.numerator, f.denominator * carrier.d)
                  for f in map(exp_coefficient, range(cap + 3))]
        for (ev, odd), (a, b) in carrier.nums.items():
            for e in range(cap + 3 - sum(ev) - len(odd)):
                p, q = powers[e]
                image.add(((ev[0] + e,) + ev[1:], odd), p * a, p * b, q)
        column = _reduced_column(self.sig_z, image)
        tail = min((t for t in (sum(ev) + len(odd) for ev, odd in column[1]) if t > cap),
                   default=None)
        if tail is not None:
            raise AssertionError(
                f"transform tail does not vanish at degree {tail} for {mono}")
        self._columns[mono] = column
        return column

    def sb(self, q: SuperPolynomial) -> SuperPolynomial:
        """Forward transform of the vector q exp(-2 x_0) of W, q reduced first;
        exact reduced polynomial in z."""
        if self.M < 4:
            raise ValueError("forward transform requires superdimension >= 4")
        column = column_image(int_column(reduce_poly(q).terms), self.sb_column)
        return SuperPolynomial(self.sig_z, column_terms(column))

    # -- inverse -----------------------------------------------------------

    def inverse_column(self, key: MonKey) -> tuple[int, dict]:
        """The reduced inverse image of z^key as an integer column; memoized.

        The z-degree-k part of the kernel exp(-z_0) B_0(x|z) is the sum of
        c_l P^l (-z_0)^(k-l)/(k-l)! over l <= k, read from the split terms
        (``_split``); z_0 is even, so (-z_0)^(k-l) only raises the first
        exponent of an entry's z-monomial, and the entry contributes its
        x-monomial times the pairing of that z-monomial with z^key, summed
        as Gaussian-integer numerators over one running denominator
        (``scalars.ColumnSum``)."""
        column = self._inv_columns.get(key)
        if column is not None:
            return column
        k = sum(key[0]) + len(key[1])
        try:  # (M/2 - 1)_k has every factor of (M/2 - 1)_l, l <= k: one probe
            b_series_coeff(self.M, 0, k)
        except ValueError:
            raise ValueError(f"inverse transform undefined at degree {k}: "
                             "M - 2 lies in -2N") from None
        cov = bf_covectors(self.sig_z, k)
        image = ColumnSum()
        for l in range(k + 1):
            e = k - l
            c, buckets = self._split(l)
            f = c * exp_coefficient(e)
            p, q = f.numerator, f.denominator
            for bucket in buckets.values():
                for xkey, (zev, zodd), v, _ in bucket:
                    val = cov[((zev[0] + e,) + zev[1:], zodd)].get(key)
                    if val is not None:
                        g = v * p
                        image.add(xkey, g * val.a, g * val.b, q * val.d)
        column = self._inv_columns[key] = _reduced_column(self.sig_x, image)
        return column

    def sb_inverse(self, p: SuperPolynomial) -> SuperPolynomial:
        """Inverse transform via the closed Bessel-Fischer pairing formula, as
        the reduced polynomial of a vector of W, summed from the reduced
        monomial images; reduction modulo R^2 is linear and idempotent, so
        this is the reduction of the unreduced sum."""
        column = column_image(int_column(p.terms), self.inverse_column)
        return SuperPolynomial(self.sig_x, column_terms(column))

    # -- Hermite functions -------------------------------------------------

    def hermite(self, alpha: MonKey) -> SuperPolynomial:
        """Generalized Hermite polynomial of a multi-exponent, the reduced
        polynomial of the Hermite function in W.

        Computed two independent ways (halved Bessel word on the rate-4
        vector, and the inverse transform of (2z)^alpha); they must agree.
        """
        q = SuperPolynomial.one(self.sig_x)
        indices = _word_indices(alpha)
        for i in reversed(indices):
            q = apply_op(("bessel_mod", i), q, 4).scale(QQi(1, 0, 2))
        direct = reduce_poly(q)
        degree = len(indices)
        two_z = SuperPolynomial.monomial(self.sig_z, alpha, QQi(2 ** degree))
        via_inverse = self.sb_inverse(two_z)
        if direct != via_inverse:
            raise AssertionError(
                f"Hermite routes disagree for {alpha}: {direct} vs {via_inverse}")
        return direct
