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
entries (xkey, zkey, c, |odd(zkey)| mod 2), bucketed by the parity of xkey's
omega exponents, and both directions read it.  The forward transform needs
finitely many series terms, because the source elements are polynomial
times exponential: the image of x^key reads, for l <= deg(key) + 2, the one
bucket whose parity matches key's omega exponents (every other entry has
zero moment), merges the odd parts with their signs and reads each product
monomial from the table of normalized moments (``integral.moment``) before
exp(-z_0) is applied.  The inverse is a closed Bessel-Fischer pairing with
the kernel's part of each z-degree, sum c_l P^l (-z_0)^(k-l)/(k-l)! over
l <= k, and needs no integration.  Each direction keeps one memo, the
integer columns of its monomial images reduced modulo R^2 (``sb_column``,
``inverse_column``); ``sb``, ``sb_inverse`` and ``verify``'s intertwining
checks sum those columns.  The series' own identities
(``b0_identity_failures``) read the same P^l and c_l term by term, in ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import factorial

from .algebra import (MonKey, Signature, SuperPolynomial, apply_op, merge_odd, op_terms,
                      term_product)
from .bipoly import LEFT, RIGHT, _slot_r2_power, bi_signature, pairing_power
from .fock import _word_indices, b_series_coeff, bf_covectors
from .integral import moment
from .quotient import nf_terms, reduce_poly, reduce_terms
from .scalars import QQi, _acc, column_image, column_terms, int_column


def _combination(*parts) -> dict:
    """sum f * terms over the parts (f, terms) of term maps, as one term map."""
    out: dict = {}
    for f, terms in parts:
        for key, v in terms.items():
            _acc(out, key, f * v)
    return out


def b0_identity_failures(sig: Signature, sig_z: Signature, max_degree: int, lam=None):
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
    other slot, so the slot Laplacian is reduced once per l and x_a times it
    is not reduced again.  lam is the Bessel lambda, 2 - M unless given."""
    bsig = bi_signature(sig, sig_z)
    slots = bsig.slots
    lam = 2 - sig.M if lam is None else lam
    coeff = cache(partial(b_series_coeff, sig.M))
    powers = [pairing_power(sig, sig_z, l) for l in range(max_degree + 2)]
    op = partial(op_terms, bsig)

    def cleared(a, b):  # A T - B S vanishes iff a T = b S
        return a.numerator * b.denominator, b.numerator * a.denominator

    def reduced(slot, terms):  # modulo the R^2 ideal of the other, inert slot
        return reduce_terms(terms, slots[1 - slot][0], partial(_slot_r2_power, bsig, 1 - slot))

    @cache
    def laplacian(slot, l):  # reduced, and shared by every index of the slot
        return reduced(slot, _combination(*((1, op(("d_lower", b), op(("d_upper", b), powers[l])))
                                            for b in slots[slot])))

    def derivative(k, d):
        A, B = cleared(coeff(0, d + 1), (-2 if k == 0 else 2) * coeff(1, d))
        return _combination((A, op(("d_lower", slots[RIGHT][k]), powers[d + 1])),
                            (-B, op(("mul", slots[LEFT][k]), powers[d])))

    def euler(d):
        if not d:
            return {}
        A, B = cleared(d * coeff(0, d), coeff(1, d - 1))
        return _combination((A, powers[d]), (-B, term_product(powers[d - 1], powers[1])))

    def bessel(slot, i, d):
        l, a, s = d + 1 if slot == RIGHT else d, slots[slot][i], -1 if i == 0 else 1
        if not l:
            return {}
        A, B = cleared(coeff(0, l), 4 * coeff(0, l - 1))
        # (2E - lam) d_lower(a) - x_a Delta, E = l - 1 after d_lower; x_a is
        # a variable of the slot, so x_a Delta is reduced as Delta is
        return _combination(
            (1, reduced(slot, _combination(
                (s * A * (2 * (l - 1) - lam), op(("d_lower", a), powers[l])),
                (-B, op(("mul", slots[1 - slot][i]), powers[l - 1]))))),
            (-s * A, op(("mul", a), laplacian(slot, l))))

    identities = [(f"z-derivative (k={k})", partial(derivative, k))
                  for k in list(range(1, sig.nvars)) + [0]]
    identities.append(("Euler contraction", euler))
    for i in range(sig.nvars):
        identities += [(f"Bessel eigenfunction (z side, i={i})", partial(bessel, RIGHT, i)),
                       (f"Bessel eigenfunction (x side, i={i})", partial(bessel, LEFT, i))]
    for label, residue in identities:
        yield label, next((d for d in range(max_degree + 1) if residue(d)), None)


def exp_coefficient(e: int) -> Fraction:
    """(-1)^e / e!, the coefficient of z_0^e in exp(-z_0)."""
    return Fraction((-1) ** e, factorial(e))


def exp_z0_truncation(sig: Signature, max_degree: int) -> SuperPolynomial:
    """Degree-truncated exp(-z_0)."""
    rest = (0,) * (sig.m - 1)
    return SuperPolynomial(sig, {((e,) + rest, ()): exp_coefficient(e)
                                 for e in range(max_degree + 1)})


class SBTransform:
    """Forward/inverse transform for one variable shape, with cached tables."""

    def __init__(self, sig_x: Signature, sig_z: Signature | None = None):
        self.sig_x = sig_x
        self.sig_z = sig_z or Signature(sig_x.m, sig_x.n, varset="z", beta=sig_x.beta)
        self.bsig = bi_signature(self.sig_x, self.sig_z)
        self.M = sig_x.M
        self._terms: dict[int, dict] = {}
        self._columns: dict[MonKey, tuple[int, dict]] = {}
        self._inv_columns: dict[MonKey, tuple[int, dict]] = {}

    def _split(self, l: int) -> dict:
        """The term c_l P^l of B_0 as entries (xkey, zkey, c, |odd(zkey)| mod 2)
        bucketed by the parity pattern of xkey[0][1:]; memoized per l and read
        by both directions."""
        buckets = self._terms.get(l)
        if buckets is None:
            c = QQi.coerce(b_series_coeff(self.M, 0, l))
            buckets = {}
            for key, v in pairing_power(self.sig_x, self.sig_z, l).items():
                xkey, zkey = self.bsig.split(key)
                buckets.setdefault(tuple(e & 1 for e in xkey[0][1:]), []).append(
                    (xkey, zkey, c * v, len(zkey[1]) & 1))
            self._terms[l] = buckets
        return buckets

    # -- forward -----------------------------------------------------------

    def sb_column(self, mono: MonKey) -> tuple[int, dict]:
        """The reduced transform of x^mono exp(-2 x_0) as an integer column
        (``scalars.int_column``), memoized.

        The carrier B_0(x|z) x^mono is summed from the split series terms
        (``_split``) for l <= cap + 2: only the bucket whose omega parity
        matches mono's can have a nonzero moment.  An entry's x-monomial
        times x^mono is (merge_odd(xodd, mono_odd), even exponents added),
        with the crossing sign (-1)^(|z odd| |mono odd|) of x^mono passing
        the entry's odd z-variables."""
        column = self._columns.get(mono)
        if column is not None:
            return column
        mev, modd = mono
        cap = sum(mev) + len(modd)
        crossing = len(modd) & 1
        parity = tuple(e & 1 for e in mev[1:])
        acc: dict = {}
        for l in range(cap + 3):
            for (xev, xodd), zkey, c, zodd in self._split(l).get(parity, ()):
                merged = merge_odd(xodd, modd)
                if merged is None:
                    continue
                sign, odd = merged
                if crossing and zodd:
                    sign = -sign
                v = c * moment(self.sig_x, (tuple(a + b for a, b in zip(xev, mev)), odd), 4)
                _acc(acc, zkey, v if sign > 0 else -v)
        # times exp(-z_0) up to degree cap + 2; z_0 is even, so z_0^e only
        # raises the first exponent
        exp_coeffs = [QQi.coerce(exp_coefficient(e)) for e in range(cap + 3)]
        image: dict = {}
        for (ev, odd), c in acc.items():
            for e in range(cap + 3 - sum(ev) - len(odd)):
                _acc(image, ((ev[0] + e,) + ev[1:], odd), c * exp_coeffs[e])
        image = nf_terms(self.sig_z, image)
        tail = min((d for d in (sum(ev) + len(odd) for ev, odd in image) if d > cap),
                   default=None)
        if tail is not None:
            raise AssertionError(
                f"transform tail does not vanish at degree {tail} for {mono}")
        column = self._columns[mono] = int_column(image)
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
        x-monomial times the pairing of that z-monomial with z^key."""
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
        out: dict = {}
        for l in range(k + 1):
            e, f = k - l, QQi.coerce(exp_coefficient(k - l))
            for bucket in self._split(l).values():
                for xkey, (zev, zodd), c, _ in bucket:
                    val = cov[((zev[0] + e,) + zev[1:], zodd)].get(key)
                    if val is not None:
                        _acc(out, xkey, c * f * val)
        column = self._inv_columns[key] = int_column(nf_terms(self.sig_x, out))
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
