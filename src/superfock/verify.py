"""Check registry behind the verification CLI and the acceptance suite.

Every check is an exact identity (or an explicit numeric bound in the
``specfun`` suite) evaluated at one configuration (m, n).  The checks are the
rows of one ordered table, ``CHECKS``: suite, name, human-readable identity,
check function, degree budget and skip rule.  ``run_checks`` walks the rows of
the requested suites; a check returns (ok, witness), a row whose skip rule
gives a reason reports a skip with it, and ``run_check`` reports an
unexpected exception as a failure.

Operators, actions, structure constants and pairings are read as numbered
columns (``linalg.numbered``): int numerators over one positive denominator,
the real and imaginary parts in two maps keyed by monomial number, gathered
into rows, one per monomial, that map each operator to its column there.
The monomials are numbered once per ``Context`` and signature
(``Context.number``) and once per check for D and the ``algebra`` operators;
a number is decoded back to its key only for a witness.  ``action_rows``
fills the row of every basis element on one monomial at once through an
action table (pi, pi_C, rho or D, see ``algebra.table_columns``), memoized
per ``Context`` (``pi_row``, ``rho_row``) or per check; ``_operator_rows``
reads the ``algebra`` operators into rows filled as they are read and
memoized per check, except the L_ij columns of the angular commutant.  One
commutator loop (``linalg.commutator_failure``) reads the rows to check the
sl2 triple, the Bessel operator identities, the angular commutant, the
Jacobi identity, the bracket condition of the matrix model and the
representations D, pi and rho; one contraction of a pairing table against
columns (``linalg.skew_failure``) checks the adjointness of pi, rho and
L_ij; ``_first_leak`` checks that operators map R^2 P into <R^2>; the
intertwining, Cayley, bracket and metric residues are
``linalg.combination``s, the SB columns renumbered where they meet a row
(``_sb_columns``).
The shift identity of the Bessel-Fischer product compares only the pairings
where a side is nonzero (``_shift_identity_failure``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import time
from fractions import Fraction
from functools import cache, partial
from itertools import product

from . import integral, linalg
from .algebra import (_OPS, R2, Signature, SuperPolynomial, add_term_product,
                      apply_op, dim_P, in_minus_2n, monomial_keys, monomials_up_to,
                      mul_key, op_column, r2_small, random_polynomial, table_columns,
                      term_product, theta2)
from .fock import (b_series_coeff, bessel_image, bf_covectors, bf_product,
                   bf_product_shift_oracle, bf_word_apply, gram_nullspace,
                   gram_rank, kernel, kernel_pair, rho_apply, rho_lowering,
                   rho_raising, rho_table)
from .harmonics import (dim_harmonic, fischer_decompose, generalized_basis,
                        harmonic_basis)
from .integral import (berezin, berezin_theta_power, gamma_closed_form, gamma_engine,
                       integrate_w, radial_integral, sphere_moment, w_form, w_pair,
                       DivergenceError)
from .linalg import (EMPTY, Numbering, combination, commutator_failure, decode, numbered,
                     pair_table, renumber, skew_failure)
from .liealg import TKK, k_basis, k_center_dimension, k_closes, tkk_for
from .quotient import (graded_dim_F, ideal_member, is_normal_form, nf_terms,
                       normal_form_keys, reduce_poly, reduce_with_quotient)
from .scalars import HALF, I, ZERO, PiScalar, QQi, _acc, column_terms, gamma_half, int_or_qqi
from .schrodinger import abs_X, pi_apply, pi_op, pi_table
from .sbtransform import SBTransform, b0_identity_failures, exp_z0_truncation
from . import specfun

ALL_SUITES = ("algebra", "quotient", "harmonics", "liealg", "schrodinger",
              "integral", "fock", "sb", "specfun")

# Largest monomial basis, over all degrees <= max_degree + 1, that a run may
# span.  The pairing tables and operator sweeps grow with it (the tables with
# its square); the acceptance matrix peaks at 606, at (7,1) with degree <= 4.
MAX_BASIS = 1000


@dataclasses.dataclass
class RunConfig:
    m: int
    n: int
    max_degree: int = 3
    suites: tuple[str, ...] = ALL_SUITES
    seed: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        bad = [s for s in self.suites if s not in ALL_SUITES]
        if bad:
            raise ValueError(f"unknown suites: {bad}")
        repeated = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if repeated:
            raise ValueError(f"repeated suites: {repeated}")
        basis = sum(dim_P(self.m, self.n, d) for d in range(self.max_degree + 2))
        if basis > MAX_BASIS:
            raise ValueError(f"{basis} monomials of degree <= {self.max_degree + 1} "
                             f"exceed the budget of {MAX_BASIS}")

    @property
    def M(self) -> int:
        return self.m - 2 * self.n


@dataclasses.dataclass
class CheckResult:
    suite: str
    name: str
    identity: str
    status: str  # pass | fail | skip
    detail: str = ""
    seconds: float = 0.0


class Context:
    """Shared per-configuration caches used across suites; they go with the instance."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        sig = self.sig = Signature(cfg.m, cfg.n)
        sig_z = self.sig_z = Signature(cfg.m, cfg.n, varset="z")
        self.rng = random.Random(cfg.seed)
        tkk = self.tkk = tkk_for(sig)
        self._sb = None
        self._bf_table: tuple[int, tuple] | None = None
        # One numbering of the monomials per signature, read by every row,
        # pairing table and column of the context.  Memos that hold no
        # reference to the Context: the rows of numbered columns of the
        # actions of every basis element on x^key exp(-2 x_0) (Schrodinger)
        # and on z^key (Fock), and the harmonic bases of each degree (the
        # module's ``harmonic_basis`` read at call time).  The
        # W-form of the rate-2 monomial vectors x^p and x^q is one signed read
        # of the moment table, so it has no memo here.
        self.number = {sig: Numbering(), sig_z: Numbering()}
        self.pi_row = action_rows(pi_table, tkk, sig, self.number[sig], 2, nf_terms)
        self.rho_row = action_rows(rho_table, tkk, sig_z, self.number[sig_z], 0, nf_terms)
        self.harmonic_basis = cache(lambda k, sig: harmonic_basis(k, sig))
        self.w_pair = partial(w_pair, sig)

    def bf_table(self, max_degree: int) -> tuple:
        """The nonzero pairings {(a, b): <z^a, z^b>} of the monomials of degree
        <= max_degree, as the numbered pairing table that ``linalg.skew_failure``
        reads (``linalg.pair_table``, in the z numbering of the context).

        One table is kept, rebuilt when a larger degree is asked for.  Its
        entries above max_degree pair no monomial of degree <= max_degree, as
        pairings across degrees vanish, so a contraction over such monomials
        skips them."""
        if self._bf_table is None or self._bf_table[0] < max_degree:
            self._bf_table = max_degree, pair_table({
                (ka, kb): v for d in range(max_degree + 1)
                for ka, vec in bf_covectors(self.sig_z, d).items()
                for kb, v in sorted(vec.items())}, self.number[self.sig_z])
        return self._bf_table[1]

    @property
    def sb(self) -> SBTransform:
        if self._sb is None:
            self._sb = SBTransform(self.sig, self.sig_z)
        return self._sb

    def monomials(self, sig: Signature, max_deg: int) -> list[SuperPolynomial]:
        """The normal-form monomials on sig of degree <= max_deg: on the
        x-signature the monomial vectors of W, on the z-signature those of
        the Fock space."""
        return [SuperPolynomial.monomial(sig, key) for key in _nf_keys(sig, max_deg)]

    def sample_polys(self, degree: int, count: int, sig=None) -> list[SuperPolynomial]:
        sig = sig or self.sig
        fixed = [SuperPolynomial.one(sig),
                 SuperPolynomial.variable(sig, 0),
                 SuperPolynomial.variable(sig, 1) + SuperPolynomial.variable(sig, 0).scale(I)]
        if sig.n:
            fixed.append(SuperPolynomial.variable(sig, sig.m)
                         * SuperPolynomial.variable(sig, sig.m + 1)
                         + SuperPolynomial.variable(sig, 1))
        sampled = [random_polynomial(sig, degree, self.rng) for _ in range(count)]
        return fixed + sampled


def run_check(suite: str, name: str, identity: str, fn) -> CheckResult:
    """Run fn, which returns (ok, detail); an exception is a failed check."""
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # fatal errors become failed checks
        return CheckResult(suite, name, identity, "fail",
                           f"{type(exc).__name__}: {exc}",
                           time.perf_counter() - start)
    return CheckResult(suite, name, identity, "pass" if ok else "fail", detail,
                       time.perf_counter() - start)


def _nf_keys(sig: Signature, max_degree: int) -> list:
    """Normal-form monomial keys of degree <= max_degree, by degree."""
    return [key for d in range(max_degree + 1) for key in normal_form_keys(sig, d)]


def _bracket_identities(tkk: TKK, pairs):
    """op [X_a, X_b} = op [X_a, X_b] for each basis pair, labelled (a, b)."""
    return (((a, b), a, b, -1 if (tkk.parity(a) and tkk.parity(b)) else 1, tkk.struct[a, b])
            for a, b in pairs)


def action_rows(table, tkk: TKK, sig: Signature, number: Numbering, rate, reduce=None):
    """row(n): the numbered columns of every basis element of tkk on the
    monomial numbered n by number, a list indexed by basis element, through an
    action table (``algebra.table_columns``).  The memo is kept per monomial;
    it holds no reference to a Context and goes with the function."""
    return cache(table_columns(table, tkk, sig, number, rate, reduce))


class _OperatorRow(dict):
    """{descriptor: the numbered column of the ``algebra._OPS`` descriptor at
    rate 0 on the monomial numbered n}, made on the first read of each
    descriptor; the columns of the descriptors whose names are in fresh are
    made on every read and never kept."""

    __slots__ = ("sig", "number", "key", "fresh")

    def __init__(self, sig: Signature, number: Numbering, n: int, fresh):
        super().__init__()
        self.sig, self.number, self.key, self.fresh = sig, number, number.key[n], fresh

    def __missing__(self, op):
        column = numbered(_OPS[op[0]](self.sig, self.key, 0, *op[1:]), self.number)
        if op[0] not in self.fresh:
            self[op] = column
        return column


def _operator_rows(sig: Signature, number: Numbering, fresh=()):
    """row(n): the ``_OperatorRow`` of the monomial numbered n, for the
    commutator loop.  The rows go with the function, so they are dropped with
    the check using it."""
    return cache(lambda n: _OperatorRow(sig, number, n, fresh))


def _operator_loop(sig: Signature, keys, identities, fresh=()):
    """``linalg.commutator_failure`` on the operator rows of keys, in a
    numbering of its own: the first failure as (label, key), or None."""
    number = Numbering()
    bad = commutator_failure(_operator_rows(sig, number, fresh),
                             [number[key] for key in keys], identities)
    return bad and (bad[0], number.key[bad[1]])


# ---------------------------------------------------------------------------
# algebra suite
# ---------------------------------------------------------------------------


def check_sl2_triple(ctx: Context, max_degree: int = 5):
    sig = ctx.sig
    D, E, R = ("Delta",), ("E",), ("R2",)
    bad = _operator_loop(sig, monomials_up_to(sig, max_degree), [
        ("[Delta,R^2]", D, R, 1, {E: 4, ("one",): 2 * sig.M}),
        ("[Delta,E]", D, E, 1, {D: 2}),
        ("[R^2,E]", R, E, 1, {R: -2}),
    ])
    if bad:
        return False, f"{bad[0]} fails on {SuperPolynomial.monomial(sig, bad[1])}"
    return True, f"checked all monomials of degree <= {max_degree}"


def _first_leak(sig: Signature, keys, descriptors, rate):
    """First (key, descriptor), keys outer, for which the ``algebra._OPS``
    operator maps R^2 x^key out of <R^2> at rate, or None."""
    r2 = R2(sig)
    for key in keys:
        shift = r2 * SuperPolynomial.monomial(sig, key)
        for d in descriptors:
            if not ideal_member(apply_op(d, shift, rate)):
                return key, d
    return None


def check_bessel_tangential(ctx: Context, max_degree: int = 4):
    sig = ctx.sig
    bad = _first_leak(sig, monomials_up_to(sig, max_degree - 2),
                      [("bessel", 2 - sig.M, k) for k in range(sig.nvars)], 0)
    if bad:
        key, (_, _, k) = bad
        return False, f"B_(2-M)(x_{k}) leaks on R^2*{SuperPolynomial.monomial(sig, key)}"
    # a counterexample must exist one parameter off
    bad = _first_leak(sig, monomials_up_to(sig, 3),
                      [("bessel", 3 - sig.M, k) for k in range(sig.nvars)], 0)
    if bad:
        key, (_, _, k) = bad
        return True, f"witness at lambda=3-M: k={k}, q={SuperPolynomial.monomial(sig, key)}"
    return False, "no counterexample found at lambda = 3-M"


def check_bessel_product_rule(ctx: Context, max_degree: int = 3):
    """B_i(phi psi) - B_i(phi) psi - s_i (phi B_i(psi) + 2E(phi) d_i(psi)) - d_i(phi) 2E(psi)
    + x_i cross2 as one residue per (phi, psi, i), from the ``algebra._OPS`` closed forms
    at rate 0, read at call time, and term products (``add_term_product``)."""
    sig, nv = ctx.sig, ctx.sig.nvars
    bessel, d_lower, euler = _OPS["bessel"], _OPS["d_lower"], _OPS["E"]
    images = cache(lambda key: [bessel(sig, key, 0, 2 - sig.M, i) for i in range(nv)])
    xs = [mul_key(sig.m, i, ((0,) * sig.m, ()))[1] for i in range(nv)]  # the keys of x_i
    # (phi, 2 E phi, [d_lower(r) phi], [B_i phi]) for each monomial phi
    monos = [(key, {k: 2 * v for k, v in euler(sig, key, 0).items()},
              [d_lower(sig, key, 0, r) for r in range(nv)], images(key))
             for key in monomials_up_to(sig, max_degree)]
    for phi, ephi2, dphi, bphi in monos:
        odd = len(phi[1]) & 1
        for psi, epsi2, dpsi, bpsi in monos:
            # phi psi is a signed monomial or zero, and B_i is linear
            prod = [(images(k), c) for k, c in add_term_product({}, {psi: 1}, phi, 1).items()]
            # twice the index-independent cross term; d_r(phi) d_s(psi) is zero
            # unless x_r divides phi and x_s divides psi
            cross2: dict = {}
            for r, s, b in sig.beta_inv_pairs:
                for k, v in (dphi[r].items() if dpsi[s] else ()):
                    sr = -2 if (odd and sig.parity(r)) else 2
                    add_term_product(cross2, dpsi[s], k, b * sr * v)
            for i in range(nv):
                si = -1 if (sig.parity(i) and odd) else 1
                res = add_term_product({}, cross2, xs[i], 1)
                for bprod, c in prod:
                    for k, v in bprod[i].items():
                        _acc(res, k, c * v)
                for left, right, c in ((bphi[i], {psi: 1}, -1), ({phi: 1}, bpsi[i], -si),
                                       (ephi2, dpsi[i], -si), (dphi[i], epsi2, -1)):
                    for k, v in left.items():
                        add_term_product(res, right, k, c * v)
                if res:
                    phi, psi = (SuperPolynomial.monomial(sig, key) for key in (phi, psi))
                    return False, f"product rule fails: i={i}, phi={phi}, psi={psi}"
    return True, f"all monomial pairs of degree <= {max_degree}"


def check_bessel_supercommute(ctx: Context, max_degree: int = 3):
    sig = ctx.sig
    nv = sig.nvars
    B = [("bessel_mod", i) for i in range(nv)]
    bad = _operator_loop(
        sig, monomials_up_to(sig, max_degree),
        [(f"supercommutativity fails at ({i},{j})", B[j], B[i],
          -1 if (sig.parity(i) and sig.parity(j)) else 1, {})
         for i in range(nv) for j in range(i, nv)])
    if bad:
        return False, f"{bad[0]} on {SuperPolynomial.monomial(sig, bad[1])}"
    return True, ""


def check_bessel_commutator(ctx: Context, max_degree: int = 4):
    sig = ctx.sig
    nv, M, beta = sig.nvars, sig.M, sig.beta
    # L_ii exists for odd i only; the even L_ii term has coefficient 0
    bad = _operator_loop(
        sig, monomials_up_to(sig, max_degree),
        [(f"commutator fails at ({i},{j})", ("bessel", 2 - M, i), ("mul", j),
          -1 if (sig.parity(i) and sig.parity(j)) else 1,
          {("one",): beta[i][j] * (M - 2), ("E",): beta[i][j] * 2,
           ("L", i, j): -2 if (i != j or sig.parity(i)) else 0})
         for i in range(nv) for j in range(nv)])
    if bad:
        return False, f"{bad[0]} on {SuperPolynomial.monomial(sig, bad[1])}"
    return True, ""


def check_angular_commutes(ctx: Context, max_degree: int = 4):
    """[L_ij, R^2] = [L_ij, E] = [L_ij, Delta] = 0 in the commutator loop on the
    operator rows: the columns of R^2, E and Delta, read on keys of degree
    <= max_degree only, memoized for the check; those of L_ij, read about once per
    (operator, monomial) pair, are made on each read and not kept, as a memo of
    them all would hold the L_ij columns of every monomial of degree <= max_degree + 2."""
    sig = ctx.sig
    bad = _operator_loop(
        sig, monomials_up_to(sig, max_degree),
        [(f"[L_{i}{j}, {name}]", ("L", i, j), C, 1, {})
         for i in range(sig.nvars) for j in range(sig.nvars) if i != j or sig.parity(i)
         for name, C in (("R^2", ("R2",)), ("E", ("E",)), ("Delta", ("Delta",)))],
        fresh=("L",))
    if bad:
        return False, f"{bad[0]} fails on {SuperPolynomial.monomial(sig, bad[1])}"
    return True, ""


def check_serialization(ctx: Context):
    polys = ctx.sample_polys(3, 6)
    for p in polys:
        if str(p) != str(SuperPolynomial(p.sig, dict(p.terms))):
            return False, "nondeterministic rendering"
    canon = str(R2(ctx.sig))
    if "*" not in canon:
        return False, canon
    return True, ""


# ---------------------------------------------------------------------------
# quotient suite
# ---------------------------------------------------------------------------


def check_reduce_ring(ctx: Context):
    sig = ctx.sig
    z0 = SuperPolynomial.variable(sig, 0)
    if reduce_poly(z0 * z0) != r2_small(sig):
        return False, "x0^2 does not reduce to r^2"
    if not reduce_poly(R2(sig)).is_zero():
        return False, "R^2 does not reduce to zero"
    for p in ctx.sample_polys(4, 30):
        nf, q = reduce_with_quotient(p)
        if not is_normal_form(nf) or nf + R2(sig) * q != p:
            return False, f"division identity fails on {p}"
        if reduce_poly(nf) != nf:
            return False, f"reduction not idempotent on {p}"
        rp = reduce_poly(p)
        for p2 in ctx.sample_polys(3, 2):
            if reduce_poly(p * p2) != reduce_poly(rp * reduce_poly(p2)):
                return False, "reduction is not multiplicative mod the ideal"
    if not ideal_member(R2(sig) * SuperPolynomial.variable(sig, 1)):
        return False, "membership fails on an obvious multiple"
    if ideal_member(SuperPolynomial.variable(sig, 1)):
        return False, "membership accepts a non-member"
    return True, ""


def check_dimension_chain(ctx: Context, max_degree: int = 5):
    sig, sig_z = ctx.sig, ctx.sig_z
    for k in range(max_degree + 1):
        count = graded_dim_F(k, sig_z)
        closed = dim_P(sig.m - 1, sig.n, k) + dim_P(sig.m - 1, sig.n, k - 1)
        null = len(ctx.harmonic_basis(k, sig))
        formula = dim_harmonic(k, sig)
        if not count == closed == null == formula:
            return False, f"k={k}: count={count} closed={closed} " \
                          f"nullspace={null} formula={formula}"
    return True, f"F_k = P_k + P_(k-1) = H_k for k <= {max_degree}"


# ---------------------------------------------------------------------------
# harmonics suite
# ---------------------------------------------------------------------------


def check_dim_formulas_grid():
    for m in range(2, 8):
        for n in range(3):
            sig = Signature(m, n)
            for k in range(7):
                dim_harmonic(k, sig)  # raises if the two closed forms disagree
    return True, "m <= 7, n <= 2, k <= 6"


def check_harmonic_basis_sizes(ctx: Context, max_degree: int = 4):
    sig = ctx.sig
    for k in range(max_degree + 1):
        basis = ctx.harmonic_basis(k, sig)
        if len(basis) != dim_harmonic(k, sig):
            return False, f"k={k}: basis {len(basis)} != formula {dim_harmonic(k, sig)}"
        for h in basis:
            if not apply_op(("Delta",), h).is_zero():
                return False, f"non-harmonic basis vector at k={k}"
            if apply_op(("E",), h) != h.scale(k):
                return False, f"non-homogeneous basis vector at k={k}"
    return True, ""


def check_fischer(ctx: Context, max_degree: int = 4):
    sig = ctx.sig
    if in_minus_2n(sig.M):
        try:
            fischer_decompose(SuperPolynomial.variable(sig, 1))
        except ValueError:
            return True, "exceptional M: decomposition correctly refused"
        return False, "decomposition did not refuse exceptional M"
    for d in range(max_degree + 1):
        total = sum(dim_harmonic(d - 2 * j, sig) for j in range(d // 2 + 1))
        if total != dim_P(sig.m, sig.n, d):
            return False, f"dimension sum fails at degree {d}"
    for p in ctx.sample_polys(3, 6):
        for d, comp in p.homogeneous_components().items():
            # the parts rebuild comp by construction; test that each is harmonic
            for _, h in fischer_decompose(comp):
                if not apply_op(("Delta",), h).is_zero():
                    return False, f"non-harmonic component at degree {d}"
    return True, ""


def check_generalized(ctx: Context):
    """GSH_k = ker(Delta R^2 Delta) against H_k = ker(Delta) on P_k.  By
    [Delta, R^2] = 4E + 2M, Delta R^(2j) h = 2j(2l + 2j - 2 + M) R^(2j-2) h for
    h in H_l, so GSH_k is larger than H_k only for M in -2N and
    2 - M/2 <= k <= 2 - M.  The check takes k = 2 - M/2 there, else k = 3.
    H_k lies in GSH_k exactly when adding the harmonic basis to the (linearly
    independent) GSH basis leaves the rank at dim GSH_k."""
    sig = ctx.sig
    M = sig.M
    exceptional = in_minus_2n(M)
    k = 2 - M // 2 if exceptional else 3
    gsh = generalized_basis(k, sig)
    hb = ctx.harmonic_basis(k, sig)
    dom = {key: r for r, key in enumerate(monomial_keys(sig, k))}
    rows = [{dom[kk]: c for kk, c in v.terms.items()} for v in gsh + hb]
    if linalg.rank(rows, len(dom)) != len(gsh):
        return False, "harmonics not contained in generalized harmonics"
    if exceptional:
        if len(gsh) <= len(hb):
            return False, "exceptional case: generalized space not strictly larger"
        return True, f"exceptional M: dim GSH_{k}={len(gsh)} > dim H_{k}={len(hb)}"
    return True, f"dim GSH_{k}={len(gsh)}, dim H_{k}={len(hb)}"


# ---------------------------------------------------------------------------
# liealg suite
# ---------------------------------------------------------------------------


def check_jordan(ctx: Context):
    tkk = ctx.tkk
    sig = ctx.sig
    nv = sig.nvars
    # the basis products e_i e_j = L_i e_j, from ``TKK._image``, as sparse int vectors
    table = [[{r: int_or_qqi(v) for r, v in tkk._image(("L", i), j).items()}
              for j in range(nv)] for i in range(nv)]
    if table[0][0] != {0: 1}:
        return False, "unit is not idempotent"
    for i in range(nv):
        if table[0][i] != {i: 1} or table[i][0] != {i: 1}:
            return False, f"unit fails on e_{i}"
    for i in range(nv):
        for j in range(nv):
            s = -1 if (sig.parity(i) and sig.parity(j)) else 1
            if table[i][j] != {r: v * s for r, v in table[j][i].items()}:
                return False, f"supercommutativity fails at ({i},{j})"

    def mul(x, y):
        out = {}
        for i, u in x.items():
            for j, w in y.items():
                for r, v in table[i][j].items():
                    _acc(out, r, u * w * v)
        return out

    # Jordan identity on every basis triple, in lexicographic order: the
    # cyclic sum of the graded commutators [L_a, L_(bc)}, with L_v left
    # multiplication by v, vanishes on every basis vector
    for x, y, z in product(range(nv), repeat=3):
        px, py, pz = (sig.parity(t) for t in (x, y, z))
        terms = [({a: 1}, table[b][c], -1 if (pa and (pb + pc) & 1) else 1,
                  -1 if (pa and pc) else 1)
                 for (a, b, c, pa, pb, pc) in ((x, y, z, px, py, pz),
                                               (y, z, x, py, pz, px),
                                               (z, x, y, pz, px, py))]
        for k in range(nv):
            e, acc = {k: 1}, {}
            for ea, v, s, sgn in terms:
                for r, u in mul(ea, mul(v, e)).items():
                    _acc(acc, r, u * sgn)
                for r, u in mul(v, mul(ea, e)).items():
                    _acc(acc, r, u * (-s * sgn))
            if acc:
                return False, f"Jordan identity fails on basis triple ({x},{y},{z})"
    return True, ""


def check_tkk_axioms(ctx: Context):
    """Antisymmetry compares the numbered columns of the basis brackets, keyed
    by basis element; the Jacobi identity [a,[b,c]] - s[b,[a,c]] = [[a,b],c]
    says that ad is a representation, checked by the commutator loop:
    identity (a, b) on key c."""
    tkk = ctx.tkk
    dim = tkk.dim
    cols = tkk.struct_columns()
    odd = [tkk.parity(a) for a in range(dim)]
    for a in range(dim):
        for b in range(a, dim):  # a failure at (a, b) is one at (b, a) as well
            s = 1 if (odd[a] and odd[b]) else -1  # -(-1)^{|a||b|}
            d, re, im = cols[b, a]
            if cols[a, b] != (d, {k: s * x for k, x in re.items()},
                              {k: s * y for k, y in im.items()}):
                return False, f"antisymmetry fails at ({a},{b})"
    # (pairs, keys): every pair on every key, or one loop per sampled triple
    if dim <= 36:
        runs = [([(a, b) for a in range(dim) for b in range(dim)], range(dim))]
    else:
        rng = ctx.rng
        triples = [(rng.randrange(dim), rng.randrange(dim), rng.randrange(dim))
                   for _ in range(2000)]
        # a triple whose brackets [a,b], [a,c], [b,c] are all zero cannot fail
        runs = [([(a, b)], (c,)) for a, b, c in triples
                if any(cols[pair][1] or cols[pair][2] for pair in ((a, b), (a, c), (b, c)))]
    rows = [[cols[a, c] for a in range(dim)] for c in range(dim)]
    for pairs, keys in runs:
        if bad := commutator_failure(rows.__getitem__, keys, _bracket_identities(tkk, pairs)):
            return False, "Jacobi fails at ({},{},{})".format(*bad[0], bad[1])
    mode = "all" if dim <= 36 else "sampled"
    return True, f"antisymmetry on all pairs; Jacobi on {mode} triples"


def check_cayley(ctx: Context):
    tkk = ctx.tkk
    nv = ctx.sig.nvars
    for l in range(nv):
        if tkk.cayley(tkk.minus(l)) != tkk.minus(l, QQi(1, 0, 4)) + tkk.L(l, I) + tkk.plus(l):
            return False, f"closed form fails on minus e_{l}"
        if tkk.cayley(tkk.L(l)) != tkk.minus(l, I * QQi(1, 0, 4)) + tkk.plus(l, -I):
            return False, f"closed form fails on L_{l}"
        if tkk.cayley(tkk.plus(l)) != tkk.minus(l, QQi(1, 0, 4)) + tkk.L(l, -I) + tkk.plus(l):
            return False, f"closed form fails on plus e_{l}"
    for (i, j) in tkk.inn_pairs:
        if tkk.cayley(tkk.inn(i, j)) != tkk.inn(i, j):
            return False, f"inner derivation not fixed: ({i},{j})"
    # c([X_a, X_b]) - [c X_a, c X_b] as one combination of numbered columns
    cols = tkk.struct_columns()
    images = [numbered(col) for col in tkk._cayley_columns[0]]
    coeffs = [[(k, v.a, v.b, v.d) for k, v in col.items()] for col in tkk._cayley_columns[0]]
    for a, ca in enumerate(coeffs):
        for b, cb in enumerate(coeffs):
            terms = [(v.a, v.b, v.d * images[k][0], images[k][1], images[k][2])
                     for k, v in tkk.struct[a, b].items()]
            terms += [(y1 * y2 - x1 * x2, -x1 * y2 - y1 * x2, d1 * d2 * cols[p, q][0],
                       *cols[p, q][1:]) for p, x1, y1, d1 in ca
                      for q, x2, y2, d2 in cb if cols[p, q][1] or cols[p, q][2]]
            if any(combination(terms)[1:]):
                return False, f"bracket preservation fails at ({a},{b})"
    # image of the compact-side subalgebra lands in the structure algebra
    for x in k_basis(tkk):
        cx = tkk.cayley(x)
        if cx.part("minus") or cx.part("plus"):
            return False, "image of (a, I, -a) has nonzero odd grade"
    return True, "closed forms, bracket preservation, and c(k) in istr"


def check_realization(ctx: Context, max_degree: int = 2):
    tkk = ctx.tkk
    bsig = tkk.big_signature
    number = Numbering()
    keys = [number[key] for key in monomials_up_to(bsig, max_degree)]
    row = action_rows(TKK.realization_table, tkk, bsig, number, 0)
    pairs = [(a, b) for a in range(tkk.dim) for b in range(tkk.dim)]
    if len(pairs) > 900:
        rng = ctx.rng
        pairs = [(rng.randrange(tkk.dim), rng.randrange(tkk.dim)) for _ in range(900)]
    bad = commutator_failure(row, keys, _bracket_identities(tkk, pairs))
    if bad:
        return False, "homomorphism fails at pair ({},{})".format(*bad[0])
    return True, f"{len(pairs)} basis pairs on monomials of degree <= {max_degree}"


def check_osp_matrices(ctx: Context):
    """The matrix of D(X_a) on the big variables, read off D's numbered
    columns on them, preserves the block metric, summed in Gaussian integers;
    and the matrices of every basis pair a <= b satisfy
    [D(X_a), D(X_b)} = D([X_a, X_b]), by the commutator loop on the same rows.
    The metric condition is linear, so a scalar multiple of D(X_a) passes it;
    the bracket condition, quadratic, fails it unless the scalar is 0 or 1.
    The variables are numbered first, so y_u is number u."""
    tkk = ctx.tkk
    bsig = tkk.big_signature
    number = Numbering()
    ys = [number[next(iter(SuperPolynomial.variable(bsig, u).terms))] for u in range(bsig.nvars)]
    row = action_rows(TKK.realization_table, tkk, bsig, number, 0)
    rows = list(map(row, ys))
    metric = [dict(beta_row) for beta_row in bsig.beta_rows]
    for a in range(tkk.dim):
        cols = [r[a] for r in rows]
        for u, beta_row in enumerate(bsig.beta_rows):
            su = -1 if (bsig.parity(u) and tkk.parity(a)) else 1
            # <X y_u, y_v> + su <y_u, X y_v> for every v, as one column over v
            d, re, im = cols[u]
            terms = [(x, 0, d, metric[r], EMPTY) for r, x in re.items()]
            terms += [(0, y, d, metric[r], EMPTY) for r, y in im.items()]
            terms += [(su * b, 0, e, {v: col_re[r]} if r in col_re else EMPTY,
                       {v: col_im[r]} if r in col_im else EMPTY)
                      for r, b in beta_row for v, (e, col_re, col_im) in enumerate(cols)
                      if r in col_re or r in col_im]
            if any(combination(terms)[1:]):
                return False, f"metric not preserved by basis element {a}"
    pairs = [(a, b) for a in range(tkk.dim) for b in range(a, tkk.dim)]
    if bad := commutator_failure(row, ys, _bracket_identities(tkk, pairs)):
        return False, "bracket not preserved at pair ({},{})".format(*bad[0])
    return True, ""


def check_k_subalgebra(ctx: Context):
    """k = so(2) + osp(m|2n) has centre so(2), but at (m, n) = (2, 0) the
    second summand is so(2) too: k is abelian, and its centre has dimension 2."""
    tkk = ctx.tkk
    if not k_closes(tkk):
        return False, "k does not close under the bracket"
    cd = k_center_dimension(tkk)
    want = 2 if (ctx.sig.m, ctx.sig.n) == (2, 0) else 1
    if cd != want:
        return False, f"center of k has dimension {cd}, expected {want}"
    return True, "k closes; one-dimensional center" if want == 1 else "k closes; k is abelian"


def check_struct_export(ctx: Context):
    tkk = ctx.tkk
    a = tkk.structure_constants_json()
    b = tkk.structure_constants_json()
    if a != b:
        return False, "export not deterministic"
    json.loads(a)
    return True, f"{len(a)} bytes"


# ---------------------------------------------------------------------------
# schrodinger suite
# ---------------------------------------------------------------------------


def check_pi_examples(ctx: Context):
    sig = ctx.sig
    tkk = ctx.tkk
    M = sig.M
    one = SuperPolynomial.one(sig)  # the lowest vector
    x0 = SuperPolynomial.variable(sig, 0)
    if pi_apply(tkk.minus(0), one) != x0.scale(-2 * I):
        return False, "multiplication case fails on the lowest vector"
    want = SuperPolynomial.constant(sig, QQi(2 - M, 0, 2)) + x0.scale(2)
    if pi_apply(tkk.L(0), one) != want:
        return False, "Euler case fails on the lowest vector"
    for k in range(1, sig.nvars):
        if pi_apply(tkk.plus(k), one) != SuperPolynomial.variable(sig, k).scale(-2 * I):
            return False, f"Bessel case fails at k={k}"
    got = pi_op(("bessel_mod", 0), one, 4).scale(HALF)
    if got != x0.scale(8) + SuperPolynomial.constant(sig, 4 - 2 * M):
        return False, "halved Bessel operator on the rate-4 vector"
    if pi_op(("E",), one, 2) != x0.scale(-2):
        return False, "Euler operator on the lowest vector"
    return True, ""


def check_pi_representation(ctx: Context, max_degree: int = 2):
    tkk = ctx.tkk
    pairs = [(a, b) for a in range(tkk.dim) for b in range(a, tkk.dim)]
    number = ctx.number[ctx.sig]
    bad = commutator_failure(ctx.pi_row, [number[key] for key in _nf_keys(ctx.sig, max_degree)],
                             _bracket_identities(tkk, pairs))
    if bad:
        (a, b), n = bad
        return False, f"pairs ({a},{b}) on {SuperPolynomial.monomial(ctx.sig, number.key[n])}"
    return True, f"all basis pairs on monomial vectors of degree <= {max_degree}"


def check_representative_independence(ctx: Context, max_degree: int = 2):
    """An operator D is well defined on W = P exp(-2 x_0) / <R^2> when it is
    tangential: D maps R^2 P into <R^2> at rate 2.  D and ``reduce_poly`` are
    linear, so D(q + R^2 p) = D(q) mod <R^2> for every q and every p of degree
    <= max_degree exactly when D(R^2 x^key) lies in <R^2> for every monomial
    x^key of degree <= max_degree of all of P, normal form or not.  The check
    applies each tangential operator to that basis of R^2 P.  Delta is not
    tangential, since it does not commute with R^2 modulo the ideal
    (Delta(R^2) = 2M - 8 x_0 mod <R^2> at rate 2); it is the control, and the
    check fails if Delta(R^2) lies in the ideal."""
    sig = ctx.sig
    descriptors = [("E",), ("L", 0, 1), ("bessel_mod", 0), ("bessel_mod", 1)]
    if sig.nvars >= 3:
        descriptors.insert(2, ("L", 1, 2))
    if sig.n:
        descriptors += [("L", sig.m, sig.m + sig.n), ("bessel_mod", sig.m)]
    bad = _first_leak(sig, monomials_up_to(sig, max_degree), descriptors, 2)
    if bad:
        key, d = bad
        shift = R2(sig) * SuperPolynomial.monomial(sig, key)
        return False, f"{d} depends on the representative: leaks on {shift}"
    if _first_leak(sig, monomials_up_to(sig, 0), [("Delta",)], 2) is None:
        return False, "control: Delta maps R^2 into the ideal"
    return True, ""


def check_radial(ctx: Context):
    """The weight factors that the W-integral multiplies in (``integral.weights``)
    square back at their nilpotents t1 = 1 - theta^2/(2 s^2) and
    t2 = 1 + theta^2/(2 x_0^2): w1^2 = t1^(m-3) (w1^2 t1 = 1 at m = 2) and
    w2^2 t2 = 1; and |X|^2 = u + theta^2/2 (``abs_X``)."""
    sig = ctx.sig
    rest = (0,) * (sig.m - 1)
    one = {((0, 0) + rest, ()): 1}
    t1, t2 = dict(one), dict(one)
    for (_, odd), c in theta2(sig).terms.items():
        t1[((0, -2) + rest, odd)] = -c * HALF
        t2[((-2, 0) + rest, odd)] = c * HALF
    w1, w2 = integral.weights(sig)
    sq1, t1_power = term_product(w1, w1), one
    for _ in range(sig.m - 3):
        t1_power = term_product(t1_power, t1)
    if (sq1 if sig.m > 2 else term_product(sq1, t1)) != t1_power:
        return False, "the weight t1^((m-3)/2) does not square back"
    if term_product(term_product(w2, w2), t2) != one:
        return False, "the weight t2^(-1/2) does not square back"
    # |X|^2 = u + theta^2/2 on the keys ((e,), odd) of c u^(e/2) t^odd
    want = {((2,), ()): QQi(1)}
    want.update({((0,), odd): c * HALF for (_, odd), c in theta2(sig).terms.items()})
    if term_product(abs_X(sig), abs_X(sig)) != want:
        return False, "the radial square root does not square back"
    return True, "" if sig.n else "no odd variables; square expansion only"


# ---------------------------------------------------------------------------
# integral suite
# ---------------------------------------------------------------------------


def check_normalization(ctx: Context):
    sig = ctx.sig
    one = SuperPolynomial.one(sig)
    if integrate_w(one, 4) != QQi(1):
        return False, "normalized integral of the squared lowest vector is not 1"
    n = sig.n
    engine = gamma_engine(sig)
    closed = gamma_closed_form(sig.m, n)
    ratio = engine / closed  # berezin((theta^2)^n), see ``integral``
    if ratio != PiScalar(berezin_theta_power(n)):
        return False, f"engine gamma {engine} vs closed form {closed}: ratio {ratio}"
    detail = f"gamma = {engine}"
    if n:  # (-1)^(n(n-1)/2) 2^n n!, written 2^1 at n = 1
        sign = "-" if berezin_theta_power(n) < 0 else ""
        detail += f" = {sign}2^{n}{f' {n}!' if n > 1 else ''} x closed form {closed}"
    if (sig.m, sig.n) == (4, 0):
        if engine != PiScalar(QQi(1, 0, 4), 2):
            return False, f"(4,0) gamma is {engine}, expected pi/4"
        detail = "gamma = pi/4 (engine and closed form)"
    return True, detail


def check_integral_well_defined(ctx: Context):
    sig = ctx.sig
    for q in ctx.sample_polys(3, 20):
        a = integrate_w(q, 4)
        for p in ctx.sample_polys(3, 2):
            if integrate_w(q + R2(sig) * p, 4) != a:
                return False, f"value moved under R^2 shift of {q}"
    return True, ""


def check_euler_vanishing(ctx: Context):
    sig = ctx.sig
    M = sig.M
    rate = Fraction(4)
    for q in ctx.sample_polys(3, 20):
        if integrate_w(apply_op(("E",), q, rate) + q.scale(M - 2), rate) != QQi(0):
            return False, f"(E + M - 2) integral fails on {q}"
    return True, ""


def check_pi_skew(ctx: Context, max_degree: int = 2):
    tkk = ctx.tkk
    number = ctx.number[ctx.sig]
    keys = _nf_keys(ctx.sig, max_degree)
    wider = _nf_keys(ctx.sig, max_degree + 1)
    # pi raises the degree by at most one: pair degree <= d with degree <= d + 1
    table = pair_table({pair: v for p in keys for q in wider for pair in ((p, q), (q, p))
                        if (v := ctx.w_pair(*pair))}, number)
    odd = {number[p]: len(p[1]) & 1 for p in keys}
    for a in range(tkk.dim):
        pX = tkk.parity(a)
        bad = skew_failure(table, odd, lambda p: ctx.pi_row(p)[a],
                           lambda p: -1 if (pX and odd[p]) else 1)
        if bad:
            f, g = (SuperPolynomial.monomial(ctx.sig, number.key[n]) for n in bad)
            return False, f"{tkk.basis_label(a)} on ({f}, {g})"
    return True, f"every basis element on vectors of degree <= {max_degree}"


def check_form_superhermitian(ctx: Context, max_degree: int = 2):
    keys = _nf_keys(ctx.sig, max_degree)
    for p in keys:
        for q in keys:
            s = QQi(-1 if (len(p[1]) & 1 and len(q[1]) & 1) else 1)
            if ctx.w_pair(p, q) != s * ctx.w_pair(q, p).conjugate():
                f, g = (SuperPolynomial.monomial(ctx.sig, k) for k in (p, q))
                return False, f"({f}, {g})"
    one = SuperPolynomial.one(ctx.sig)
    if w_form(one, one) != QQi(1):
        return False, "lowest vector does not have unit norm"
    return True, ""


def check_integral_primitives(ctx: Context):
    sig = ctx.sig
    area = PiScalar(2, sig.m - 1) / gamma_half(sig.m - 1)
    if sphere_moment((0,) * (sig.m - 1), sig.m) != area:
        return False, "sphere area mismatch"
    if radial_integral(1, Fraction(4)) != Fraction(1, 16):
        return False, "radial integral (1, 4)"
    if radial_integral(0, Fraction(4)) != Fraction(1, 4):
        return False, "radial integral (0, 4)"
    try:
        radial_integral(-1, Fraction(4))
        return False, "negative power did not raise"
    except DivergenceError:
        pass
    if sig.n:
        # the canonical top monomial integrates to +1
        top = SuperPolynomial.one(sig)
        for i in reversed(range(sig.m, sig.nvars)):
            top = top.mul_var(i)
        if berezin(top) != SuperPolynomial.one(sig):
            return False, "Berezin of the canonical top monomial"
        if not berezin(SuperPolynomial.one(sig)).is_zero():
            return False, "Berezin of 1 should vanish"
        if sig.n == 1:
            lone = SuperPolynomial.variable(sig, sig.m + 1)
            if not berezin(lone).is_zero():
                return False, "Berezin below top degree should vanish"
    moment = sphere_moment((1,) + (0,) * (sig.m - 2), sig.m)
    if not moment.is_zero():
        return False, "odd moment should vanish"
    return True, ""


# ---------------------------------------------------------------------------
# fock suite
# ---------------------------------------------------------------------------


def check_bf_products(ctx: Context, max_degree: int = 4):
    sig = ctx.sig_z
    M = sig.M
    z0 = SuperPolynomial.variable(sig, 0)
    if bf_product(SuperPolynomial.one(sig), SuperPolynomial.one(sig)) != QQi(1):
        return False, "<1,1> != 1"
    if bf_product(z0, z0) != QQi(M - 2):
        return False, "<z0,z0> != M-2"
    if sig.n:
        zm = SuperPolynomial.variable(sig, sig.m)
        zmn = SuperPolynomial.variable(sig, sig.m + sig.n)
        if bf_product(zm, zmn) != QQi(2 - M) or bf_product(zmn, zm) != QQi(M - 2):
            return False, "odd-block values"
    covs = [bf_covectors(sig, k) for k in range(max_degree + 1)]
    # orthogonality and superhermitianity from the covectors
    for k, cov in enumerate(covs):
        for ka, vec in cov.items():
            for kb, v in sorted(vec.items()):
                if sum(kb[0]) + len(kb[1]) != k:
                    return False, f"orthogonality fails at ({ka},{kb})"
                s = -1 if (len(ka[1]) & 1 and len(kb[1]) & 1) else 1
                w = cov[kb].get(ka, QQi(0))
                if v != QQi(s) * w.conjugate():
                    return False, f"superhermitianity fails at ({ka},{kb})"
    # sesquilinearity on seeded combinations
    polys = ctx.sample_polys(2, 4, sig)
    for p in polys[:3]:
        for q in polys[:3]:
            a, b = QQi(1, 1, 2), QQi(0, -1)
            lhs = bf_product(p.scale(a), q.scale(b))
            if lhs != a * b.conjugate() * bf_product(p, q):
                return False, "sesquilinearity fails"
    if bad := _shift_identity_failure(sig, covs):
        return False, "shift identity fails: i={}, p={}, q={}".format(*bad)
    return True, f"table over all monomial pairs of degree <= {max_degree}"


def _shift_identity_failure(sig: Signature, covs) -> tuple | None:
    """First (i, p, q), in (degree, p, i, q) order, with
    <z_i z^p, z^q> != (-1)^{|i||p|} <z^p, Bessel(z_i) z^q>, or None; covs[k]
    holds the covectors of degree k (``fock.bf_covectors``).

    Per degree and index i, the images of ``fock.bessel_image`` on the
    monomials q of the degree above are inverted once, into {c: [(q, Bessel
    coefficient)]}; the right side of each p is then summed over the nonzero
    pairings <z^p, z^c> only, and only the q where a side is nonzero are
    compared.  The keys of a degree are sorted, so the least failing q is the
    first in order."""
    for k in range(len(covs) - 1):
        keys = monomial_keys(sig, k + 1)
        inverse: dict = {}  # i -> {c: [(q, coefficient of z^c in Bessel(z_i) z^q)]}
        for p in monomial_keys(sig, k):
            lower = covs[k][p]
            for i in range(sig.nvars):
                if not (t := mul_key(sig.m, i, p)):
                    continue
                zc, zkey = t
                images = inverse.get(i)
                if images is None:
                    images = inverse[i] = {}
                    for q in keys:
                        d, image = bessel_image(sig, i, q)
                        for c, (a, b) in image.items():
                            images.setdefault(c, []).append((q, QQi(a, b, d)))
                s = -1 if (sig.parity(i) and len(p[1]) & 1) else 1
                right: dict = {}
                for c, h in lower.items():
                    for q, v in images.get(c, ()):
                        _acc(right, q, v * h)
                upper = covs[k + 1][zkey]
                bad = [q for q in {**upper, **right}
                       if zc * upper.get(q, ZERO) != s * right.get(q, ZERO)]
                if bad:
                    return i, p, min(bad)
    return None


def check_bf_l_adjoint(ctx: Context, max_degree: int = 4):
    """Adjointness of the angular operators against the product, via sparse
    contractions of the pairing table: the condition <L p, q> = sign <p, L q>
    for all monomials p, q is a pair of scatter sums over nonzero pairings."""
    sig = ctx.sig_z
    number = ctx.number[sig]
    odd = {number[key]: len(key[1]) & 1 for key in monomials_up_to(sig, max_degree)}
    table = ctx.bf_table(max_degree)
    angular = _operator_rows(sig, number, fresh=("L",))
    index_pairs = [(i, j) for i in range(sig.nvars) for j in range(i, sig.nvars)
                   if i != j or sig.parity(i)]
    for (i, j) in index_pairs:
        eps = (sig.parity(i) + sig.parity(j)) & 1
        # L_0j is self-adjoint up to the parity sign, every other L_ij skew
        flip = -1 if i == 0 else 1
        bad = skew_failure(table, odd, lambda p: angular(p)[("L", i, j)],
                           lambda p: -flip if (eps and odd[p]) else flip)
        if bad:
            pq = tuple(number.key[n] for n in bad)
            return False, f"adjointness fails at L({i},{j}) on {pq}"
    return True, f"all angular index pairs on monomials of degree <= {max_degree}"


def check_bf_oracle(ctx: Context, max_degree: int = 3):
    """The memo ``bessel_image`` against a fresh ``op_column`` on every monomial
    of degree <= 2 (what the covectors of degree <= 2 read); the word route
    against the shift-identity route on seeded polynomials, and against the
    covector table on every same-degree monomial pair of degree <= 2."""
    sig = ctx.sig_z
    for key in monomials_up_to(sig, min(max_degree, 2)):
        mono = SuperPolynomial.monomial(sig, key)
        for i in range(sig.nvars):
            if bessel_image(sig, i, key) != op_column(sig, ("bessel_mod", i), key):
                return False, f"memo image of Bessel({i}) on {mono} disagrees with the formula"
    polys = ctx.sample_polys(max_degree, 8, sig)
    for p in polys:
        for q in polys:
            if bf_product(p, q) != bf_product_shift_oracle(p, q):
                return False, f"routes disagree on ({p}, {q})"
    for d in range(min(max_degree, 2) + 1):
        cov = bf_covectors(sig, d)
        for ka in monomial_keys(sig, d):
            for kb in monomial_keys(sig, d):
                word = bf_word_apply(ka, SuperPolynomial.monomial(sig, kb)).constant_term()
                if cov[ka].get(kb, QQi(0)) != word:
                    return False, f"covector table disagrees with the word route on ({ka}, {kb})"
    return True, ""


def check_bf_ideal(ctx: Context, max_degree: int = 2):
    sig = ctx.sig_z
    r2 = R2(sig)
    for p in ctx.sample_polys(max_degree, 6, sig):
        r2p = r2 * p
        for q in ctx.sample_polys(max_degree + 2, 4, sig):
            if bf_product(r2p, q) != QQi(0) or bf_product(q, r2p) != QQi(0):
                return False, f"ideal not annihilated on ({p}, {q})"
    return True, ""


def check_kernel(ctx: Context, max_degree: int = 4):
    sig = ctx.sig_z
    if in_minus_2n(sig.M - 2):
        bad_degree = 2 - sig.M // 2  # first degree whose coefficient divides by zero
        try:
            kernel(bad_degree, sig)
        except ValueError:
            return True, f"degenerate M-2: kernel refused at degree {bad_degree}"
        return False, f"kernel did not refuse degree {bad_degree}"
    sigw = Signature(sig.m, sig.n, varset="w")
    for k in range(max_degree + 1):
        kern = kernel(k, sig, sigw)
        for key in normal_form_keys(sig, k):
            p = SuperPolynomial.monomial(sig, key)
            got = reduce_poly(kernel_pair(p, kern))
            want = reduce_poly(SuperPolynomial(sigw, dict(p.terms)))
            if got != want:
                return False, f"reproducing property fails at k={k} on {p}"
    return True, f"<p, K^k(.,w)> = p(w) mod R^2_w for k <= {max_degree}"


def check_gram(ctx: Context, max_degree: int = 3):
    sig = ctx.sig_z
    degenerate = in_minus_2n(sig.M - 2)
    if not degenerate:
        for k in range(max_degree + 1):
            r = gram_rank(k, sig)
            d = graded_dim_F(k, sig)
            if r != d:
                return False, f"rank {r} != dim {d} at degree {k}"
        return True, f"full rank on F_k for k <= {max_degree}"
    k = 2 - sig.M // 2
    r = gram_rank(k, sig)
    d = graded_dim_F(k, sig)
    if r >= d:
        return False, f"expected singular Gram at degree {k}"
    nulls = gram_nullspace(k, sig)
    if not nulls:
        return False, "no null vector found"
    v = nulls[0]
    for key in normal_form_keys(sig, k):
        if bf_product(SuperPolynomial.monomial(sig, key), v) != QQi(0):
            return False, "claimed null vector is not null"
    for h in ctx.harmonic_basis(k, sig)[:3]:
        hr = reduce_poly(h)
        for key in normal_form_keys(sig, k):
            if bf_product(SuperPolynomial.monomial(sig, key), hr) != QQi(0):
                return False, "harmonic reduction is not in the radical"
    return True, f"degree {k}: rank {r} < dim {d}, certified null vector"


def check_rho_composition(ctx: Context, max_degree: int = 3):
    """By linearity, rho(X_a) z^key = sum_b c(X_a)_b pi_C(X_b) z^key for every
    basis element a and monomial: the unit column of a against the numbered
    column of its Cayley twist (``TKK._cayley_columns``), both keyed by basis
    element, in one ``_column_difference``.  rho and pi_C (``pi_table`` at
    rate 0, memoized for this check only, in the z numbering of the context)
    are action tables filled from the same closed forms and reduced modulo
    R^2."""
    tkk = ctx.tkk
    sig = ctx.sig_z
    number = ctx.number[sig]
    keys = _nf_keys(sig, max_degree)
    pi_c = action_rows(pi_table, tkk, sig, number, 0, nf_terms)
    for a, twist in enumerate(tkk._cayley_columns[0]):
        twist = numbered(twist)
        for key in keys:
            n = number[key]
            if any(_column_difference((1, {a: 1}, EMPTY), ctx.rho_row(n).__getitem__,
                                      twist, pi_c(n).__getitem__)[1:]):
                return False, f"{tkk.basis_label(a)} on {SuperPolynomial.monomial(sig, key)}"
    return True, f"rho agrees with the Cayley twist on F_<= {max_degree}"


def check_rho_representation(ctx: Context, max_degree: int = 3):
    tkk = ctx.tkk
    number = ctx.number[ctx.sig_z]
    keys = [number[key] for key in _nf_keys(ctx.sig_z, max_degree)]
    pairs = [(a, b) for a in range(tkk.dim) for b in range(a, tkk.dim)]
    bad = commutator_failure(ctx.rho_row, keys, _bracket_identities(tkk, pairs))
    if bad:
        (a, b), n = bad
        return False, f"commutator fails at ({a},{b}) on {number.key[n]}"
    return True, f"all basis pairs on F_<= {max_degree}"


def check_rho_ladders(ctx: Context, kmax: int = 5):
    tkk = ctx.tkk
    sig = ctx.sig_z
    M = sig.M
    z0 = SuperPolynomial.variable(sig, 0)
    lower = rho_lowering(tkk)
    raiser = rho_raising(tkk)
    for k in range(kmax + 1):
        zk = reduce_poly(z0 ** k)
        want_low = reduce_poly((z0 ** (k - 1)).scale(I * QQi(k * (M + k - 3)))
                               if k else SuperPolynomial.zero(sig))
        if rho_apply(lower, zk) != want_low:
            return False, f"lowering value fails at k={k}"
        if rho_apply(raiser, zk) != reduce_poly((z0 ** (k + 1)).scale(I)):
            return False, f"raising value fails at k={k}"
    return True, f"ladder action on powers of z0 up to {kmax}"


def check_rho_skew(ctx: Context, max_degree: int = 3):
    """Skew-supersymmetry of the Fock action via sparse contractions of the
    pairing table against the action columns, equivalent to checking every
    pair of normal-form basis vectors of F up to the given degree.

    The check sees an action only through the Bessel-Fischer form, so it
    tests skewness modulo the radical of that form.  At M = 2 the form
    vanishes on degree 1 (``fock/gram-rank`` reports rank 0 there), so an
    error on F_1 goes unseen: doubling the action column of the constant
    monomial passes this check with max_degree 1 at (4,1) and fails it at
    (5,1)."""
    tkk = ctx.tkk
    number = ctx.number[ctx.sig_z]
    odd = {number[key]: len(key[1]) & 1 for key in _nf_keys(ctx.sig_z, max_degree)}
    # rho raises the degree by at most one, but pairings across degrees
    # vanish, so <rho(X) p, q> for p, q of degree <= max_degree reads only
    # pairs of that degree
    table = ctx.bf_table(max_degree)
    for a in range(tkk.dim):
        pX = tkk.parity(a)
        bad = skew_failure(table, odd, lambda p: ctx.rho_row(p)[a],
                           lambda p: -1 if (pX and odd[p]) else 1)
        if bad:
            p, q = map(number.key.__getitem__, bad)
            return False, f"{tkk.basis_label(a)} on ({p},{q})"
    return True, f"every basis element on F_<= {max_degree}"


# ---------------------------------------------------------------------------
# sb suite
# ---------------------------------------------------------------------------


def check_b_series(ctx: Context):
    M = ctx.sig.M
    for alpha in range(3):
        for l in range(1, 9):
            lhs = l * b_series_coeff(M, alpha, l)
            rhs = b_series_coeff(M, alpha + 1, l - 1)
            if lhs != rhs:
                return False, f"derivative relation fails at alpha={alpha}, l={l}"
    return True, "termwise derivative shifts the series index"


def check_b0_identities(ctx: Context, max_degree: int = 6):
    for label, d in b0_identity_failures(ctx.sig, ctx.sig_z, max_degree):
        if d is not None:
            return False, f"{label} fails at degree {d}"
    return True, f"series identities to degree {max_degree}"


def check_exp_identities(ctx: Context, max_degree: int = 6):
    sigz = ctx.sig_z
    M = sigz.M
    L = max_degree + 2
    e = exp_z0_truncation(sigz, L)
    z0 = SuperPolynomial.variable(sigz, 0)
    for k in range(sigz.nvars):
        rhs = e.scale(2 - M) + z0 * e if k == 0 else SuperPolynomial.variable(sigz, k) * e
        diff = apply_op(("bessel_mod", k), e) - rhs  # lowest degree: the first failing one
        d = min((sum(ev) + len(odd) for ev, odd in diff.terms), default=max_degree + 1)
        if d <= max_degree:
            return False, f"index-{k} case fails at degree {d}"
    return True, f"action on the exponential series to degree {max_degree}"


def check_sb_lowest(ctx: Context):
    got = ctx.sb.sb(SuperPolynomial.one(ctx.sig))
    if got != SuperPolynomial.one(ctx.sig_z):
        return False, f"transform of the lowest vector is {got}"
    return True, ""


def _column_difference(first, first_image, second, second_image) -> tuple:
    """sum_k first[k] first_image(k) - sum_k second[k] second_image(k) for
    numbered columns first and second and lookups first_image and
    second_image of numbered columns, as one ``linalg.combination``: zero
    when its parts are empty."""
    terms = []
    for (d, re, im), image, s in ((first, first_image, 1), (second, second_image, -1)):
        for k, x in re.items():
            e, ire, iim = image(k)
            terms.append((s * x, 0, d * e, ire, iim))
        for k, y in im.items():
            e, ire, iim = image(k)
            terms.append((0, s * y, d * e, ire, iim))
    return combination(terms)


def _residue(sig: Signature, column, number: Numbering) -> SuperPolynomial:
    """A numbered column as a polynomial on sig, for a witness."""
    return SuperPolynomial(sig, column_terms(decode(column, number.key)))


def _sb_columns(ctx: Context, inverse: bool):
    """n -> the forward (x to z) or inverse (z to x) SB column of the monomial
    numbered n, renumbered from the ``SBTransform`` memo into the numbering of
    the image's signature; memoized for the check using it."""
    src, dst = (ctx.sig_z, ctx.sig) if inverse else (ctx.sig, ctx.sig_z)
    column = ctx.sb.inverse_column if inverse else ctx.sb.sb_column
    key, number = ctx.number[src].key, ctx.number[dst]
    return cache(lambda n: renumber(column(key[n]), number))


def check_intertwining(ctx: Context, max_degree: int = 2):
    """SB(pi(X_a) x^key) - rho(X_a) SB(x^key) for each basis element a and each
    normal-form key, summed over numbered columns: the pi column at rate 2
    against the forward images (``SBTransform.sb_column``, renumbered), minus
    the rho columns over the image of key."""
    tkk, sb = ctx.tkk, ctx.sb
    number = ctx.number[ctx.sig]
    image = _sb_columns(ctx, False)
    keys = [number[key] for key in _nf_keys(ctx.sig, max_degree)]
    for a in range(tkk.dim):
        for n in keys:
            diff = _column_difference(ctx.pi_row(n)[a], image,
                                      image(n), lambda k: ctx.rho_row(k)[a])
            if any(diff[1:]):
                f = SuperPolynomial.monomial(ctx.sig, number.key[n])
                residue = _residue(ctx.sig_z, diff, ctx.number[ctx.sig_z])
                return False, f"{tkk.basis_label(a)} on {f}: residue {residue}"
    # literal action words of length <= 2 applied to the lowest vector
    rng = random.Random(ctx.cfg.seed + 1)
    for _ in range(12):
        f = SuperPolynomial.one(ctx.sig)
        for _ in range(rng.randrange(3)):
            f = pi_apply(tkk.basis_element(rng.randrange(tkk.dim)), f)
        a = rng.randrange(tkk.dim)
        X = tkk.basis_element(a)
        if not (sb.sb(pi_apply(X, f)) - rho_apply(X, sb.sb(f))).is_zero():
            return False, f"{tkk.basis_label(a)} on a sampled word vector"
    return True, f"every basis element against vectors of degree <= {max_degree}, " \
                 "plus 12 sampled word vectors"


def inverse_depth(M: int, cap: int) -> int:
    """Largest degree (at most cap) at which the inverse pairing is defined:
    (M/2 - 1)_(d+1) vanishes exactly for M - 2 in -2N and d >= 1 - M/2."""
    return min(cap, 1 - M // 2) if in_minus_2n(M - 2) else cap


def check_intertwining_inverse(ctx: Context, max_degree: int = 3):
    """pi(X_a) SBinv(z^key) - SBinv(rho(X_a) z^key) for each basis element a and
    each normal-form key, summed over numbered columns: the pi columns at rate 2
    over the reduced inverse image of key (``SBTransform.inverse_column``,
    renumbered), minus the reduced inverse images over the rho column."""
    tkk = ctx.tkk
    depth = inverse_depth(ctx.cfg.M, max_degree + 1)
    usable = min(max_degree, depth - 1)
    if usable < 0:
        return True, "inverse pairing undefined beyond degree 0; nothing to test"
    number = ctx.number[ctx.sig_z]
    image = _sb_columns(ctx, True)
    keys = [number[key] for key in _nf_keys(ctx.sig_z, usable)]
    for a in range(tkk.dim):
        for n in keys:
            diff = _column_difference(image(n), lambda k: ctx.pi_row(k)[a],
                                      ctx.rho_row(n)[a], image)
            if any(diff[1:]):
                p = SuperPolynomial.monomial(ctx.sig_z, number.key[n])
                residue = _residue(ctx.sig, diff, ctx.number[ctx.sig])
                return False, f"{tkk.basis_label(a)} on {p}: residue {residue}"
    return True, f"every basis element on F_<= {usable}"


def check_unitarity(ctx: Context, max_degree: int = 2):
    keys = _nf_keys(ctx.sig, max_degree)
    fs = ctx.monomials(ctx.sig, max_degree)
    imgs = [ctx.sb.sb(f) for f in fs]
    for p, f, sf in zip(keys, fs, imgs):
        for q, g, sg in zip(keys, fs, imgs):
            if bf_product(sf, sg) != ctx.w_pair(p, q):
                return False, f"forms differ on ({f}, {g})"
    return True, f"pairs over the degree <= {max_degree} spanning set"


def check_round_trips(ctx: Context, max_degree: int = 3):
    sb = ctx.sb
    for f in ctx.monomials(ctx.sig, max_degree):
        if sb.sb_inverse(sb.sb(f)) != f:
            return False, f"W-side round trip fails on {f}"
    for p in ctx.monomials(ctx.sig_z, max_degree):
        if sb.sb(sb.sb_inverse(p)) != reduce_poly(p):
            return False, f"Fock-side round trip fails on {p}"
    return True, f"both round trips on degree <= {max_degree}"


def check_hermite(ctx: Context, max_degree: int = 2):
    sb = ctx.sb
    sig, sigz = ctx.sig, ctx.sig_z
    M = sig.M
    H0 = sb.hermite(((0,) * sig.m, ()))
    if H0 != SuperPolynomial.one(sig):
        return False, "order zero"
    e0 = ((1,) + (0,) * (sig.m - 1), ())
    He0 = sb.hermite(e0)
    if He0 != SuperPolynomial.variable(sig, 0).scale(8) + \
            SuperPolynomial.constant(sig, 4 - 2 * M):
        return False, "unit exponent on x0"
    for k in range(1, sig.nvars):
        key = ((0,) * sig.m, (k,)) if k >= sig.m else \
            (tuple(1 if t == k else 0 for t in range(sig.m)), ())
        Hk = sb.hermite(key)
        if Hk != SuperPolynomial.variable(sig, k).scale(8):
            return False, f"unit exponent on x{k}"
    odd_seen = False
    for d in range(max_degree + 1):
        for key in monomial_keys(sig, d):
            got = sb.sb(sb.hermite(key))  # raises if the two routes disagree
            want = reduce_poly(SuperPolynomial.monomial(sigz, key, QQi(2 ** d)))
            if got != want:
                return False, f"monomial image fails on {key}"
            if key[1]:
                odd_seen = True
    if ctx.sig.n and not odd_seen:
        return False, "no odd exponent was exercised"
    return True, f"dual routes and monomial images for all |alpha| <= {max_degree}"


def check_sb_span(ctx: Context, max_degree: int = 3):
    sig_z = ctx.sig_z
    ranks = {}
    vecs_by_deg: dict[int, list[dict]] = {}
    for f in ctx.monomials(ctx.sig, max_degree):
        img = ctx.sb.sb(f)
        for d, comp in img.homogeneous_components().items():
            vecs_by_deg.setdefault(d, []).append(dict(comp.terms))
    for d, vecs in sorted(vecs_by_deg.items()):
        cols = {key: i for i, key in enumerate(normal_form_keys(sig_z, d))}
        rows = [{cols[k]: v for k, v in vec.items()} for vec in vecs]
        ranks[d] = linalg.rank(rows, len(cols))
    for d in range(max_degree + 1):
        dim_fd = graded_dim_F(d, sig_z)
        r = ranks.get(d, 0)
        if r > dim_fd:
            return False, f"degree {d}: rank {r} exceeds dim F_{d}"
        if d <= 2 and r != dim_fd:
            return False, f"degree {d}: rank {r} < dim F_{d} = {dim_fd}"
    return True, f"image ranks {dict(sorted(ranks.items()))}"


# ---------------------------------------------------------------------------
# specfun suite
# ---------------------------------------------------------------------------


def check_k_exponential():
    """The series ``specfun._ktilde_c`` that ``g2`` reads, not the closed form
    that ``ktilde`` returns at half-integer orders."""
    for t in (0.5, 1.0, 2.0):
        got = specfun._ktilde_c(-0.5, complex(t), 40).real
        want = math.sqrt(math.pi) / 2 * math.exp(-t)
        if abs(got - want) > 1e-12:
            return False, f"t={t}: |{got} - {want}|"
    return True, "half-integer K-value matches the pure exponential"


def check_i_halfinteger():
    for t in (0.5, 1.0, 3.0):
        got = specfun.itilde(0.5, t).value
        want = 2 * math.sinh(t) / (t * math.sqrt(math.pi))
        if abs(got - want) > 1e-12:
            return False, f"t={t}"
    vals = [specfun.itilde(0.0, 0.5 * k).value for k in range(1, 11)]
    if not all(a < b for a, b in zip(vals, vals[1:])):
        return False, "series not monotone on (0,5)"
    return True, ""


def check_laguerre(M: int):
    mu = M - 3
    # 1/Gamma(mu/2 + 1) vanishes at M = 1, -1, -3, ..., and with it the
    # order-zero function, so its ratio at two points means nothing there
    rgamma = specfun._rgamma(mu / 2 + 1)
    for t in (0.8, 1.6):
        got = specfun.laguerre_lambda(0, mu, -1.0, t).value
        want = math.sqrt(math.pi) / 2 * math.exp(-t) * rgamma
        if abs(got - want) > 1e-10:
            return False, f"order-zero value at t={t}"
    if rgamma:
        x0, y0 = 0.7, 1.1
        r = specfun.laguerre_lambda(0, mu, -1.0, 2 * x0).value \
            / specfun.laguerre_lambda(0, mu, -1.0, 2 * y0).value
        if abs(r - math.exp(-2 * (x0 - y0))) > 1e-10:
            return False, "generator ratio is not exponential"
    s, t = 0.1, 1.3
    total = sum(specfun.laguerre_lambda(j, mu, -1.0, t).value * s ** j for j in range(12))
    direct = specfun.g2(mu, -1.0, complex(s), t).real
    if abs(total - direct) > 1e-10:
        return False, "generating-function reconstruction"
    if not rgamma:
        return True, (f"order-zero function vanishes at M = {M} (mu/2 + 1 = {mu // 2 + 1} "
                      "is a pole of Gamma); generator-ratio sub-check needs M - 1 outside -2N")
    return True, ""


def check_truncation_consistency():
    for t in (0.5, 1.0, 2.0):
        if abs(specfun.itilde(0.5, t, 40).value - specfun.itilde(0.5, t, 60).value) > 1e-12:
            return False, f"I-series unstable at t={t}"
        if abs(specfun._ktilde_c(0.5, complex(t), 40).real
               - specfun._ktilde_c(0.5, complex(t), 60).real) > 1e-12:
            return False, f"K-series unstable at t={t}"
    return True, ""


# ---------------------------------------------------------------------------
# the check table and its runner
# ---------------------------------------------------------------------------


def _cap(extra: int, cap: int):
    """The degree budget min(max_degree + extra, cap)."""
    return lambda ctx: min(ctx.cfg.max_degree + extra, cap)


def _max_degree(ctx: Context) -> int:
    return ctx.cfg.max_degree


def _integral_skip(ctx: Context) -> str:
    return "" if ctx.cfg.M >= 4 else f"requires M >= 4, have M = {ctx.cfg.M}"


def _forward_skip(ctx: Context) -> str:
    return "" if ctx.cfg.M >= 4 else f"forward transform needs M >= 4, have {ctx.cfg.M}"


def _series_skip(ctx: Context) -> str:
    if in_minus_2n(ctx.cfg.M - 2):
        return f"kernel series undefined: M - 2 = {ctx.cfg.M - 2} lies in -2N"
    return ""


# Every check, one row each in report order: (suite, name, identity, check,
# degree, skip).  The check runs as check(ctx), or as check(ctx, degree(ctx))
# when degree is not None; when skip is not None and skip(ctx) gives a
# reason, it does not run and that reason is the witness of a skip.
CHECKS = (
    ("algebra", "sl2-triple", "[Delta,R^2]=4E+2M, [Delta,E]=2Delta, [R^2,E]=-2R^2",
     check_sl2_triple, _cap(2, 5), None),
    ("algebra", "bessel-tangentiality", "B_(2-M) preserves <R^2>; B_(3-M) does not",
     check_bessel_tangential, _cap(1, 4), None),
    ("algebra", "bessel-product-rule", "six-term expansion of B(x_i)(phi psi)",
     check_bessel_product_rule, _cap(0, 3), None),
    ("algebra", "bessel-supercommutativity", "B(x_i)B(x_j) = (-1)^{|i||j|} B(x_j)B(x_i)",
     check_bessel_supercommute, _cap(0, 3), None),
    ("algebra", "bessel-commutator", "[B(x_i), x_j] = beta_ij(M-2+2E) - 2L_ij",
     check_bessel_commutator, _cap(0, 3), None),
    ("algebra", "angular-commutant", "L_ij commutes with R^2, E, Delta",
     check_angular_commutes, _cap(1, 4), None),
    ("algebra", "serialization-deterministic", "rendering is deterministic",
     check_serialization, None, None),
    ("quotient", "normal-form-ring", "x0^2 -> r^2 rewriting is an idempotent ring reduction",
     check_reduce_ring, None, None),
    ("quotient", "dimension-chain",
     "dim F_k = dim P_k(m-1|2n) + dim P_(k-1)(m-1|2n) = dim H_k(m|2n)",
     check_dimension_chain, _cap(2, 5), None),
    ("harmonics", "dimension-formulas",
     "dim P_k - dim P_(k-2) = dim P_k(m-1) + dim P_(k-1)(m-1)",
     lambda ctx: check_dim_formulas_grid(), None, None),
    ("harmonics", "nullspace-basis", "harmonic basis = exact kernel of Delta on P_k",
     check_harmonic_basis_sizes, _cap(1, 4), None),
    ("harmonics", "fischer-decomposition", "p = sum_j R^(2j) h_(k-2j) with harmonic components",
     check_fischer, _cap(1, 5), None),
    ("harmonics", "generalized-harmonics",
     "ker(Delta R^2 Delta) contains ker(Delta); strictly larger iff M in -2N",
     check_generalized, None, None),
    ("liealg", "jordan-product", "unit, supercommutativity of the spin-factor product",
     check_jordan, None, None),
    ("liealg", "tkk-axioms", "graded antisymmetry and graded Jacobi identity",
     check_tkk_axioms, None, None),
    ("liealg", "cayley", "c(a,0,0)=(a/4,iL_a,a); c(0,L_a+I,0)=(ia/4,I,-ia); "
     "c(0,0,a)=(a/4,-iL_a,a); c[X,Y]=[cX,cY]", check_cayley, None, None),
    ("liealg", "differential-realization", "[D(X),D(Y)] = D([X,Y]) on low-degree polynomials",
     check_realization, None, None),
    ("liealg", "matrix-model", "<Xu,v> + (-1)^{|u||X|}<u,Xv> = 0 for the block metric",
     check_osp_matrices, None, None),
    ("liealg", "k-subalgebra", "closure of {(x,I,-x)} and its one-dimensional center",
     check_k_subalgebra, None, None),
    ("liealg", "structure-constants-export", "JSON export is valid and deterministic",
     check_struct_export, None, None),
    ("schrodinger", "action-table", "multiplication/Euler/Bessel values on the lowest vector",
     check_pi_examples, None, None),
    ("schrodinger", "representation-property",
     "[pi(X),pi(Y)] = pi([X,Y]) on low-degree vectors",
     check_pi_representation, lambda ctx: 2, None),
    ("schrodinger", "representative-independence",
     "tangential operators ignore R^2 shifts of the representative",
     check_representative_independence, None, None),
    ("schrodinger", "radial-superfunctions",
     "terminating Taylor composition; |X|^2 = (x0^2+r^2)/2", check_radial, None, None),
    ("integral", "normalization", "integral of exp(-4|X|) is 1; gamma matches the closed form "
     "up to the arbitrated 2^n factor", check_normalization, None, _integral_skip),
    ("integral", "well-defined", "value is invariant under adding R^2 p",
     check_integral_well_defined, None, _integral_skip),
    ("integral", "euler-vanishing", "integral of (E + M - 2) f vanishes",
     check_euler_vanishing, None, _integral_skip),
    ("integral", "pi-skew-supersymmetry", "<pi(X)f, g> = -(-1)^{|X||f|} <f, pi(X)g>",
     check_pi_skew, None, _integral_skip),
    ("integral", "superhermitian", "<f,g> = (-1)^{|f||g|} conj <g,f>",
     check_form_superhermitian, None, _integral_skip),
    ("integral", "primitives", "sphere moments, radial integrals, Berezin values",
     check_integral_primitives, None, _integral_skip),
    ("fock", "bessel-fischer-product",
     "<z0,z0>=M-2; orthogonality, superhermitianity, shift identity",
     check_bf_products, _cap(1, 4), None),
    ("fock", "l-adjointness", "<L_ij p, q> = -(-1)^{(|i|+|j|)|p|} <p, L_ij q>",
     check_bf_l_adjoint, _cap(0, 3), None),
    ("fock", "dual-route", "word substitution agrees with the shift-identity recursion",
     check_bf_oracle, _cap(0, 3), None),
    ("fock", "ideal-annihilation", "<R^2 p, q> = 0 = <p, R^2 q>", check_bf_ideal, None, None),
    ("fock", "reproducing-kernel", "<p, K^k(.,w)> = p(w) mod R^2_w",
     check_kernel, _cap(1, 4), None),
    ("fock", "gram-rank", "Gram matrices have full rank iff M-2 avoids -2N",
     check_gram, _cap(0, 3), None),
    ("fock", "cayley-composition", "rho(X) = pi_C(c(X)) as operators on the Fock space",
     check_rho_composition, _max_degree, None),
    ("fock", "rho-representation", "[rho(X),rho(Y)] = rho([X,Y]) on F_<=3",
     check_rho_representation, _max_degree, None),
    ("fock", "rho-ladders", "lowering acts by i k(M+k-3) on powers of z0; raising by i z0",
     check_rho_ladders, None, None),
    ("fock", "rho-skew-supersymmetry", "<rho(X)p, q> = -(-1)^{|X||p|} <p, rho(X)q>",
     check_rho_skew, _max_degree, None),
    ("sb", "series-coefficients", "termwise derivative of the kernel series shifts its order",
     check_b_series, None, _series_skip),
    ("sb", "kernel-series-identities", "derivative/Euler identities for the kernel series; "
     "Bessel eigenfunction property modulo the inert-slot ideal",
     check_b0_identities, lambda ctx: 6 if ctx.sig.nvars <= 7 else 4, _series_skip),
    ("sb", "exponential-identities", "Bessel action on exp(-z0), degreewise",
     check_exp_identities, None, None),
    ("sb", "lowest-vector", "transform of exp(-2|X|) is 1", check_sb_lowest, None, _forward_skip),
    ("sb", "intertwining", "SB(pi(X) f) = rho(X) SB(f)",
     check_intertwining, _cap(0, 2), _forward_skip),
    ("sb", "unitarity", "<SB f, SB g> equals <f, g>", check_unitarity, _cap(0, 2), _forward_skip),
    ("sb", "round-trips", "inverse composes to the identity both ways",
     check_round_trips, _max_degree, _forward_skip),
    ("sb", "hermite", "dual-route Hermite polynomials map to monomials",
     check_hermite, _cap(0, 2), _forward_skip),
    ("sb", "image-span", "transform images fill the graded Fock slices",
     check_sb_span, _max_degree, _forward_skip),
    ("sb", "intertwining-inverse", "pi(X) SBinv = SBinv rho(X) on the degrees where the "
     "inverse pairing is defined", check_intertwining_inverse, _max_degree, None),
    ("specfun", "k-exponential", "Ktilde(-1/2, t) = sqrt(pi)/2 exp(-t) to 1e-12",
     lambda ctx: check_k_exponential(), None, None),
    ("specfun", "i-halfinteger", "Itilde(1/2, t) = 2 sinh(t)/(t sqrt(pi)); monotone growth",
     lambda ctx: check_i_halfinteger(), None, None),
    ("specfun", "laguerre-generator",
     "order-zero Laguerre value is proportional to exp(-t) to 1e-10",
     lambda ctx: check_laguerre(ctx.cfg.M), None, None),
    ("specfun", "truncation", "series values agree at truncation 40 and 60",
     lambda ctx: check_truncation_consistency(), None, None),
)


def run_checks(ctx: Context, suites) -> list[CheckResult]:
    """The rows of CHECKS for each suite in suites, in table order."""
    results = []
    for suite in suites:
        for row_suite, name, identity, check, degree, skip in CHECKS:
            if row_suite != suite:
                continue
            if skip and (reason := skip(ctx)):
                results.append(CheckResult(suite, name, identity, "skip", reason))
                continue
            args = (ctx,) if degree is None else (ctx, degree(ctx))
            results.append(run_check(suite, name, identity, partial(check, *args)))
    return results


def run_suite(cfg: RunConfig) -> list[CheckResult]:
    return run_checks(Context(cfg), cfg.suites)


def report_json(cfg: RunConfig, results: list[CheckResult]) -> str:
    payload = {
        "config": {"m": cfg.m, "n": cfg.n, "max_degree": cfg.max_degree,
                   "seed": cfg.seed, "suites": list(cfg.suites)},
        "checks": [{
            "suite": r.suite,
            "name": r.name,
            "identity": r.identity,
            "status": r.status,
            "witness": r.detail,
            "seconds": round(r.seconds, 4),
        } for r in results],
        "failures": sum(1 for r in results if r.status == "fail"),
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def report_text(cfg: RunConfig, results: list[CheckResult]) -> str:
    lines = [f"configuration m={cfg.m} n={cfg.n} (M={cfg.M}) "
             f"max_degree={cfg.max_degree} seed={cfg.seed}"]
    for r in results:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
        lines.append(f"[{mark}] {r.suite}/{r.name}  ({r.seconds:.2f}s)")
        lines.append(f"       {r.identity}")
        if r.detail:
            lines.append(f"       {r.detail}")
    nfail = sum(1 for r in results if r.status == "fail")
    nskip = sum(1 for r in results if r.status == "skip")
    lines.append(f"{len(results)} checks, {nfail} failures, {nskip} skipped")
    return "\n".join(lines)
