"""Spin-factor Jordan superalgebra and the TKK Lie superalgebra built on it.

The product (a e_0 + u)(b e_0 + v) = (ab + <u,v>) e_0 + a v + b u of the spin
factor J = K e_0 + V is implemented once, as L_a e_b in ``TKK._image``, which
the brackets and ``verify.check_jordan`` read.  The TKK algebra is graded as
(minus copy of J) + istr(J) + (plus copy of J), with istr(J) spanned by left
multiplications L_a and the inner derivations D_ab = [L_a, L_b}.  All
structure constants are computed once, in closed form from the identities
that define the construction: [e_a^+, e_b^-] = 2(L_{e_a e_b} + D_ab),
[L_a, e^+-] = +-(e_a e)^+-, [D, e^+-] = (D e)^+-, and inner derivations act
as derivations of J and of istr(J).  No operator matrix is built and nothing
is solved.  The constants are cached on the :class:`TKK` instance; the
Cayley transform is derived from them and cached per instance too.  The
differential realization D is the action table ``TKK.realization_table`` of
angular operators on the big signature.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache

from . import linalg
from .algebra import Signature
from .scalars import HALF, I, ONE, QQi, _acc, int_column


class TKK:
    """TKK Lie superalgebra of the spin factor, with cached structure constants."""

    def __init__(self, sig: Signature):
        self.sig = sig
        nv = sig.nvars
        self.basis: list[tuple] = []
        self.basis.extend(("minus", l) for l in range(nv))
        self.basis.extend(("L", l) for l in range(nv))
        self.inn_pairs = [(i, j) for i in range(1, nv) for j in range(i + 1, nv)]
        self.inn_pairs += [(i, i) for i in range(sig.m, nv)]
        self.basis.extend(("inn",) + p for p in self.inn_pairs)
        self.basis.extend(("plus", l) for l in range(nv))
        self.index = {d: k for k, d in enumerate(self.basis)}
        self.dim = len(self.basis)

        self.struct: dict[tuple[int, int], dict[int, QQi]] = {}
        for a in range(self.dim):
            for b in range(self.dim):
                self.struct[(a, b)] = self._basis_bracket(a, b)

    # -- structure ---------------------------------------------------------

    def parity(self, idx: int) -> int:
        d = self.basis[idx]
        if d[0] == "inn":
            return (self.sig.parity(d[1]) + self.sig.parity(d[2])) & 1
        return self.sig.parity(d[1])

    def _image(self, desc, k: int) -> dict[int, QQi]:
        """X e_k as {l: coefficient} for X = L_l (e_l e_k) or D_ij = [L_i, L_j}."""
        beta = self.sig.beta
        if desc[0] == "L":
            l = desc[1]
            if l == 0 or k == 0:  # e_0 is the unit
                return {l + k: ONE}
            return {0: beta[l][k]} if beta[l][k] else {}
        # D_ij e_0 = 0 and D_ij e_k = beta_jk e_i - s_ij beta_ik e_j
        _, i, j = desc
        out: dict[int, QQi] = {}
        if not k:
            return out
        if beta[j][k]:
            _acc(out, i, beta[j][k])
        if beta[i][k]:
            _acc(out, j, beta[i][k] if self.sig.parity(i) and self.sig.parity(j)
                 else -beta[i][k])
        return out

    def _add_inn(self, out: dict[int, QQi], i: int, j: int, c: QQi) -> None:
        """Add c D_ij in the basis: D_0j = 0, D_ji = -s_ij D_ij, D_ii = 0 for even i."""
        if i > j:
            i, j = j, i
            if not (self.sig.parity(i) and self.sig.parity(j)):
                c = -c
        idx = self.index.get(("inn", i, j))
        if idx is not None:
            _acc(out, idx, c)

    def _basis_bracket(self, a: int, b: int) -> dict[int, QQi]:
        da, db = self.basis[a], self.basis[b]
        ka, kb = da[0], db[0]
        out: dict[int, QQi] = {}
        if (ka, kb) in (("minus", "minus"), ("plus", "plus")):
            return out
        if ka == "L" and kb == "L":
            self._add_inn(out, da[1], db[1], ONE)
        elif ka == "inn" and kb == "L":
            # [D, L_a} = L_{D e_a}
            for l, v in self._image(da, db[1]).items():
                out[self.index[("L", l)]] = v
        elif ka == "inn" and kb == "inn":
            # [D, D_kl} = D_{D e_k, e_l} + (-1)^{|D||k|} D_{e_k, D e_l}
            _, k, l = db
            for p, v in self._image(da, k).items():
                self._add_inn(out, p, l, v)
            sign = self.parity(a) and self.sig.parity(k)
            for q, v in self._image(da, l).items():
                self._add_inn(out, k, q, -v if sign else v)
        elif ka == "plus" and kb == "minus":
            # [e_a^+, e_b^-] = 2 L_{e_a e_b} + 2 D_ab
            for l, v in self._image(("L", da[1]), db[1]).items():
                out[self.index[("L", l)]] = v + v
            self._add_inn(out, da[1], db[1], QQi(2))
        elif ka in ("L", "inn") and kb in ("minus", "plus"):
            # [L_a, e_b^+-] = +-(e_a e_b)^+- and [D, e_b^+-] = (D e_b)^+-
            neg = ka == "L" and kb == "minus"
            for l, v in self._image(da, db[1]).items():
                out[self.index[(kb, l)]] = -v if neg else v
        else:
            # remaining cases by graded antisymmetry
            sign = -1 if (self.parity(a) and self.parity(b)) else 1
            rev = self.struct.get((b, a))
            if rev is None:
                rev = self._basis_bracket(b, a)
            return {k: (-v if sign > 0 else v) for k, v in rev.items()}
        return dict(sorted(out.items()))

    def struct_columns(self) -> dict:
        """{(a, b): the integer column of [X_a, X_b]}, made from ``struct`` on
        every call: no memo, so that a change to ``struct`` is seen."""
        empty = 1, {}
        return {ab: int_column(st) if st else empty for ab, st in self.struct.items()}

    # -- elements ------------------------------------------------------------

    def element(self, coeffs: dict[int, QQi]) -> "TKKElement":
        return TKKElement(self, {k: QQi.coerce(v) for k, v in coeffs.items()
                                 if not QQi.coerce(v).is_zero()})

    def minus(self, l: int, c=1) -> "TKKElement":
        return self.element({self.index[("minus", l)]: c})

    def plus(self, l: int, c=1) -> "TKKElement":
        return self.element({self.index[("plus", l)]: c})

    def L(self, l: int, c=1) -> "TKKElement":
        return self.element({self.index[("L", l)]: c})

    def inn(self, i: int, j: int, c=1) -> "TKKElement":
        return self.element({self.index[("inn", i, j)]: c})

    def basis_element(self, idx: int) -> "TKKElement":
        return self.element({idx: ONE})

    def bracket(self, x: "TKKElement", y: "TKKElement") -> "TKKElement":
        out: dict[int, QQi] = {}
        for a, ca in x.coeffs.items():
            for b, cb in y.coeffs.items():
                st = self.struct[(a, b)]
                if not st:
                    continue
                cab = ca * cb
                for k, v in st.items():
                    _acc(out, k, cab * v)
        return TKKElement(self, out)

    # -- Cayley transform ------------------------------------------------

    def _ad(self, idx: int, v: dict[int, QQi]) -> dict[int, QQi]:
        """[X_idx, v] for a sparse coordinate vector v, through ``struct``."""
        out: dict[int, QQi] = {}
        for b, c in v.items():
            for k, s in self.struct[(idx, b)].items():
                _acc(out, k, c * s)
        return out

    def _exp_ad(self, idx: int, t: QQi, v: dict[int, QQi]) -> dict[int, QQi]:
        """exp(t ad X_idx) v = v + t [X, v] + t^2/2 [X, [X, v]]; ad X_idx is
        3-step nilpotent for X_idx = e_0^+-, which ``_cayley_columns`` asserts."""
        once = self._ad(idx, v)
        twice = self._ad(idx, once)
        out = dict(v)
        for k, c in once.items():
            _acc(out, k, t * c)
        half_t2 = t * t * HALF
        for k, c in twice.items():
            _acc(out, k, half_t2 * c)
        return out

    @cached_property
    def _cayley_columns(self) -> tuple[list[dict[int, QQi]], list[dict[int, QQi]]]:
        """Sparse images of every basis element under the Cayley transform
        c = exp(i/2 ad e_0^-) exp(i ad e_0^+) and under its inverse
        exp(-i ad e_0^+) exp(-i/2 ad e_0^-)."""
        em, ep = self.index[("minus", 0)], self.index[("plus", 0)]
        units = [{b: ONE} for b in range(self.dim)]
        for idx in (em, ep):
            if any(self._ad(idx, self._ad(idx, self._ad(idx, u))) for u in units):
                raise AssertionError("ad(e_0^+/-) is not 3-step nilpotent")
        c = [dict(sorted(self._exp_ad(em, I * HALF, self._exp_ad(ep, I, u)).items()))
             for u in units]
        cinv = [dict(sorted(self._exp_ad(ep, -I, self._exp_ad(em, -I * HALF, u)).items()))
                for u in units]
        for b, u in enumerate(units):
            if self._apply_columns(c, cinv[b]) != u:
                raise AssertionError(f"Cayley transform not inverted on basis element {b}")
        return c, cinv

    def cayley(self, x: "TKKElement") -> "TKKElement":
        return TKKElement(self, self._apply_columns(self._cayley_columns[0], x.coeffs))

    def cayley_inverse(self, x: "TKKElement") -> "TKKElement":
        return TKKElement(self, self._apply_columns(self._cayley_columns[1], x.coeffs))

    @staticmethod
    def _apply_columns(cols: list[dict[int, QQi]], v: dict[int, QQi]) -> dict[int, QQi]:
        out: dict[int, QQi] = {}
        for b, c in v.items():
            for r, s in cols[b].items():
                _acc(out, r, s * c)
        return out

    # -- differential realization ------------------------------------------

    @cached_property
    def big_signature(self) -> Signature:
        m, n = self.sig.m, self.sig.n
        size = m + 2 + 2 * n
        beta = [[QQi(0)] * size for _ in range(size)]
        beta[0][0] = ONE
        for i in range(1, m):
            beta[i][i] = ONE
        beta[m][m] = QQi(-1)
        beta[m + 1][m + 1] = QQi(-1)
        for i in range(n):
            beta[m + 2 + i][m + 2 + n + i] = QQi(-1)
            beta[m + 2 + n + i][m + 2 + i] = ONE
        return Signature(m + 2, n, varset="y", beta=tuple(tuple(r) for r in beta))

    def _tilde(self, i: int) -> int:
        return i if i < self.sig.m else i + 2

    def realization_table(self, idx: int) -> list[tuple[tuple, QQi]]:
        """The differential realization D of a basis element as
        [(("L", a, b), coefficient)], angular operators on the big algebra."""
        m = self.sig.m
        kind, *rest = self.basis[idx]
        if kind == "minus":
            l = rest[0]
            a = m if l == 0 else self._tilde(l)
            return [(("L", a, m + 1), ONE), (("L", a, 0), ONE)]
        if kind == "plus":
            l = rest[0]
            if l == 0:
                return [(("L", m, m + 1), QQi(-1)), (("L", m, 0), ONE)]
            return [(("L", self._tilde(l), m + 1), ONE), (("L", self._tilde(l), 0), QQi(-1))]
        if kind == "L":
            l = rest[0]
            if l == 0:
                return [(("L", 0, m + 1), ONE)]
            return [(("L", self._tilde(l), m), ONE)]
        i, j = rest
        return [(("L", self._tilde(i), self._tilde(j)), ONE)]

    # -- export ------------------------------------------------------------

    def basis_label(self, idx: int) -> str:
        d = self.basis[idx]
        if d[0] == "inn":
            return f"[L{d[1]},L{d[2]}]"
        if d[0] == "L":
            return f"L{d[1]}"
        return f"e{d[1]}{'-' if d[0] == 'minus' else '+'}"

    def structure_constants_json(self) -> str:
        table = {}
        for (a, b), st in sorted(self.struct.items()):
            if not st:
                continue
            key = f"{self.basis_label(a)} , {self.basis_label(b)}"
            table[key] = {self.basis_label(k): str(v) for k, v in sorted(st.items())}
        return json.dumps(table, indent=1, sort_keys=True)


class TKKElement:
    """Exact coordinate vector over the TKK basis."""

    __slots__ = ("tkk", "coeffs")

    def __init__(self, tkk: TKK, coeffs: dict[int, QQi]):
        self.tkk = tkk
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TKKElement") -> "TKKElement":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            _acc(out, k, v)
        return TKKElement(self.tkk, out)

    def __neg__(self) -> "TKKElement":
        return TKKElement(self.tkk, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "TKKElement") -> "TKKElement":
        return self + (-other)

    def scale(self, c) -> "TKKElement":
        c = QQi.coerce(c)
        if c.is_zero():
            return TKKElement(self.tkk, {})
        return TKKElement(self.tkk, {k: v * c for k, v in self.coeffs.items()})

    def bracket(self, other: "TKKElement") -> "TKKElement":
        return self.tkk.bracket(self, other)

    def part(self, kind: str) -> dict[int, QQi]:
        """Coefficients of the minus/L/inn/plus block, keyed by descriptor tail."""
        out = {}
        for idx, v in self.coeffs.items():
            d = self.tkk.basis[idx]
            if d[0] == kind:
                out[d[1] if len(d) == 2 else (d[1], d[2])] = v
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, TKKElement) and self.tkk is other.tkk \
            and self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({v})*{self.tkk.basis_label(k)}"
                          for k, v in sorted(self.coeffs.items()))

    __repr__ = __str__


@lru_cache(maxsize=None)
def tkk_for(sig: Signature) -> TKK:
    return TKK(sig)


def k_basis(tkk: TKK) -> list[TKKElement]:
    """Basis of the subalgebra {(x, I, -x)}: e_l^- - e_l^+ plus the inner part."""
    out = [tkk.minus(l) - tkk.plus(l) for l in range(tkk.sig.nvars)]
    out.extend(tkk.inn(i, j) for i, j in tkk.inn_pairs)
    return out


def k_closes(tkk: TKK) -> bool:
    """Brackets of k-basis pairs stay inside k: no L-part, minus = -plus."""
    basis = k_basis(tkk)
    for x in basis:
        for y in basis:
            z = tkk.bracket(x, y)
            if z.part("L"):
                return False
            mp = z.part("minus")
            pp = z.part("plus")
            keys = set(mp) | set(pp)
            for l in keys:
                if mp.get(l, QQi(0)) != -pp.get(l, QQi(0)):
                    return False
    return True


def k_center_dimension(tkk: TKK) -> int:
    """Dimension of the center of k, via an exact nullspace."""
    basis = k_basis(tkk)
    rows: dict[tuple[int, int], dict[int, QQi]] = {}
    for j, b in enumerate(basis):
        for c, x in enumerate(basis):
            for k, v in tkk.bracket(b, x).coeffs.items():
                rows.setdefault((j, k), {})[c] = v
    return len(basis) - linalg.rank(list(rows.values()), len(basis))
