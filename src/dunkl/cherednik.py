"""Rational Cherednik algebra H_{t,c}(V, W) in PBW normal form.

Elements are Scalar-weighted sums of monomials x^a y^b w.  Multiplication
straightens y-powers past x-powers one variable at a time via the Dunkl
commutation formula

    [y, p] = t d_y(p) - sum_{alpha>0} c(alpha) <alpha, y> (p - s_alpha p)/alpha s_alpha

with all divided differences computed by exact polynomial division.  The
straightening of y^b x^a is memoised per algebra; this is the dominant
cost of every downstream suite.  Sums accumulate through
`sparse.add_into`, and `HElement` takes its linear operations from
`sparse.SparseElement`; `HAlgebra.star_key` is the star on one monomial,
shared with the bullet of `hc`.
"""

from __future__ import annotations

from .scalars import Scalar, ScalarField
from .sparse import SparseElement, add_into
from .groups import RootDatum


class DividedDifferenceError(AssertionError):
    """Nonzero remainder in a divided difference: internal inconsistency."""


class HAlgebra:
    """Context: root datum + parameter assignment + straightening memo."""

    def __init__(self, rd: RootDatum, specialize=None):
        self.rd = rd
        self.dim = rd.dim
        self.field = ScalarField(rd.num_orbits)
        F = self.field
        self.s = F.s
        self.t = F.t
        if specialize is not None:
            s_val = specialize.get("s")
            if s_val is not None:
                self.s = F.rational(s_val)
                self.t = self.s * self.s / F.rational(2)
            self.c_orbit = []
            for k in range(rd.num_orbits):
                v = specialize.get(f"c{k + 1}")
                self.c_orbit.append(F.rational(v) if v is not None else F.cs[k])
        else:
            self.c_orbit = list(F.cs)
        # per-root parameter (W-invariant)
        self.c_root = [self.c_orbit[lbl] for lbl in rd.orbit_labels]
        self.zero_exp = (0,) * rd.dim
        self.id_idx = rd.identity_index
        self._elems = rd.elements
        self._mul = rd.mul_table
        self._inv = rd.inv_table
        self._straighten_memo = {}
        self._ycomm_memo = {}

    # -- element constructors -----------------------------------------------
    def zero(self):
        return HElement(self, {})

    def one(self):
        return HElement(self, {(self.zero_exp, self.zero_exp, self.id_idx): self.field.one})

    def x(self, j):
        """x_j, 1-based."""
        e = self._unit_exp(j)
        return HElement(self, {(e, self.zero_exp, self.id_idx): self.field.one})

    def y(self, j):
        e = self._unit_exp(j)
        return HElement(self, {(self.zero_exp, e, self.id_idx): self.field.one})

    def group(self, g_idx):
        return HElement(self, {(self.zero_exp, self.zero_exp, g_idx): self.field.one})

    def scalar(self, sc):
        if not isinstance(sc, Scalar):
            sc = self.field.rational(sc)
        return HElement(self, {(self.zero_exp, self.zero_exp, self.id_idx): sc})

    def monomial(self, xexp, yexp, g_idx, coeff=None):
        coeff = coeff if coeff is not None else self.field.one
        return HElement(self, {(tuple(xexp), tuple(yexp), g_idx): coeff})

    def _unit_exp(self, j):
        if not 1 <= j <= self.dim:
            raise IndexError(f"coordinate index {j} out of range")
        return tuple(1 if k == j - 1 else 0 for k in range(self.dim))

    # -- straightening core --------------------------------------------------
    def ycomm(self, i, cexp):
        """[y_{i+1}, x^cexp] as {(xexp, g_idx): Scalar}; i is 0-based."""
        key = (i, cexp)
        out = self._ycomm_memo.get(key)
        if out is not None:
            return out
        F = self.field
        out = {}
        # t * d_{y_i}(x^c)
        if cexp[i]:
            e = list(cexp)
            e[i] -= 1
            out[(tuple(e), self.id_idx)] = self.t * F.rational(cexp[i])
        # reflection terms
        for r_idx, alpha in enumerate(self.rd.positive_roots):
            ai = alpha[i]
            if not ai:
                continue
            s = self.rd.reflections[r_idx]
            dd = self._divided_difference(cexp, alpha, s)
            if not dd:
                continue
            g = self.rd.reflection_index(r_idx)
            factor = -(self.c_root[r_idx] * F.rational(ai))
            add_into(out, (((e, g), v * factor) for e, v in dd.items()))
        self._ycomm_memo[key] = out
        return out

    def _divided_difference(self, cexp, alpha, s):
        """(x^c - s(x^c)) / alpha as {xexp: Scalar}; exact by construction."""
        F = self.field
        img, sgn = s.apply_exp(cexp)
        if img == cexp:
            if sgn == 1:
                return {}
            num = {cexp: F.rational(2)}
        else:
            num = {cexp: F.one, img: F.rational(-sgn)}
        lin = {self._unit_exp(j + 1): F.rational(a)
               for j, a in enumerate(alpha) if a}
        return _xpoly_divexact(num, lin)

    def straighten(self, yexp, xexp):
        """y^yexp * x^xexp in PBW form: {(xexp', yexp', g_idx): Scalar}."""
        key = (yexp, xexp)
        out = self._straighten_memo.get(key)
        if out is not None:
            return out
        if not any(yexp):
            out = {(xexp, self.zero_exp, self.id_idx): self.field.one}
            self._straighten_memo[key] = out
            return out
        i = next(k for k, v in enumerate(yexp) if v)
        b1 = list(yexp)
        b1[i] -= 1
        b1 = tuple(b1)
        elems = self._elems
        out = {}
        # y^{b1} x^c y_i : push y_i back through the group part
        add_into(out, (((a, _bump(b, elems[g].perm[i]), g),
                        v if elems[g].sign[i] > 0 else -v)
                       for (a, b, g), v in self.straighten(b1, xexp).items()))
        # y^{b1} [y_i, x^c]
        add_into(out, (((a, b, self._mul[g2][g]), u * v)
                       for (gamma, g), u in self.ycomm(i, xexp).items()
                       for (a, b, g2), v in self.straighten(b1, gamma).items()))
        self._straighten_memo[key] = out
        return out

    # -- term-level product (shared with the Clifford tensor layer) ---------
    def term_mul(self, key1, key2):
        """Product of PBW monomials: list of ((xexp, yexp, g_idx), Scalar)."""
        (a, b, w), (c, dd, v) = key1, key2
        ge = self._elems[w]
        c2, sg1 = ge.apply_exp(c)
        d2, sg2 = ge.apply_exp(dd)
        wv = self._mul[w][v]
        sgn = sg1 * sg2
        out = []
        for (al, be, g2), q in self.straighten(b, c2).items():
            ge2 = self._elems[g2]
            d3, sg3 = ge2.apply_exp(d2)
            xk = tuple(p + r for p, r in zip(a, al))
            yk = tuple(p + r for p, r in zip(be, d3))
            coeff = q if sgn * sg3 > 0 else -q
            out.append(((xk, yk, self._mul[g2][wv]), coeff))
        return out

    def star_key(self, a, b, g):
        """The star of the monomial x^a y^b w as (key, sign).

        (x^a y^b w)* = w^-1 x^b y^a = sign * x^a' y^b' w^-1, and key is
        (a', b', index of w^-1).
        """
        gi = self._inv[g]
        ge = self._elems[gi]
        a2, sg1 = ge.apply_exp(b)
        b2, sg2 = ge.apply_exp(a)
        return (a2, b2, gi), sg1 * sg2


def _bump(e, j):
    """The exponent tuple e with slot j raised by one."""
    return e[:j] + (e[j] + 1,) + e[j + 1:]


def _xpoly_divexact(num, lin):
    """Divide an x-polynomial by a linear form, requiring zero remainder."""
    # leading variable of the linear form under lex order
    lead = max(lin)
    lc_inv = lin[lead].inv()
    rem = dict(num)
    quo = {}
    while rem:
        e = max(rem, key=lambda t: (sum(t), t))
        v = rem.pop(e)
        de = tuple(p - q for p, q in zip(e, lead))
        if any(p < 0 for p in de):
            raise DividedDifferenceError("divided difference is not a polynomial")
        # the leading monomial e falls at every step, so de is new to quo
        f = quo[de] = v * lc_inv
        # and the lead term of the linear form cancels e exactly
        add_into(rem, ((tuple(p + q for p, q in zip(de, le)), -(f * lv))
                       for le, lv in lin.items() if le != lead))
    return quo


class HElement(SparseElement):
    """Element of H_{t,c} in PBW normal form x^a y^b w."""

    __slots__ = ()

    def __mul__(self, o):
        self._chk(o)
        term_mul = self.alg.term_mul

        def terms():
            for k1, v1 in self.terms.items():
                for k2, v2 in o.terms.items():
                    v12 = v1 * v2
                    for k, cf in term_mul(k1, k2):
                        yield k, v12 * cf
        return self._new(add_into({}, terms()))

    def star(self):
        """Anti-involution: w -> w^{-1}, x_i <-> y_i, conjugate-linear."""
        star_key = self.alg.star_key

        def term(key, v):
            key, sgn = star_key(*key)
            v = v.conjugate()
            return key, v if sgn > 0 else -v
        return self._new(add_into({}, (term(k, v)
                                       for k, v in self.terms.items())))

    def poly_degree(self):
        """Max total (x,y)-degree over the support; -1 for zero."""
        if not self.terms:
            return -1
        return max(sum(a) + sum(b) for (a, b, _g) in self.terms)

    @staticmethod
    def _term(key, v):
        a, b, g = key
        return (g, a, b), f"({v}) x^{a} y^{b} [w{g}]"


def dunkl_commutator(alg: HAlgebra, j, xexp):
    """[y_j, x^xexp] as an HElement (j is 1-based)."""
    out = {}
    for (e, g), v in alg.ycomm(j - 1, tuple(xexp)).items():
        out[(e, alg.zero_exp, g)] = v
    return HElement(alg, out)


def filtration_check(alg: HAlgebra, xi: HElement, eta: HElement):
    """Leading-term property of the deformed commutator.

    True iff [xi, eta]_c - [xi, eta]_0 has every term of (x,y)-degree at
    most deg(xi) + deg(eta) - 2 and of positive total c-degree.
    """
    m = xi.poly_degree()
    n = eta.poly_degree()
    # the c = 0 commutator is exactly the c-degree-0 part of [xi, eta], so
    # the deformation contribution is the positive-c-degree part
    full = xi.commutator(eta)
    deform = full.map_scalars(lambda sc: sc - _kill_c(sc))
    for (a, b, _g), v in deform.terms.items():
        if sum(a) + sum(b) > m + n - 2:
            return False
        if _min_c_degree(v) < 1:
            return False
    return True


def _c_in_denominator(sc: Scalar) -> bool:
    return any(x < 0 for e in sc.terms for x in e[1:])


def _kill_c(sc: Scalar) -> Scalar:
    """Set every orbit parameter to zero."""
    if _c_in_denominator(sc):
        raise ZeroDivisionError("denominator vanishes at c = 0")
    return Scalar({e: v for e, v in sc.terms.items() if not any(e[1:])},
                  sc.nvars)


def _min_c_degree(sc: Scalar) -> int:
    if _c_in_denominator(sc):
        raise ValueError("denominator involves orbit parameters")
    if not sc.terms:
        return 0
    return min(sum(e[1:]) for e in sc.terms)
