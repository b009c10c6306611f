"""Rational Cherednik algebra H_{t,c}(V, W) in PBW normal form.

Elements are Scalar-weighted sums of monomials x^a y^b w.  Multiplication
straightens y-powers past x-powers one variable at a time via the Dunkl
commutation formula

    [y, p] = t d_y(p) - sum_{alpha>0} c(alpha) <alpha, y> (p - s_alpha p)/alpha s_alpha

with each divided difference (p - s_alpha p)/alpha of a monomial p taken
in closed form: every root of A, B, D and A1^n is a e_i + b e_j or a e_i
with a, b = +-1, and the quotient is a geometric sum of monomials in x_i
and x_j (`HAlgebra._divided_difference`).  It depends on no parameter, so
it is computed over Coeff, and each of its coefficients is a unit u =
+-1 or +-2.  On a memo miss, `ycomm` builds each reflection term's
Scalar -c_alpha alpha_i u and each t-term t k by scaling the numerators
of c_alpha or t by the int, with no Scalar or field product; a c_alpha
specialised to 0 gives no term.  The straightening of y^b x^a is
memoised per algebra, and so is the product of each pair of PBW
monomials (`term_mul`): the H and H (x) C products meet the same pair
many times over, and each is multiplied once.  `term_mul` keeps one memo
row per left monomial, keyed by the right one.

Every memoised value and key is hash-consed (Filliatre and Conchon,
"Type-safe modular hash-consing", 2006) through one per-algebra table,
`_shared`: the ycomm and straightening Scalars, each `term_mul`
coefficient, term and whole result, each value of the spinor word memo
of `polyspinor`, each PBW key (a, b, g) and ycomm key (e, g) a memo
stores, and every exponent tuple in them or in a memo's own key are one
object per distinct value, so the memos hold few objects (a few dozen
values, met thousands of times), and equal `term_mul` results are found
by `is` (see `hc`).  Tuples, Scalars and Coeffs share the table, as no
two of these types compare equal.  A key is interned where a memo stores
it, on a miss; a lookup takes any equal tuple.  The table is seeded with
the field's `one`, so a coefficient equal to 1 is that very object, and
the H and H (x) C products skip their scalar product for it by identity.
Sums accumulate through `sparse.add_into`, and `HElement` takes its
linear operations from `sparse.SparseElement`; `HAlgebra.star_key` is
the star on one monomial, shared with the bullet of `hc`.  The one H
constructor is `HAlgebra.monomial`; the suites build every other basis
element in H (x) C, through `hc.HCAlgebra`.
"""

from __future__ import annotations

from .scalars import Coeff, C_ONE, Scalar, ScalarField, mul_int, unpack
from .sparse import SparseElement, add_into
from .groups import RootDatum


class DividedDifferenceError(AssertionError):
    """A root outside the shapes +-e_i and +-e_i +- e_j, whose divided
    difference has no closed form here."""


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
        # per coordinate i: (r, alpha, s_alpha, its index) for each
        # positive root r with alpha_i != 0
        self._roots_at = [
            tuple((r, alpha, s, rd.reflection_index(r))
                  for r, (alpha, s) in enumerate(zip(rd.positive_roots,
                                                     rd.reflections))
                  if alpha[i])
            for i in range(rd.dim)]
        self._term_memo = {}
        # one object per memoised value and key; `one` is the field's own,
        # which the H (x) C product tests by identity
        self._shared = {F.one: F.one, self.zero_exp: self.zero_exp}

    @property
    def rational(self):
        """True when s and every c_k are rational constants."""
        return self.s.is_constant() and all(c.is_constant()
                                            for c in self.c_orbit)

    # -- element constructors -----------------------------------------------
    def monomial(self, xexp, yexp, g_idx):
        key = (tuple(xexp), tuple(yexp), g_idx)
        return HElement(self, {key: self.field.one})

    def _unit_exp(self, j):
        if not 1 <= j <= self.dim:
            raise IndexError(f"coordinate index {j} out of range")
        return tuple(1 if k == j - 1 else 0 for k in range(self.dim))

    # -- straightening core --------------------------------------------------
    def ycomm(self, i, cexp):
        """[y_{i+1}, x^cexp] as {(xexp, g_idx): Scalar}; i is 0-based."""
        out = self._ycomm_memo.get((i, cexp))
        if out is not None:
            return out
        out = {}
        # t * d_{y_i}(x^c)
        k = cexp[i]
        if k:
            t_k = self._scaled(self.t, Coeff(k))
            out[(_bump(cexp, i, -1), self.id_idx)] = t_k
        # reflection terms -c_alpha alpha_i u, u a divided-difference
        # unit; `add_into` drops them all when c_alpha is specialised to 0
        for r, alpha, s, g in self._roots_at[i]:
            c, sign = self.c_root[r], alpha[i]
            add_into(out, (((e, g), self._scaled(c, -u if sign > 0 else u))
                           for e, u in self._divided_difference(
                               cexp, alpha, s).items()))
        intern, share = self._interned, self._shared.setdefault
        out = {intern(e, g): share(v, v) for (e, g), v in out.items()}
        self._ycomm_memo[i, share(cexp, cexp)] = out
        return out

    def _scaled(self, sc, cf):
        """The Scalar sc cf for an integer Coeff cf, with no Scalar or
        field product (`scalars.mul_int`)."""
        return Scalar({e: mul_int(v, cf) for e, v in sc.terms.items()},
                      self.field.nvars)

    def _divided_difference(self, cexp, alpha, s):
        """(x^c - s(x^c)) / alpha as {xexp: Coeff}, in closed form.

        For alpha = a e_i: 2a x^(c - e_i) when c_i is odd, else 0.  For
        alpha = a e_i + b e_j (i < j), s maps x_i to sigma x_j and x_j to
        sigma x_i with sigma = -ab; with p = c_i, q = c_j, n = |p - q|
        and m = min(p, q) the quotient is

            eps * sum_{k < n} sigma^k x_i^(m+n-1-k) x_j^(m+k)

        (the other slots of c unchanged), eps = a if p >= q and
        -a sigma^n otherwise.  Its terms come in descending lex order.
        Any other root raises DividedDifferenceError.
        """
        nz = [j for j, a in enumerate(alpha) if a]
        if not 0 < len(nz) <= 2 or any(alpha[j] not in (1, -1) for j in nz):
            raise DividedDifferenceError(
                f"root {alpha} is not +-e_i or +-e_i +- e_j")
        i = nz[0]
        a = alpha[i]
        p = cexp[i]
        if len(nz) == 1:
            return {_bump(cexp, i, -1): Coeff(2 * a)} if p % 2 else {}
        j = nz[1]
        sigma = s.sign[i]
        q = cexp[j]
        n = abs(p - q)
        m = min(p, q)
        # -a sigma^n is a exactly when sigma = -1 and n is odd
        eps = a if p >= q or (sigma < 0 and n % 2) else -a
        e = list(cexp)
        out = {}
        for k in range(n):
            e[i] = m + n - 1 - k
            e[j] = m + k
            out[tuple(e)] = _UNIT[eps]
            eps *= sigma
        return out

    def straighten(self, yexp, xexp):
        """y^yexp * x^xexp in PBW form: {(xexp', yexp', g_idx): Scalar}."""
        out = self._straighten_memo.get((yexp, xexp))
        if out is not None:
            return out
        share = self._shared.setdefault
        yexp, xexp = share(yexp, yexp), share(xexp, xexp)
        if not any(yexp):
            out = {self._interned(xexp, self.zero_exp, self.id_idx):
                   self.field.one}
            self._straighten_memo[yexp, xexp] = out
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
        intern = self._interned
        out = {intern(*k): share(v, v) for k, v in out.items()}
        self._straighten_memo[yexp, xexp] = out
        return out

    # -- term-level product (shared with the Clifford tensor layer) ---------
    def term_mul(self, key1, key2):
        """Product of PBW monomials: tuple of ((xexp, yexp, g_idx), Scalar).

        Memoised per algebra in one row per left key, {key1: {key2:
        result}}, so no pair key is built.  A repeated pair returns the
        same tuple, which callers only iterate.  Equal row keys, result
        keys and terms, negated coefficients and whole results are each
        stored once (`_shared`).
        """
        row = self._term_memo.get(key1)
        if row is None:
            row = self._term_memo[self._interned(*key1)] = {}
        out = row.get(key2)
        if out is not None:
            return out
        share = self._shared.setdefault
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
            if sgn * sg3 < 0:
                q = -q
                q = share(q, q)
            term = (self._interned(xk, yk, self._mul[g2][wv]), q)
            out.append(share(term, term))
        out = tuple(out)
        out = row[self._interned(*key2)] = share(out, out)
        return out

    def _interned(self, *key):
        """The shared key (e_1, .., e_k, g), whose exponent tuples e_j are
        shared too: one object per value in `_shared`."""
        shared = self._shared
        out = shared.get(key)
        if out is None:
            *exps, g = key
            out = (*[shared.setdefault(e, e) for e in exps], g)
            shared[out] = out
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


def _bump(e, j, by=1):
    """The exponent tuple e with slot j raised by `by`."""
    return e[:j] + (e[j] + by,) + e[j + 1:]


# the Coeffs 1 and -1, by their sign
_UNIT = {1: C_ONE, -1: Coeff(-1)}


class HElement(SparseElement):
    """Element of H_{t,c} in PBW normal form x^a y^b w."""

    __slots__ = ()

    def __mul__(self, o):
        self._chk(o)
        term_mul = self.alg.term_mul
        one = self.alg.field.one

        def terms():
            for k1, v1 in self.terms.items():
                for k2, v2 in o.terms.items():
                    v12 = v1 * v2
                    for k, cf in term_mul(k1, k2):
                        yield k, v12 if cf is one else v12 * cf
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

    True iff every term of [xi, eta] whose scalar has a monomial in the
    orbit parameters c has (x,y)-degree at most deg(xi) + deg(eta) - 2:
    the c = 0 commutator is exactly the c-free part, so these terms are
    [xi, eta]_c - [xi, eta]_0.  A c in a denominator raises
    ZeroDivisionError, since c = 0 is then no specialisation.
    """
    bound = xi.poly_degree() + eta.poly_degree() - 2
    ok = True
    for (a, b, _g), v in xi.commutator(eta).terms.items():
        for e in v.terms:
            cexp = unpack(e, v.nvars)[1:]
            if any(x < 0 for x in cexp):
                raise ZeroDivisionError("denominator vanishes at c = 0")
            if any(cexp) and sum(a) + sum(b) > bound:
                ok = False
    return ok
