"""Tensor product of the Cherednik algebra with the Clifford algebra.

Elements are sums of PBW monomials x^a y^b w tensored with Clifford basis
elements e_A; the two factors commute.  The Z2-grading used by the graded
bracket is the Clifford parity |A| mod 2.

An element is stored flat, in one sparse level {(a, b, g, mask, e): Coeff}
with e the packed exponent (`scalars.pack`) of a monomial in s, c_1..c_m;
in a rational context every e is 0.  `HCElement(alg, {(a, b, g, mask):
Scalar})` flattens its input and `scalars()` groups the terms back:
Scalar is the type at this boundary, which `str` and `map_scalars` read;
the spinor matrices (`polyspinor`) read the flat terms.

The product and the brackets a b - tau b a are one loop over pairs of
flat terms into `sparse.add_into` (`_pairs`): the product is tau = 0,
which expands `term_mul(k1, k2)` alone; `commutator` is tau = 1,
`anticommutator` tau = -1 and `gbracket` tau = (-1)^{p1 p2} on the
Clifford parities of each pair, forming both halves of a pair at once.
When `term_mul` returns one memoised result in both orders, a bracket
pair cancels if its two Clifford signs, tau included, differ, and is
expanded once with its Coeff doubled if they agree.  An exponent product
is an int add, and a factor 1 or -1 (tested on `Coeff._v`), or a
`term_mul` coefficient that is the field's shared one, makes no field
product; any other `term_mul` coefficient, a Scalar, is read term by
term.  The linear operations (from `sparse.SparseElement`), `scale`,
`bullet` and the parity parts act on the Coeffs directly.

Every basis element (`zero`, `scalar`, `x`, `y`, `group`, `e`, `e_set`)
is written by its key (a, b, g, mask) in `HCAlgebra._basis`.

A coordinate swap tau = (j j+1) that maps the root system R to itself
acts on the flat terms by one key map (`HCAlgebra.swap_map`), with no
product.  It is the isomorphism H_{t,c}(V, W) (x) C(V) -> H_{t,c o
tau^-1}(V, W) (x) C(V) of an isometry of V with tau(R) = R (x_j, y_j and
e_j go to x_{tau j}, y_{tau j}, e_{tau j} and w to tau w tau; H and C(V)
are functorial in (V, W, c), Etingof-Ma, arXiv:1001.0432), followed by
the renaming of the c_k that tau permutes; when tau fixes each c_k this
is an automorphism, and otherwise one that is semilinear over that
renaming, which fixes s and t.

The conjugate-linear anti-involution `bullet` acts as the Cherednik star
(w -> w^{-1}, x_i <-> y_i, `HAlgebra.star_key`) on the first factor and as
e_A -> (-1)^{|A|} reversed(e_A) (`clifford.reversion_sign`) on the second.
"""

from __future__ import annotations

from numbers import Rational

from .scalars import Scalar, mul_coeff, pack, unit_sign, unpack
from .sparse import SparseElement, add_into
from .clifford import mask_str, reversion_sign, sign_mask
from .cherednik import HAlgebra
from .groups import GroupElement
from .pin import PinCover


class HCAlgebra:
    """Context object: Cherednik algebra, Clifford dimension, pin cover."""

    def __init__(self, rd, specialize=None):
        self.rd = rd
        self.dim = rd.dim
        self.h = HAlgebra(rd, specialize=specialize)
        self.field = self.h.field
        self.pin = PinCover(rd)

    # -- constructors --------------------------------------------------------
    def _basis(self, sc, a=None, b=None, g=None, mask=0):
        """sc x^a y^b w_g (x) e_mask, written by its key: an omitted a or b
        is the zero exponent, an omitted g the identity."""
        z = self.h.zero_exp
        return HCElement(self, {(z if a is None else a, z if b is None else b,
                                 self.h.id_idx if g is None else g, mask): sc})

    def zero(self):
        return self._basis(self.field.zero)

    def scalar(self, sc):
        if not isinstance(sc, Scalar):
            sc = self.field.rational(sc)
        return self._basis(sc)

    def x(self, j):
        """x_j, 1-based."""
        return self._basis(self.field.one, a=self.h._unit_exp(j))

    def y(self, j):
        """y_j, 1-based."""
        return self._basis(self.field.one, b=self.h._unit_exp(j))

    def group(self, g_idx):
        return self._basis(self.field.one, g=g_idx)

    def e(self, j):
        """Clifford generator e_j, 1-based."""
        return self.e_set((j,))

    def e_set(self, idxs):
        """Product e_A for a set of 1-based indices, in increasing order."""
        mask = 0
        for j in idxs:
            if not 1 <= j <= self.dim:
                raise IndexError(f"Clifford generator index {j} out of range")
            if mask >> (j - 1):
                raise ValueError(f"Clifford indices {idxs} not increasing")
            mask |= 1 << (j - 1)
        return self._basis(self.field.one, mask=mask)

    def rho(self, pair):
        """Diagonal embedding of a cover element (g, eps): eps * g (x) u(g)."""
        g, eps = pair
        unit = self.pin.lift(g)
        z = self.h.zero_exp
        out = {}
        for m, cf in unit.items():
            if eps < 0:
                cf = -cf
            out[(z, z, g, m)] = Scalar.from_coeff(cf, self.field.nvars)
        return HCElement(self, out)

    def rho_reflection(self, r_idx):
        """rho of the canonical lift of the reflection at positive root r_idx."""
        return self.rho((self.rd.reflection_index(r_idx), 1))

    # -- coordinate swaps ----------------------------------------------------
    def swap_map(self, j, orbits):
        """The key map phi of the coordinate swap tau = (j+1 j+2), j
        0-based, as a map of elements; `orbits` is the swap's permutation
        of the root orbits (`RootDatum.coordinate_swaps`).

        phi swaps slots j and j+1 of a and of b, maps g to tau g tau, swaps
        mask bits j and j+1 (`_swap_bits`) and moves the exponent of c_k to
        c_{orbits[k]}; it makes no product.  A g whose image lies outside W
        maps to None, so that the image equals no element.  Returns None
        when `orbits` sends a c_k to a c_l of another specialisation (one
        symbolic and one a number, or two unequal numbers).
        """
        cs = self.h.c_orbit
        if any(cs[k] != cs[l] and (cs[k].is_constant() or cs[l].is_constant())
               for k, l in enumerate(orbits)):
            return None
        rd = self.rd
        perm = list(range(self.dim))
        perm[j], perm[j + 1] = j + 1, j
        tau = GroupElement(perm, (1,) * self.dim, -1)
        elems = rd.elements
        groups = {}                 # tau g tau, for each g the terms carry

        def conj(g):
            if g not in groups:
                try:
                    groups[g] = rd.index_of(tau * elems[g] * tau)
                except KeyError:    # tau does not normalise W
                    groups[g] = None
            return groups[g]

        nvars = self.field.nvars
        slots = (0, *(k + 1 for k in orbits))
        exps = {}                   # the packed exponents the terms carry

        def exp(e):
            out = exps.get(e)
            if out is None:
                old = unpack(e, nvars)
                new = [0] * nvars
                for k, v in enumerate(old):
                    new[slots[k]] = v
                out = exps[e] = pack(new)
            return out

        def swapped(a):
            return a[:j] + (a[j + 1], a[j]) + a[j + 2:]

        def phi(x):
            out = {}
            for (a, b, g, m, e), c in x.terms.items():
                m, sign = _swap_bits(m, j)
                out[swapped(a), swapped(b), conj(g), m, exp(e)] = (
                    c if sign > 0 else -c)
            return x._new(out)
        return phi


def _swap_bits(m, j):
    """(m', sign) with e_m' sign the image of e_m under e_{j+1} <-> e_{j+2}
    (bits j and j+1): the two generators are adjacent in e_m, so they
    anticommute past each other when both are set."""
    lo, hi = (m >> j) & 1, (m >> (j + 1)) & 1
    if lo == hi:
        return m, -1 if lo else 1
    return m ^ (3 << j), 1


def _expand(res, c, m, e, one):
    """The flat terms of c * res (x) e_m at exponent e, for a `term_mul`
    result res; a coefficient that is the field's `one` makes no product."""
    for (xk, yk, gk), cf in res:
        if cf is one:
            yield (xk, yk, gk, m, e), c
        else:
            for ef, vf in cf.terms.items():
                yield (xk, yk, gk, m, e + ef), mul_coeff(c, vf)


class HCElement(SparseElement):
    """Element of H (x) C(V), built from {(a, b, g, mask): Scalar}."""

    __slots__ = ()

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = {k + (e,): c for k, v in terms.items()
                      for e, c in v.terms.items()}

    def scalars(self):
        """The terms grouped by basis key: {(a, b, g, mask): Scalar}."""
        grouped = {}
        for (a, b, g, m, e), c in self.terms.items():
            grouped.setdefault((a, b, g, m), {})[e] = c
        nvars = self.alg.field.nvars
        return {k: Scalar(v, nvars) for k, v in grouped.items()}

    def __mul__(self, o):
        return self._pairs(o, 0, False)

    def scale(self, sc):
        """Multiply by a scalar; a rational number is embedded through the
        context's `field`."""
        if isinstance(sc, Rational):
            sc = self.alg.field.rational(sc)
        out = {}
        for e2, c2 in sc.terms.items():
            add_into(out, (((a, b, g, m, e + e2), mul_coeff(c, c2))
                           for (a, b, g, m, e), c in self.terms.items()))
        return self._new(out)

    def map_scalars(self, f):
        return HCElement(self.alg, {k: f(v)
                                    for k, v in self.scalars().items()})

    # -- grading -------------------------------------------------------------
    def even_part(self):
        return self._new({k: v for k, v in self.terms.items()
                          if not k[3].bit_count() & 1})

    def odd_part(self):
        return self._new({k: v for k, v in self.terms.items()
                          if k[3].bit_count() & 1})

    # -- the pair loop: product and brackets ---------------------------------
    def commutator(self, o):
        return self._pairs(o, 1, False)

    def anticommutator(self, o):
        return self._pairs(o, -1, False)

    def gbracket(self, o):
        """Graded bracket, pair by pair of terms: a o - (-1)^{p1 p2} o a,
        an anticommutator on odd*odd pairs and a commutator otherwise."""
        return self._pairs(o, 1, True)

    def _pairs(self, o, sign, graded):
        """a o - tau o a for a = self, with tau = `sign`, times (-1)^{p1 p2}
        on each pair's Clifford parities when `graded` is set; tau = 0 is
        the product a o, which expands `term_mul(k1, k2)` alone.

        Both halves of a pair share c1 c2 and the key (m1 ^ m2, e1 + e2).
        Equal `term_mul` results are one object (`HAlgebra._shared`), so
        `is` finds the pairs that cancel or double; a pair of equal PBW
        keys calls `term_mul` once for both orders.
        """
        self._chk(o)
        term_mul = self.alg.h.term_mul
        one = self.alg.field.one
        flip = sign > 0
        right = [((a2, b2, g2), m2, sign_mask(m2),
                  graded and m2.bit_count() & 1, e2, c2, unit_sign(c2))
                 for (a2, b2, g2, m2, e2), c2 in o.terms.items()]

        def terms():
            for (a1, b1, g1, m1, e1), c1 in self.terms.items():
                k1 = (a1, b1, g1)
                p1 = sign_mask(m1)
                q1 = graded and m1.bit_count() & 1
                u1 = unit_sign(c1)
                for k2, m2, p2, q2, e2, c2, u2 in right:
                    neg1 = (p1 & m2).bit_count() & 1
                    r12 = term_mul(k1, k2)
                    r21 = None
                    if sign:
                        # o a carries -tau and the sign of e_m2 e_m1
                        neg2 = flip ^ (p2 & m1).bit_count() & 1 ^ (q1 & q2)
                        r21 = r12 if k1 == k2 else term_mul(k2, k1)
                        if r12 is r21 and neg1 != neg2:
                            continue
                    # c1 * c2, with no field product when either is 1 or -1
                    if u2:
                        c = -c1 if u2 < 0 else c1
                    elif u1:
                        c = -c2 if u1 < 0 else c2
                    else:
                        c = c1 * c2
                    m = m1 ^ m2
                    e = e1 + e2
                    if r12 is r21:
                        c = c + c
                    yield from _expand(r12, -c if neg1 else c, m, e, one)
                    if r21 is not None and r21 is not r12:
                        yield from _expand(r21, -c if neg2 else c, m, e, one)
        return self._new(add_into({}, terms()))

    # -- anti-involution -----------------------------------------------------
    def bullet(self):
        star_key = self.alg.h.star_key

        def term(key, c):
            a, b, g, m, e = key
            (a2, b2, gi), sgn = star_key(a, b, g)
            c = c.conj_i()
            return (a2, b2, gi, m, e), c if sgn * reversion_sign(m) > 0 else -c
        return self._new(add_into({}, (term(k, c)
                                       for k, c in self.terms.items())))

    def __str__(self):
        return self._render(self.scalars())

    __repr__ = __str__

    @staticmethod
    def _term(key, v):
        a, b, g, m = key
        return (m, g, a, b), f"({v}) x^{a} y^{b} [w{g}] {mask_str(m)}"
