"""Tensor product of the Cherednik algebra with the Clifford algebra.

Elements are Scalar-weighted sums of PBW monomials x^a y^b w tensored
with Clifford basis elements e_A; the two factors commute.  The Z2-grading
used by the graded bracket is the Clifford parity |A| mod 2.

The conjugate-linear anti-involution `bullet` acts as the Cherednik star
(w -> w^{-1}, x_i <-> y_i, `HAlgebra.star_key`) on the first factor and as
e_A -> (-1)^{|A|} reversed(e_A) (`clifford.reversion_sign`) on the second.
`HCElement` takes its linear operations from `sparse.SparseElement`, and
its product accumulates through `sparse.add_into`.
"""

from __future__ import annotations

from .scalars import Scalar
from .sparse import SparseElement, add_into
from .clifford import basis_sign, mask_str, reversion_sign
from .cherednik import HAlgebra
from .pin import PinCover


class HCAlgebra:
    """Context object: Cherednik algebra, Clifford dimension, pin cover."""

    def __init__(self, rd, specialize=None):
        self.rd = rd
        self.dim = rd.dim
        self.h = HAlgebra(rd, specialize=specialize)
        self.field = self.h.field
        self.pin = PinCover(rd)
        z = self.h.zero_exp
        self._unit_key = (z, z, self.h.id_idx, 0)

    # -- constructors --------------------------------------------------------
    def zero(self):
        return HCElement(self, {})

    def one(self):
        return HCElement(self, {self._unit_key: self.field.one})

    def scalar(self, sc):
        if not isinstance(sc, Scalar):
            sc = self.field.rational(sc)
        return HCElement(self, {self._unit_key: sc})

    def from_h(self, helem):
        return HCElement(self, {(a, b, g, 0): v
                                for (a, b, g), v in helem.terms.items()})

    def x(self, j):
        return self.from_h(self.h.x(j))

    def y(self, j):
        return self.from_h(self.h.y(j))

    def group(self, g_idx):
        return self.from_h(self.h.group(g_idx))

    def e(self, j):
        """Clifford generator e_j, 1-based."""
        if not 1 <= j <= self.dim:
            raise IndexError(f"Clifford generator index {j} out of range")
        z = self.h.zero_exp
        return HCElement(self, {(z, z, self.h.id_idx, 1 << (j - 1)): self.field.one})

    def e_set(self, idxs):
        """Product e_A for a set of 1-based indices (given in increasing order)."""
        mask = 0
        for j in idxs:
            mask |= 1 << (j - 1)
        z = self.h.zero_exp
        return HCElement(self, {(z, z, self.h.id_idx, mask): self.field.one})

    def clifford_unit(self, unit):
        """Embed a {mask: Coeff} Clifford unit."""
        z = self.h.zero_exp
        return HCElement(self, {
            (z, z, self.h.id_idx, m): Scalar.from_coeff(cf, self.field.nvars)
            for m, cf in unit.items()})

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


class HCElement(SparseElement):
    __slots__ = ()

    def __mul__(self, o):
        self._chk(o)
        term_mul = self.alg.h.term_mul

        def terms():
            for (a1, b1, g1, m1), v1 in self.terms.items():
                for (a2, b2, g2, m2), v2 in o.terms.items():
                    v12 = v1 * v2
                    m = m1 ^ m2
                    if basis_sign(m1, m2) < 0:
                        v12 = -v12
                    for (xk, yk, gk), cf in term_mul((a1, b1, g1),
                                                     (a2, b2, g2)):
                        yield (xk, yk, gk, m), v12 * cf
        return self._new(add_into({}, terms()))

    # -- grading -------------------------------------------------------------
    def parity(self):
        """Clifford Z2-degree if homogeneous, else None (0 for zero)."""
        ps = {bin(m).count("1") % 2 for (_a, _b, _g, m) in self.terms}
        if not ps:
            return 0
        return ps.pop() if len(ps) == 1 else None

    def even_part(self):
        return self._new({k: v for k, v in self.terms.items()
                          if bin(k[3]).count("1") % 2 == 0})

    def odd_part(self):
        return self._new({k: v for k, v in self.terms.items()
                          if bin(k[3]).count("1") % 2 == 1})

    # -- brackets ------------------------------------------------------------
    def gbracket(self, o):
        """Graded bracket: anticommutator on odd*odd, commutator otherwise."""
        out = self.alg.zero()
        for p1, a in ((0, self.even_part()), (1, self.odd_part())):
            if a.is_zero():
                continue
            for p2, b in ((0, o.even_part()), (1, o.odd_part())):
                if b.is_zero():
                    continue
                out = out + (a.anticommutator(b) if p1 and p2
                             else a.commutator(b))
        return out

    # -- anti-involution -----------------------------------------------------
    def bullet(self):
        star_key = self.alg.h.star_key

        def term(key, v):
            a, b, g, m = key
            (a2, b2, gi), sgn = star_key(a, b, g)
            v = v.conjugate()
            return (a2, b2, gi, m), v if sgn * reversion_sign(m) > 0 else -v
        return self._new(add_into({}, (term(k, v)
                                       for k, v in self.terms.items())))

    @staticmethod
    def _term(key, v):
        a, b, g, m = key
        return (m, g, a, b), f"({v}) x^{a} y^{b} [w{g}] {mask_str(m)}"
