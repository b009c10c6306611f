"""Double cover of a reflection group inside the Clifford group.

Each reflection s_alpha lifts to the unit vector gamma(alpha/|alpha|) in
C(V); products of these form a group of order 2|W| covering W.  We fix a
canonical lift u(w) for every w (first product found by BFS over the
reflection generators), so the cover is the set of pairs (w, eps) with

    (g, eps) * (h, delta) = (g h, eps delta sigma(g, h)),
    u(g) u(h) = sigma(g, h) u(g h),  sigma(g, h) in {+1, -1}.

theta = (id, -1) is the central element of order two.  Clifford units are
stored as {mask: Coeff} dicts over Q(i, sqrt2): no symbolic variables are
needed at this level, which keeps cover computations fast.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Coeff, C_ONE
from .clifford import basis_sign
from .groups import RootDatum

_HALF_R = Coeff(0, 0, Fraction(1, 2))   # 1/sqrt2 = r/2
_MINUS_ONE = Coeff(-1)


def cunit_mul(u, v):
    """Product of Clifford elements given as {mask: Coeff}."""
    out = {}
    for ma, va in u.items():
        for mb, vb in v.items():
            m = ma ^ mb
            w = va * vb
            if basis_sign(ma, mb) < 0:
                w = -w
            acc = out.get(m)
            acc = w if acc is None else acc + w
            if acc.is_zero():
                out.pop(m, None)
            else:
                out[m] = acc
    return out


def unit_ratio_sign(u, v):
    """Sign eps with u = eps * v for units known to be proportional."""
    if set(u) != set(v):
        raise ValueError("units are not proportional")
    eps = None
    for m, a in u.items():
        b = v[m]
        if a == b:
            s = 1
        elif a == -b:
            s = -1
        else:
            raise ValueError("units are not proportional by a sign")
        if eps is None:
            eps = s
        elif eps != s:
            raise ValueError("inconsistent proportionality sign")
    return eps


class PinCover:
    """Canonical lifts, cocycle and conjugacy structure of the double cover."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.n = len(rd.elements)
        self.id_idx = rd.identity_index
        # lifts of the reflection generators: gamma(alpha / |alpha|)
        self.gen_lifts = []
        for alpha, n2 in zip(rd.positive_roots, rd.root_norms_sq):
            if n2 == 1:
                (j,) = [k for k, a in enumerate(alpha) if a]
                self.gen_lifts.append({1 << j: Coeff(alpha[j])})
            elif n2 == 2:
                u = {}
                for k, a in enumerate(alpha):
                    if a:
                        u[1 << k] = _HALF_R if a > 0 else -_HALF_R
                self.gen_lifts.append(u)
            else:
                raise ValueError("unexpected root length")
        self._lifts = self._build_lifts()
        self._sigma_cache = {}
        self._classes = None

    def _build_lifts(self):
        lifts = [None] * self.n
        lifts[self.id_idx] = {0: C_ONE}
        tbl = self.rd.mul_table
        frontier = [self.id_idx]
        while frontier:
            new = []
            for g in frontier:
                ug = lifts[g]
                for r_idx in range(len(self.gen_lifts)):
                    h = tbl[g][self.rd.reflection_index(r_idx)]
                    if lifts[h] is None:
                        lifts[h] = cunit_mul(ug, self.gen_lifts[r_idx])
                        new.append(h)
            frontier = new
        assert all(u is not None for u in lifts)
        return lifts

    def lift(self, g_idx):
        """Canonical Clifford unit over g, as {mask: Coeff}."""
        return self._lifts[g_idx]

    def parity(self, g_idx):
        """Z2-grading of the lift: 0 for even, 1 for odd."""
        return 0 if self.rd.elements[g_idx].det == 1 else 1

    def sigma(self, g, h):
        """Cocycle sign: u(g) u(h) = sigma(g, h) u(g h)."""
        key = (g, h)
        s = self._sigma_cache.get(key)
        if s is None:
            prod = cunit_mul(self._lifts[g], self._lifts[h])
            s = unit_ratio_sign(prod, self._lifts[self.rd.mul_table[g][h]])
            self._sigma_cache[key] = s
        return s

    # -- group structure on pairs (g_idx, eps) ------------------------------
    @property
    def identity(self):
        return (self.id_idx, 1)

    @property
    def theta(self):
        return (self.id_idx, -1)

    def mul(self, a, b):
        (g, e1), (h, e2) = a, b
        return (self.rd.mul_table[g][h], e1 * e2 * self.sigma(g, h))

    def inv(self, a):
        g, e = a
        gi = self.rd.inv_table[g]
        return (gi, e * self.sigma(g, gi))

    def elements(self):
        return [(g, e) for g in range(self.n) for e in (1, -1)]

    def conj(self, w, a):
        """w a w^{-1} for pairs."""
        return self.mul(self.mul(w, a), self.inv(w))

    def conj_sign(self, w_idx, g_idx):
        """Sign eps with u(w) u(g) u(w)^{-1} = eps * u(w g w^{-1})."""
        tbl = self.rd.mul_table
        inv = self.rd.inv_table
        wi = inv[w_idx]
        # sigma(w, g) * sigma(wg, w^{-1}) * sigma(w, w^{-1})^{-1}
        return (self.sigma(w_idx, g_idx)
                * self.sigma(tbl[w_idx][g_idx], wi)
                * self.sigma(w_idx, wi))

    # -- conjugacy classes of the cover --------------------------------------
    def cover_classes(self):
        """Conjugacy classes of the double cover as lists of pairs."""
        if self._classes is not None:
            return self._classes
        inv = self.rd.inv_table
        tbl = self.rd.mul_table
        assigned = {}
        classes = []
        for g in range(self.n):
            for e in (1, -1):
                a = (g, e)
                if a in assigned:
                    continue
                orbit = set()
                for w in range(self.n):
                    h = tbl[tbl[w][g]][inv[w]]
                    orbit.add((h, e * self.conj_sign(w, g)))
                # theta is central: conjugating by (w, -1) gives the same set
                cls = sorted(orbit)
                for b in cls:
                    assigned[b] = len(classes)
                classes.append(cls)
        self._classes = classes
        return classes

    def class_splits(self, g_idx):
        """True iff the two lifts of the W-class of g lie in distinct classes."""
        self.cover_classes()
        cls_of = {}
        for ci, cls in enumerate(self._classes):
            for b in cls:
                cls_of[b] = ci
        return cls_of[(g_idx, 1)] != cls_of[(g_idx, -1)]

    def split_class_report(self):
        """One entry per W-conjugacy class: (rep_idx, label, parity, splits)."""
        out = []
        for cls in self.rd.conjugacy_classes():
            rep = cls[0]
            out.append({
                "rep": rep,
                "label": self.rd.cycle_type_label(self.rd.elements[rep]),
                "parity": self.parity(rep),
                "size": len(cls),
                "splits": self.class_splits(rep),
            })
        return out
