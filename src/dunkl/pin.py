"""Double cover of a reflection group inside the Clifford group.

Each reflection s_alpha lifts to the unit vector gamma(alpha/|alpha|) in
C(V); products of these form a group of order 2|W| covering W.  We fix a
canonical lift u(w) for every w (first product found by BFS over the
reflection generators), so the cover is the set of pairs (w, eps) with

    (g, eps) * (h, delta) = (g h, eps delta sigma(g, h)),
    u(g) u(h) = sigma(g, h) u(g h),  sigma(g, h) in {+1, -1}.

theta = (id, -1) is the central element of order two.

Every root has squared norm 1 or 2 and entries in {0, 1, -1}, so every
lift is 2^(-k/2) times an integer combination of basis blades.  A unit
is stored as the pair (k, n): n is a {mask: int} dict, not all of whose
values are even, and the unit is 2^(-k/2) * sum_m n[m] e_m.  A product
adds the k's, multiplies the n's, and halves every value (taking 2 from
k) while k >= 2 and every value is even.  For a unit sum_m n[m]^2 = 2^k,
so k < 2 already forces an odd value, and two units that agree up to
sign have the same k and n up to sign: the cocycle needs only integer
arithmetic.  `PinCover.lift` converts a unit to {mask: Coeff} over
Q(i, sqrt2) for the algebra layers.
"""

from __future__ import annotations

from .scalars import _canon
from .clifford import cunit_mul
from .groups import RootDatum


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


def _unit_mul(u, v):
    """Product of units (k, n), in the canonical form of the module docstring."""
    k = u[0] + v[0]
    n = cunit_mul(u[1], v[1])
    while k >= 2 and all(x % 2 == 0 for x in n.values()):
        n = {m: x // 2 for m, x in n.items()}
        k -= 2
    return k, n


def _generator_unit(alpha, n2):
    """The unit gamma(alpha / |alpha|) of the reflection at root alpha."""
    if n2 not in (1, 2):
        raise ValueError("unexpected root length")
    return n2 - 1, {1 << j: a for j, a in enumerate(alpha) if a}


def _coeff_unit(unit):
    """The unit (k, n) as {mask: Coeff}."""
    k, n = unit
    # 2^(-k/2) is 1 / 2^(k/2) for even k and sqrt2 / 2^((k+1)/2) for odd k
    q = 1 << ((k + 1) // 2)
    if k % 2:
        return {m: _canon(0, 0, x, 0, q) for m, x in n.items()}
    return {m: _canon(x, 0, 0, 0, q) for m, x in n.items()}


class PinCover:
    """Canonical lifts, cocycle and conjugacy structure of the double cover."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.n = len(rd.elements)
        self.id_idx = rd.identity_index
        self._gen_units = [_generator_unit(alpha, n2) for alpha, n2
                           in zip(rd.positive_roots, rd.root_norms_sq)]
        # lifts of the reflection generators: gamma(alpha / |alpha|)
        self.gen_lifts = [_coeff_unit(u) for u in self._gen_units]
        self._units = self._build_units()
        self._lifts = [None] * self.n
        self._sigma_cache = {}
        self._classes = None

    def _build_units(self):
        units = [None] * self.n
        units[self.id_idx] = (0, {0: 1})
        tbl = self.rd.mul_table
        frontier = [self.id_idx]
        while frontier:
            new = []
            for g in frontier:
                ug = units[g]
                for r_idx, gen in enumerate(self._gen_units):
                    h = tbl[g][self.rd.reflection_index(r_idx)]
                    if units[h] is None:
                        units[h] = _unit_mul(ug, gen)
                        new.append(h)
            frontier = new
        assert all(u is not None for u in units)
        return units

    def lift(self, g_idx):
        """Canonical Clifford unit over g, as {mask: Coeff}."""
        u = self._lifts[g_idx]
        if u is None:
            u = self._lifts[g_idx] = _coeff_unit(self._units[g_idx])
        return u

    def parity(self, g_idx):
        """Z2-grading of the lift: 0 for even, 1 for odd."""
        return 0 if self.rd.elements[g_idx].det == 1 else 1

    def sigma(self, g, h):
        """Cocycle sign: u(g) u(h) = sigma(g, h) u(g h)."""
        key = (g, h)
        s = self._sigma_cache.get(key)
        if s is None:
            k, prod = _unit_mul(self._units[g], self._units[h])
            k_gh, n_gh = self._units[self.rd.mul_table[g][h]]
            if k != k_gh:
                raise ValueError("units are not proportional")
            s = unit_ratio_sign(prod, n_gh)
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
