"""Double cover of a reflection group inside the Clifford group.

Each reflection s_alpha lifts to the unit vector gamma(alpha/|alpha|) in
C(V); products of these form a group of order 2|W| covering W.  We fix a
canonical lift u(w) for every w along the group's breadth-first tree
`RootDatum.parents`: u(identity) = 1 and u(h) = u(g) gamma_r for
parents[h] = (g, r).  The cover is then the set of pairs (w, eps) with

    (g, eps) * (h, delta) = (g h, eps delta sigma(g, h)),
    u(g) u(h) = sigma(g, h) u(g h),  sigma(g, h) in {+1, -1}.

theta = (id, -1) is the central element of order two.  The cover's
classes come from one walk per W-class (`RootDatum.conjugation_orbit`)
carrying the sign of u(s) u(h) u(s)^-1 against u(s h s): the class of g
splits exactly when that sign chain is consistent.

That sign needs no unit product.  For a unit vector gamma,
gamma v gamma = -s_gamma(v), so Ad(u(w)) acts on V as det(w) w, and on
a blade as a signed permutation (`conj_sign`); one term of u(g), mapped
to a blade of u(w g w^-1), fixes the sign.  Likewise u(g)^-1 is the
reversion of u(g), so sigma(g, g^-1) is one reversed term against
u(g^-1) (`inv`).  `sigma` itself forms the full product and compares
every term.

Every root has squared norm 1 or 2 and entries in {0, 1, -1}, so every
lift is 2^(-k/2) times an integer combination of basis blades.  A unit
is stored as the pair (k, n): n is a {mask: int} dict, not all of whose
values are even, and the unit is 2^(-k/2) * sum_m n[m] e_m.  A product
adds the k's, multiplies the n's, and halves every value (taking 2 from
k) while k >= 2 and every value is even.  For a unit sum_m n[m]^2 = 2^k,
so k < 2 already forces an odd value, and two units that agree up to
sign have the same k and n up to sign: the cocycle needs only integer
arithmetic.  `sigma(g, h)` needs no halving: it compares every term of
n_g n_h with sigma 2^((k_g + k_h - k_gh)/2) n_gh.  Each sign is kept in
one byte of an n x n table (n = |W|), 0 until it is first computed, 1
for +1 and 2 for -1; the table is allocated by the first `sigma` call,
so a run that never reads the cocycle holds none.  `PinCover.lift`
converts a unit to {mask: Coeff} over Q(i, sqrt2) for the algebra layers.
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


def _term_sign(u, v, m, y):
    """Sign eps with v = eps * u', for a unit u' with the k and term count
    of u whose term at mask m is y; raises ValueError where v cannot be
    such a multiple."""
    if u[0] != v[0] or len(u[1]) != len(v[1]):
        raise ValueError("units are not proportional")
    x = v[1].get(m)
    if x == y:
        return 1
    if x == -y:
        return -1
    raise ValueError("units are not proportional by a sign")


def _unit_mul(u, v):
    """Product of units (k, n), in the canonical form of the module docstring."""
    k = u[0] + v[0]
    n = cunit_mul(u[1], v[1])
    while k >= 2 and all(x % 2 == 0 for x in n.values()):
        n = {m: x // 2 for m, x in n.items()}
        k -= 2
    return k, n


def _generator_unit(alpha, n2):
    """The unit gamma(alpha / |alpha|) of the reflection at root alpha,
    whose squared norm n2 is 1 or 2 (`groups.reflection`)."""
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
        gens = [_generator_unit(alpha, n2) for alpha, n2
                in zip(rd.positive_roots, rd.root_norms_sq)]
        self._units = [(0, {0: 1})]
        for g, r in rd.parents[1:]:
            self._units.append(_unit_mul(self._units[g], gens[r]))
        self._lifts = [None] * self.n
        # sigma(g, h) at byte g n + h, allocated by the first `sigma` call
        self._sigma = None

    def lift(self, g_idx):
        """Canonical Clifford unit over g, as {mask: Coeff}."""
        u = self._lifts[g_idx]
        if u is None:
            u = self._lifts[g_idx] = _coeff_unit(self._units[g_idx])
        return u

    def parity(self, g_idx):
        """Z2-grading of the lift: 0 for even, 1 for odd."""
        return 0 if self.rd.elements[g_idx].det == 1 else 1

    def epsilon(self, g_idx):
        """epsilon(rho(w~)) for a lift w~ of g: 1 when d is odd and
        (-1)^{|w~|} when d is even."""
        if self.rd.dim % 2 == 1:
            return 1
        return -1 if self.parity(g_idx) else 1

    def sigma(self, g, h):
        """Cocycle sign: u(g) u(h) = sigma(g, h) u(g h)."""
        table = self._sigma
        if table is None:
            table = self._sigma = bytearray(self.n * self.n)
        at = g * self.n + h
        s = table[at]
        if s:
            return 1 if s == 1 else -1
        (k_g, n_g), (k_h, n_h) = self._units[g], self._units[h]
        k_gh, n_gh = self._units[self.rd.mul_table[g][h]]
        # n_g n_h = sigma 2^(shift/2) n_gh, compared term by term
        shift = k_g + k_h - k_gh
        prod = cunit_mul(n_g, n_h)
        if shift < 0 or shift % 2 or len(prod) != len(n_gh):
            raise ValueError("units are not proportional")
        m0, x0 = next(iter(n_gh.items()))
        f = 1 << shift // 2
        if prod.get(m0) != f * x0:
            f = -f
        if any(prod.get(m) != f * x for m, x in n_gh.items()):
            raise ValueError("units are not proportional by a sign")
        table[at] = 1 if f > 0 else 2
        return 1 if f > 0 else -1

    # -- group structure on pairs (g_idx, eps) ------------------------------
    def mul(self, a, b):
        (g, e1), (h, e2) = a, b
        return (self.rd.mul_table[g][h], e1 * e2 * self.sigma(g, h))

    def inv(self, a):
        """a^-1 = (g^-1, eps * sigma(g, g^-1)) for a = (g, eps).

        u(g)^-1 is the reversion of u(g), (-1)^{|A|(|A|-1)/2} on e_A, and
        u(g^-1) = sigma(g, g^-1) u(g)^-1: one reversed term of u(g)
        against u(g^-1) gives the sign.
        """
        g, e = a
        gi = self.rd.inv_table[g]
        unit = self._units[g]
        m, x = next(iter(unit[1].items()))
        j = m.bit_count()
        y = -x if j * (j - 1) // 2 % 2 else x
        return (gi, e * _term_sign(unit, self._units[gi], m, y))

    def conj(self, w, a):
        """w a w^{-1} for pairs."""
        return self.mul(self.mul(w, a), self.inv(w))

    def conj_sign(self, w_idx, g_idx):
        """Sign eps with u(w) u(g) u(w)^{-1} = eps * u(w g w^{-1}).

        Ad(u(w)) is det(w) w on V, so on a blade, with (perm, sign) of w,

            Ad(u(w)) e_A = det(w)^{|A|} prod_{a in A} sign[a]
                           * (sign of sorting perm(A)) * e_{perm(A)}.

        One term (m, x) of u(g) is mapped so and read off u(w g w^{-1}),
        in O(d) with no unit product.
        """
        rd = self.rd
        w = rd.elements[w_idx]
        unit = self._units[g_idx]
        m, x = next(iter(unit[1].items()))
        odd = w.det < 0 and m.bit_count() & 1
        image = 0
        a = 0
        while m >> a:
            if m >> a & 1:
                p = w.perm[a]
                # e_p moves left past the images above p placed so far
                odd ^= (w.sign[a] < 0) ^ (image >> p).bit_count() & 1
                image |= 1 << p
            a += 1
        tbl = rd.mul_table
        target = self._units[tbl[tbl[w_idx][g_idx]][rd.inv_table[w_idx]]]
        return _term_sign(unit, target, image, -x if odd else x)

    # -- conjugacy classes of the cover --------------------------------------
    def cover_classes(self):
        """Conjugacy classes of the double cover as lists of pairs.

        The central theta and the reflection lifts generate the cover, so
        a consistent walk gives the classes {(h, sign[h])} and {(h,
        -sign[h])}; otherwise (h, 1) and (h, -1) are conjugate.
        """
        classes = []
        for cls in self.rd.conjugacy_classes():
            signs, splits = self.rd.conjugation_orbit(cls[0], self.conj_sign)
            if splits:
                classes.append(sorted(signs.items()))
                classes.append(sorted((h, -e) for h, e in signs.items()))
            else:
                classes.append([(h, e) for h in cls for e in (-1, 1)])
        return classes

    def class_splits(self, g_idx):
        """True iff the two lifts of the W-class of g lie in distinct classes."""
        return self.rd.conjugation_orbit(g_idx, self.conj_sign)[1]

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
