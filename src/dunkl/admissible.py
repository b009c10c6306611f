"""Class sums, epsilon-centres and admissible elements of the cover algebra.

Elements of rho(C W~) are stored as coordinate vectors {g_idx: Coeff}
relative to the basis {rho(g, +1) : g in W} of canonical lifts; this makes
all cover-algebra computations pure Q(i, sqrt2) linear algebra driven by
the cocycle sigma of the pin cover.  The bullet sends rho(g, +1) to
tau(g) rho(g^-1, +1), with tau(g) = (-1)^{|g~|} sigma(g, g^-1) and
sigma(g, g^-1) read off the reversion of one term of u(g)
(`PinCover.inv`), so no Clifford lift or unit product is built.
Conjugation signs come from the blade action (`PinCover.conj_sign`).

epsilon(rho(w~)) is 1 when d is odd and (-1)^{|w~|} when d is even.  The
epsilon-centre is the solution space of

    a * rho(w~) = epsilon(rho(w~)) * rho(w~) * a   for all w~,

which in coordinates pairs a_{w g w^-1} with a_g up to an explicit sign;
the solver walks these sign chains with `RootDatum.conjugation_orbit`,
once per conjugacy class, and reports the classes where the chain is
consistent.  Products, bullets and class sums accumulate through
`sparse.add_into`; products and scalings multiply through
`scalars.mul_coeff`, so a factor 1 or -1 (a generator rho(s~), an
epsilon) makes no field product.  `linearly_independent` passes the
sparse vectors as they are to `polyspinor.rank_coeff`, the one
elimination.
"""

from __future__ import annotations

from functools import cached_property

from .scalars import Coeff, C_ONE, C_I, _i_power, Scalar, mul_coeff
from .sparse import add_into
from .pin import PinCover
from .groups import RootDatum
from .polyspinor import rank_coeff


def vec_scale(a, cf):
    if cf.is_zero():
        return {}
    return {g: mul_coeff(v, cf) for g, v in a.items()}


class CoverAlgebra:
    """rho(C W~) with coordinates over canonical lifts."""

    def __init__(self, rd: RootDatum, pin: PinCover = None):
        self.rd = rd
        self.pin = pin if pin is not None else PinCover(rd)
        self.n = len(rd.elements)
        self.d = rd.dim
        self._basis = None

    def mul(self, a, b):
        """Product using rho(g) rho(h) = sigma(g, h) rho(gh)."""
        tbl = self.rd.mul_table
        sigma = self.pin.sigma
        return add_into({}, ((tbl[g][h], mul_coeff(u, v) if sigma(g, h) > 0
                              else -mul_coeff(u, v))
                             for g, u in a.items() for h, v in b.items()))

    # -- bullet (conjugate-linear anti-involution) ---------------------------
    @cached_property
    def _bullet_signs(self):
        """Sign tau(g) with rho(g,1)^bullet = tau(g) rho(g^-1,1).

        u(g) is a product of |g~| real unit vectors v, each with
        v^bullet = -v and v^2 = 1, so u(g)^bullet = (-1)^{|g~|} u(g)^-1
        = (-1)^{|g~|} sigma(g, g^-1) u(g^-1).  u(g)^-1 is the reversion
        of u(g), and `PinCover.inv` reads sigma(g, g^-1) off it.
        """
        pc = self.pin
        return [-pc.inv((g, 1))[1] if pc.parity(g) else pc.inv((g, 1))[1]
                for g in range(self.n)]

    def bullet(self, a):
        tau = self._bullet_signs
        inv = self.rd.inv_table
        return add_into({}, ((inv[g], v.conj_i() if tau[g] > 0 else -v.conj_i())
                             for g, v in a.items()))

    # -- class sums ----------------------------------------------------------
    def class_sum_T(self, g_idx):
        """(1/2) rho((1-theta) T_g~): sum over one lift per w in W.

        Both lifts of w conjugate g~ identically, so this is rho(T_g~)/2;
        the normalisation is irrelevant for (non)vanishing and centrality.
        """
        return self._class_sum(g_idx, graded=False)

    def class_sum_T_minus(self, g_idx):
        """T^(-1)_g~ / 2 = sum_{w in W} (-1)^{|w|} rho(w~^-1 g~ w~)."""
        return self._class_sum(g_idx, graded=True)

    def _class_sum(self, g_idx, graded):
        """sum_{w in W} rho(w~^-1 g~ w~), weighted by (-1)^{|w|} if graded."""
        tbl = self.rd.mul_table
        inv = self.rd.inv_table
        pc = self.pin

        def term(w):
            wi = inv[w]
            s = pc.conj_sign(wi, g_idx)
            if graded and pc.parity(w):
                s = -s
            return tbl[tbl[wi][g_idx]][w], Coeff(s)     # w^-1 g w
        return add_into({}, map(term, range(self.n)))

    # -- epsilon-centre ------------------------------------------------------
    def is_epsilon_central(self, a):
        """Direct product check against all canonical generators rho(s~)."""
        for r_idx in range(len(self.rd.positive_roots)):
            s = self.rd.reflection_index(r_idx)
            rs = {s: C_ONE}
            lhs = self.mul(a, rs)
            rhs = vec_scale(self.mul(rs, a), Coeff(self.pin.epsilon(s)))
            if lhs != rhs:
                return False
        return True

    def brute_force_epsilon_centre(self):
        """Basis of the epsilon-centre by solving the commutation system.

        a rho(s) = eps(s) rho(s) a forces, in coordinates,
        a_{s g s^-1} = eps(s) sigma(s, g) sigma(s g s^-1, s) a_g; one
        `conjugation_orbit` per class propagates these identifications,
        and the consistent classes are kept.  Returns (basis,
        per-class-consistency) where each basis vector is supported on one
        W-conjugacy class.
        """
        pc = self.pin

        def step(s, g):
            return pc.epsilon(s) * pc.conj_sign(s, g)
        basis = []
        consistency = []
        for cls in self.rd.conjugacy_classes():
            signs, consistent = self.rd.conjugation_orbit(cls[0], step)
            consistency.append((cls[0], consistent))
            if consistent:
                basis.append({g: Coeff(sg) for g, sg in signs.items()})
        # every returned vector must pass the direct product check
        for v in basis:
            assert self.is_epsilon_central(v)
        return basis, consistency

    def epsilon_centre_basis(self):
        """The catalogued spanning set: projected class sums (d odd) or
        T^(-1) sums (d even), filtered to nonzero."""
        out = []
        for cls in self.rd.conjugacy_classes():
            rep = cls[0]
            if self.d % 2 == 1:
                v = self.class_sum_T(rep)
            else:
                v = self.class_sum_T_minus(rep)
            if v:
                out.append((rep, v))
        return out

    # -- admissible elements -------------------------------------------------
    def admissible_candidate(self, g_idx):
        """i^{|g~|} (1-theta)/2 T_g~ (d odd) or T^(-1)_g~ (d even)."""
        if self.d % 2 == 1:
            v = self.class_sum_T(g_idx)
            return vec_scale(v, _i_power(self.pin.parity(g_idx)))
        return self.class_sum_T_minus(g_idx)

    def admissible_basis(self):
        """Per-class candidates with certificate flags.

        `admissible` reports the catalogued candidate (with its i^{|g~|}
        or T^(-1) normalisation) verbatim.  Because rho(g)^bullet carries
        an extra cocycle sign sigma(g, g^-1) relative to the grading, some
        candidates come out bullet-ANTI-fixed; for those, i times the
        candidate is the admissible representative, recorded under
        `adjusted` with flag `admissible_adjusted`.  Built once.
        """
        if self._basis is not None:
            return self._basis
        out = []
        for cls in self.rd.conjugacy_classes():
            rep = cls[0]
            v = self.admissible_candidate(rep)
            nonzero = bool(v)
            bullet_fixed = nonzero and self.bullet(v) == v
            eps_central = nonzero and self.is_epsilon_central(v)
            adjusted = None
            if nonzero:
                if bullet_fixed:
                    adjusted = v
                else:
                    iv = vec_scale(v, C_I)
                    if self.bullet(iv) == iv:
                        adjusted = iv
            out.append({
                "rep": rep,
                "label": self.rd.cycle_type_label(self.rd.elements[rep]),
                "parity": self.pin.parity(rep),
                "splits": self.pin.class_splits(rep),
                "nonzero": nonzero,
                "bullet_fixed": bullet_fixed,
                "eps_central": eps_central,
                "admissible": nonzero and bullet_fixed and eps_central,
                "admissible_adjusted": adjusted is not None and eps_central,
                "vector": v,
                "adjusted": adjusted,
            })
        self._basis = out
        return out

    def to_hc(self, alg, a):
        """Coordinate vector -> HCElement via rho."""
        out = alg.zero()
        for g, cf in a.items():
            out = out + alg.rho((g, 1)).scale(Scalar.from_coeff(cf, alg.field.nvars))
        return out


def linearly_independent(vectors):
    """Rank over Q(i, sqrt2) of {g: Coeff} vectors, by
    `polyspinor.rank_coeff` on the nonzero vectors as sparse rows; the
    elimination touches only their support."""
    rows = [v for v in vectors if v]
    rank = rank_coeff(rows)
    return rank == len(rows), rank


def sn_partition_predictions(n, d_parity_odd):
    """Partition criterion for admissible S_n class sums.

    d odd: partitions with no even parts; d even: distinct parts whose
    permutations are even (DP_n^+).
    """
    out = []
    for p in _partitions(n):
        if d_parity_odd:
            ok = all(part % 2 == 1 for part in p)
        else:
            distinct = len(set(p)) == len(p)
            even_perm = (sum(part - 1 for part in p) % 2 == 0)
            ok = distinct and even_perm
        out.append((tuple(p), ok))
    return out


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield []
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest
