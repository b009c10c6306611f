"""Generators and relations of the total angular momentum algebra O_{t,c}.

O_{t,c} is the graded centraliser of the osp(1|2) realisation inside
H_{t,c} (x) C(V).  Its generators are

    Ocheck_j = -sum_{alpha>0} c(alpha) <y_j, alpha/|alpha|> s_alpha gamma(alpha/|alpha|)
    M_ij     = x_i y_j - x_j y_i
    O_ij     = M_ij + t e_i e_j / 2 + Ocheck_i e_j - Ocheck_j e_i
    O_ijk    = M_ij e_k - M_ik e_j + M_jk e_i + t e_i e_j e_k
               + Ocheck_i e_j e_k - Ocheck_j e_i e_k + Ocheck_k e_i e_j

together with the diagonal cover embedding rho(W~).  The normalisation of
Ocheck_j is pinned by the requirement Ocheck_j = -(t/2) P(e_j) with
P = Id - ad(F-) ad(F+); this is checked in the suites rather than assumed.

Higher generators O_A are obtained from antisymmetrised products of the
low ones; the closed-form expansion

    O_A = ((|A|-1) t/2 + sum_a Ocheck_a e_a + sum_{a<b} M_ab e_ab) e_A

is also provided with both readings of the sign of the M-term, so the
suites can record which one is consistent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from .clifford import pseudo_scalar
from .hc import HCAlgebra, HCElement
from .osp import OspRealisation


def perm_sign(seq):
    """Sign of the permutation sorting `seq` (entries distinct)."""
    s = 1
    a = list(seq)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if a[i] > a[j]:
                s = -s
    return s


class Tama:
    """Generator cache and relation machinery for one algebra context."""

    def __init__(self, alg: HCAlgebra, osp: OspRealisation = None):
        self.alg = alg
        self.osp = osp if osp is not None else OspRealisation(alg)
        self.d = alg.dim
        F = alg.field
        self._half = F.rational(Fraction(1, 2))
        self._ocheck = {}
        self._O = {}

    # -- one-index generators ------------------------------------------------
    def ocheck(self, j):
        """Ocheck_j = -(t/2) P(e_j), in closed form over the root system."""
        out = self._ocheck.get(j)
        if out is not None:
            return out
        alg = self.alg
        rd = alg.rd
        F = alg.field
        out = alg.zero()
        for r_idx, alpha in enumerate(rd.positive_roots):
            aj = alpha[j - 1]
            if not aj:
                continue
            coeff = F.rational(-aj)
            n2 = rd.root_norms_sq[r_idx]
            if n2 == 2:
                coeff = coeff * F.r * self._half   # <y_j, alpha>/|alpha|
            elif n2 != 1:
                raise ValueError("unexpected root length")
            term = (alg.group(rd.reflection_index(r_idx))
                    * alg.clifford_unit(alg.pin.gen_lifts[r_idx]))
            out = out + term.scale(alg.h.c_root[r_idx] * coeff)
        self._ocheck[j] = out
        return out

    def M(self, i, j):
        alg = self.alg
        return alg.x(i) * alg.y(j) - alg.x(j) * alg.y(i)

    # -- O with any number of distinct indices -------------------------------
    def O(self, idxs):
        """O_{u_1...u_n}, skew multilinear; arbitrary distinct indices."""
        idxs = tuple(idxs)
        if len(set(idxs)) != len(idxs):
            return self.alg.zero()
        sorted_idx = tuple(sorted(idxs))
        sgn = perm_sign(idxs)
        base = self._O.get(sorted_idx)
        if base is None:
            base = self._build_sorted(sorted_idx)
            self._O[sorted_idx] = base
        return base if sgn > 0 else -base

    def _build_sorted(self, idxs):
        n = len(idxs)
        if n == 1:
            return self.ocheck(idxs[0])
        if n == 2:
            return self._O2(*idxs)
        if n == 3:
            return self._O3(*idxs)
        # |A| >= 4: closed-form expansion (agrees with -(t/2)P(e_A); the
        # antisymmetrised product reconstructions hold only at t = 1)
        return self.O_closed_form(idxs, m_term_sign=-1)

    def _O2(self, i, j):
        alg = self.alg
        t = alg.h.t
        return (self.M(i, j)
                + (alg.e(i) * alg.e(j)).scale(t * self._half)
                + self.ocheck(i) * alg.e(j)
                - self.ocheck(j) * alg.e(i))

    def _O3(self, i, j, k):
        alg = self.alg
        t = alg.h.t
        ei, ej, ek = alg.e(i), alg.e(j), alg.e(k)
        return (self.M(i, j) * ek - self.M(i, k) * ej + self.M(j, k) * ei
                + (ei * ej * ek).scale(t)
                + self.ocheck(i) * ej * ek
                - self.ocheck(j) * ei * ek
                + self.ocheck(k) * ei * ej)

    def O_closed_form(self, idxs, m_term_sign=1):
        """The closed-form O_A expansion; m_term_sign picks the reading of
        the M_ab e_ab term (the displayed sign is suspect for |A| = 2)."""
        idxs = tuple(sorted(idxs))
        alg = self.alg
        F = alg.field
        n = len(idxs)
        eA = alg.e_set(idxs)
        acc = alg.scalar(alg.h.t * F.rational(Fraction(n - 1, 2)))
        for a in idxs:
            acc = acc + self.ocheck(a) * alg.e(a)
        for a, b in combinations(idxs, 2):
            term = self.M(a, b) * alg.e(a) * alg.e(b)
            acc = acc + (term if m_term_sign > 0 else -term)
        return acc * eA

    def project_O(self, idxs):
        """-(t/2) P(e_A), the projection-based definition of O_A."""
        alg = self.alg
        eA = alg.e_set(sorted(idxs))
        return self.osp.project(eA).scale(
            alg.h.t * alg.field.rational(Fraction(-1, 2)))

    def reconstruction_residual(self, n, idxs, at_t_one=True):
        """O_A minus its antisymmetrised-product expansion (4 or 5 indices).

        The expansions are normalised for t = 1; with `at_t_one` the residual
        is evaluated at s = sqrt2 (i.e. t = 1), otherwise at symbolic t.
        """
        idxs = tuple(idxs)
        if n == 4:
            recon = (self.antisymmetrize(
                         lambda a, b, c, e: self.O((a, b)) * self.O((c, e)),
                         idxs).scale(6)
                     - self.antisymmetrize(
                         lambda a, b, c, e: self.O((a, b, c)) * self.ocheck(e),
                         idxs).scale(8))
        elif n == 5:
            recon = (self.antisymmetrize(
                         lambda a, b, c, e, f:
                             self.O((a, b, c)) * self.O((e, f)),
                         idxs).scale(4)
                     + self.antisymmetrize(
                         lambda a, b, c, e, f:
                             self.O((a, b, c)) * self.ocheck(e) * self.ocheck(f),
                         idxs).scale(48)
                     - self.antisymmetrize(
                         lambda a, b, c, e, f:
                             self.O((a, b)) * self.O((c, e)) * self.ocheck(f),
                         idxs).scale(36))
        else:
            raise ValueError("reconstruction defined for 4 or 5 indices")
        res = self.O(idxs) - recon
        if at_t_one:
            from .scalars import C_R
            res = res.map_scalars(lambda sc: sc.substitute_s(C_R))
        return res

    # -- antisymmetriser -----------------------------------------------------
    def antisymmetrize(self, f, idxs):
        n = len(idxs)
        acc = self.alg.zero()
        for p in permutations(range(n)):
            term = f(*(idxs[q] for q in p))
            sgn = perm_sign(p)
            acc = acc + (term if sgn > 0 else -term)
        return acc.scale(self.alg.field.rational(Fraction(1, factorial(n))))

    # -- distinguished elements ---------------------------------------------
    def gamma_element(self):
        """Pseudo-scalar Gamma embedded into H (x) C."""
        alg = self.alg
        g = pseudo_scalar(self.d, alg.field)
        z = alg.h.zero_exp
        return HCElement(alg, {(z, z, alg.h.id_idx, m): v
                               for m, v in g.terms.items()})

    def dirac(self):
        """D = Gamma * Scasimir."""
        return self.gamma_element() * self.osp.scasimir

    def epsilon_of(self, pair):
        """epsilon(rho(w~)): 1 for odd d, (-1)^{|w~|} for even d."""
        if self.d % 2 == 1:
            return 1
        return -1 if self.alg.pin.parity(pair[0]) else 1

    def centre_candidates(self):
        """Candidate generators of the graded centre, with labels."""
        alg = self.alg
        found, minus = alg.rd.contains_minus_identity()
        out = [("Omega_osp", self.osp.Omega_osp)]
        if found:
            w0 = alg.group(alg.rd.index_of(minus))
            w0r = alg.rho((alg.rd.index_of(minus), 1))
            S = self.osp.scasimir
            D = self.dirac()
            out += [
                ("S*(w0 tensor 1)", S * w0),
                ("D*(w0 tensor 1)", D * w0),
                ("S*rho(w0~)", S * w0r),
                ("D*rho(w0~)", D * w0r),
            ]
        return out

    def graded_central_in_tama(self, z, index_tuples=None):
        """Graded-commutation of z with rho(s~), O_ij, O_ijk; returns failures."""
        alg = self.alg
        fails = []
        for r_idx in range(len(alg.rd.positive_roots)):
            if not z.gbracket(alg.rho_reflection(r_idx)).is_zero():
                fails.append(f"rho(s~_{r_idx})")
        pairs = list(combinations(range(1, self.d + 1), 2))
        triples = list(combinations(range(1, self.d + 1), 3))
        if index_tuples is not None:
            pairs = [t for t in pairs if t in index_tuples]
            triples = [t for t in triples if t in index_tuples]
        for tup in pairs + triples:
            if not z.gbracket(self.O(tup)).is_zero():
                fails.append(f"O_{tup}")
        return fails

    # -- the relation suite --------------------------------------------------
    def relation_residual(self, name, idx):
        """Residual (lhs - rhs) of one numbered relation at indices idx."""
        O = self.O
        oc = self.ocheck
        alg = self.alg
        t = alg.h.t

        def com(a, b):
            return a.commutator(b)

        def acom(a, b):
            return a.anticommutator(b)

        if name == "r21-cyclic":
            i, j, k = idx
            return (com(O((i, j)), oc(k)) - com(O((i, k)), oc(j))
                    + com(O((j, k)), oc(i)))
        if name == "r31-alt":
            i, j, k, l = idx
            return (acom(O((i, j, k)), oc(l)) - acom(O((i, j, l)), oc(k))
                    + acom(O((i, k, l)), oc(j)) - acom(O((j, k, l)), oc(i)))
        if name == "r22-shared":
            # middle commutator is [oc_j, oc_k]; the displayed [oc_i, oc_j]
            # agrees only in type A (see r22-shared-literal) and fails elsewhere
            i, j, k = idx
            return (com(O((i, j)), O((k, i)))
                    - O((j, k)).scale(t)
                    - com(oc(j), oc(k))
                    - acom(O((i, j, k)), oc(i)))
        if name == "r22-shared-literal":
            i, j, k = idx
            return (com(O((i, j)), O((k, i)))
                    - O((j, k)).scale(t)
                    - com(oc(i), oc(j))
                    - acom(O((i, j, k)), oc(i)))
        if name == "r22-disjoint":
            i, j, k, l = idx
            return (com(O((i, j)), O((k, l)))
                    - acom(oc(i), O((j, k, l)))
                    + acom(oc(j), O((i, k, l))))
        if name == "r23-disjoint":
            j, k, l, m, n = idx
            return (com(O((j, k)), O((l, m, n)))
                    - com(oc(j), O((k, l, m, n)))
                    + com(oc(k), O((j, l, m, n))))
        if name == "r23-shared1":
            j, k, l, m = idx
            return (com(O((j, k)), O((j, l, m)))
                    + O((k, l, m)).scale(t)
                    + acom(oc(k), O((l, m)))
                    + com(oc(j), O((j, k, l, m))))
        if name == "r23-shared2":
            j, k, l = idx
            return (com(O((j, k)), O((j, k, l)))
                    + acom(oc(j), O((j, l)))
                    + acom(oc(k), O((k, l))))
        if name == "r33-equal":
            i, j, k = idx
            F = alg.field
            rhs = (oc(i) * oc(i) + oc(j) * oc(j) + oc(k) * oc(k)
                   + O((i, j)) * O((i, j)) + O((i, k)) * O((i, k))
                   + O((j, k)) * O((j, k))).scale(2)
            rhs = rhs - alg.scalar(t * t * F.rational(Fraction(1, 2)))
            return acom(O((i, j, k)), O((i, j, k))) - rhs
        if name == "r33-shared2":
            i, j, k, l = idx
            return (acom(O((i, j, k)), O((i, j, l)))
                    - acom(oc(k), oc(l))
                    - acom(O((i, k)), O((i, l)))
                    - acom(O((j, k)), O((j, l))))
        if name == "r33-shared1":
            i, j, k, m, n = idx
            return (acom(O((i, j, k)), O((i, m, n)))
                    - O((j, k, m, n)).scale(t)
                    - acom(O((j, k)), O((m, n)))
                    - acom(oc(i), O((i, j, k, m, n))))
        if name == "r33-disjoint":
            i, j, k, l, m, n = idx
            return (acom(O((i, j, k)), O((l, m, n)))
                    - acom(oc(i), O((j, k, l, m, n)))
                    + acom(oc(j), O((i, k, l, m, n)))
                    - acom(oc(k), O((i, j, l, m, n))))
        raise ValueError(f"unknown relation {name!r}")

    RELATION_ARITY = {
        "r21-cyclic": 3, "r31-alt": 4, "r22-shared": 3, "r22-shared-literal": 3, "r22-disjoint": 4, "r23-disjoint": 5,
        "r23-shared1": 4, "r23-shared2": 3, "r33-equal": 3, "r33-shared2": 4, "r33-shared1": 5, "r33-disjoint": 6,
    }

    def relation_index_tuples(self, name):
        """All distinct-index assignments, deduplicated by skew-symmetry.

        Each relation is (anti)symmetrised in blocks of its indices; we
        enumerate increasing tuples per block.
        """
        d = self.d
        arity = self.RELATION_ARITY[name]
        if arity > d:
            return []
        # block structure: which index positions are interchangeable
        blocks = {
            "r21-cyclic": [3], "r31-alt": [4], "r22-shared": [1, 1, 1], "r22-shared-literal": [1, 1, 1],
            "r22-disjoint": [2, 2],
            "r23-disjoint": [2, 3], "r23-shared1": [1, 1, 2], "r23-shared2": [2, 1], "r33-equal": [3],
            "r33-shared2": [2, 2], "r33-shared1": [1, 2, 2], "r33-disjoint": [3, 3],
        }[name]
        pool = range(1, d + 1)
        out = []

        def rec(prefix, remaining_blocks, used):
            if not remaining_blocks:
                out.append(tuple(prefix))
                return
            b = remaining_blocks[0]
            for combo in combinations([p for p in pool if p not in used], b):
                rec(prefix + list(combo), remaining_blocks[1:], used | set(combo))

        rec([], blocks, frozenset())
        return out

    # -- Scasimir identities -------------------------------------------------
    def sgamma_residual(self):
        """S Gamma - (i^{d(d-1)/2}/t) O_{1..d}; needs |A| = d <= 5 support."""
        alg = self.alg
        phase = alg.field.i_power(self.d * (self.d - 1) // 2)
        rhs = self.O(tuple(range(1, self.d + 1))).scale(phase * alg.h.t.inv())
        return self.osp.scasimir * self.gamma_element() - rhs

    def ssquare_expansion_residual(self):
        """S^2 - [(d-1)(d-2)/8 - ((d-2)/t^2) sum Ocheck_j^2
                  - (1/t^2) sum_{j<k} O_jk^2]."""
        alg = self.alg
        F = alg.field
        d = self.d
        t2inv = (alg.h.t * alg.h.t).inv()
        rhs = alg.scalar(F.rational(Fraction((d - 1) * (d - 2), 8)))
        acc = alg.zero()
        for j in range(1, d + 1):
            acc = acc + self.ocheck(j) * self.ocheck(j)
        rhs = rhs - acc.scale(t2inv * F.rational(d - 2))
        acc = alg.zero()
        for j, k in combinations(range(1, d + 1), 2):
            acc = acc + self.O((j, k)) * self.O((j, k))
        rhs = rhs - acc.scale(t2inv)
        S = self.osp.scasimir
        return S * S - rhs

    def covariance_residual(self, r_idx, idxs):
        """rho(s~) O_{u} - (-1)^{|s~| n} O_{s(u)} rho(s~) for a reflection."""
        alg = self.alg
        s = alg.rd.reflections[r_idx]
        rho = alg.rho_reflection(r_idx)
        n = len(idxs)
        lhs = rho * self.O(idxs)
        # image indices: s maps y_j to sign * y_{perm j}
        img = []
        sgn = 1
        for u in idxs:
            img.append(s.perm[u - 1] + 1)
            sgn *= s.sign[u - 1]
        rhs = self.O(tuple(img)).scale(self.alg.field.rational(sgn))
        if n % 2 == 1 and self.alg.pin.parity(alg.rd.reflection_index(r_idx)):
            rhs = -rhs
        return lhs - rhs * rho

    # -- Dirac / Vogan -------------------------------------------------------
    def dirac_checks(self, rho_omega: HCElement, eps_omega: int):
        """All Dirac-element identities for one admissible rho(omega)."""
        alg = self.alg
        F = alg.field
        D = self.dirac()
        quarter = alg.scalar(F.rational(Fraction(1, 4)))
        Dw = D + rho_omega
        half_Dw = Dw.scale(F.rational(Fraction(1, 2)))
        a = half_Dw - rho_omega
        out = {}
        out["D_bullet"] = (D.bullet() - D).is_zero()
        out["D_square"] = (D * D - self.osp.Omega_osp - quarter).is_zero()
        out["Domega_bullet"] = (Dw.bullet() - Dw).is_zero()
        rhs = (self.osp.Omega_osp + rho_omega * rho_omega
               + (rho_omega * D).scale(F.rational(1 + eps_omega)) + quarter)
        out["Domega_square"] = (Dw * Dw - rhs).is_zero()
        vogan = (Dw * a + a * Dw
                 + rho_omega * rho_omega - quarter)
        out["vogan_identity"] = (vogan - self.osp.Omega_osp).is_zero()
        return out

    def epsilon_commutation_residuals(self):
        """D rho(w~) - eps(rho(w~)) rho(w~) D over canonical cover lifts."""
        alg = self.alg
        D = self.dirac()
        fails = []
        for g in range(len(alg.rd.elements)):
            r = alg.rho((g, 1))
            eps = self.epsilon_of((g, 1))
            res = D * r - r.scale(alg.field.rational(eps)) * D
            if not res.is_zero():
                fails.append(g)
        return fails
