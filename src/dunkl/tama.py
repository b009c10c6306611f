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

Every O_A is built from the one closed-form expansion

    O_A = ((|A|-1) t/2 + sum_a Ocheck_a e_a - sum_{a<b} M_ab e_ab) e_A,

which for |A| = 1, 2, 3 is Ocheck_j, O_ij and O_ijk above.  Its M-term
sign is the one that agrees with -(t/2) P(e_A); for |A| = 4, 5 at t = 1
it also equals the weighted antisymmetrised products in `RECONSTRUCTIONS`,
which the relation suite checks.  A product of O over index blocks b_k is
skew within each block, so its sum over all n! orderings is prod |b_k|!/n!
times a sum over the block tuples, which also index the relations.

The relation suite evaluates one residual per orbit of each relation's
index tuples (`relation_orbits`), under the adjacent coordinate swaps tau
that map the root system to itself (`RootDatum.coordinate_swaps`) and
whose key map phi (`HCAlgebra.swap_map`) passes a premise checked in the
same run, with no product: phi(O_A) == O_{tau(A)} exactly for every A
with |A| <= min(d, 5) (`orbit_swaps`).  phi is a ring isomorphism of
H (x) C(V), semilinear over a renaming of the c_k that fixes s and t,
and each residual R(idx) is one fixed expression in the O_A, the
Ocheck_j = O_(j) and t, so R(tau idx) = +-phi(R(idx)): R vanishes at
every tuple of an orbit exactly when it vanishes at one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, islice
from math import factorial, prod
from operator import mul

from .clifford import pseudo_scalar
from .hc import HCAlgebra, HCElement
from .osp import OspRealisation
from .sparse import add_into, sub_into


def perm_sign(seq):
    """Sign of the permutation sorting `seq` (entries distinct)."""
    s = 1
    a = list(seq)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if a[i] > a[j]:
                s = -s
    return s


def _block_tuples(pool, blocks):
    """The tuples of distinct entries of `pool` that increase (in pool
    order) within each block of lengths `blocks`, lexicographic block by
    block; none when the blocks outnumber the pool."""
    if not blocks:
        yield ()
        return
    for head in combinations(pool, blocks[0]):
        rest = [p for p in pool if p not in head]
        for tail in _block_tuples(rest, blocks[1:]):
            yield head + tail


class Tama:
    """Generator cache and relation machinery for one algebra context."""

    def __init__(self, alg: HCAlgebra, osp: OspRealisation):
        self.alg = alg
        self.osp = osp
        self.d = alg.dim
        F = alg.field
        self._half = F.rational(Fraction(1, 2))
        self._ocheck = {}
        self._O = {}
        self._dirac = None

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
            out = out + alg.rho_reflection(r_idx).scale(
                alg.h.c_root[r_idx] * coeff)
        self._ocheck[j] = out
        return out

    def M(self, i, j):
        alg = self.alg
        return alg.x(i) * alg.y(j) - alg.x(j) * alg.y(i)

    # -- O with any number of distinct indices -------------------------------
    def O(self, idxs):
        """O_{u_1...u_n}, skew multilinear; arbitrary distinct indices.

        Memoised per sorted index tuple and sign, so each O_A and its
        negation are built once.
        """
        idxs = tuple(idxs)
        if len(set(idxs)) != len(idxs):
            return self.alg.zero()
        key = (tuple(sorted(idxs)), perm_sign(idxs))
        out = self._O.get(key)
        if out is None:
            sorted_idx, sgn = key
            out = (self.O_closed_form(sorted_idx) if sgn > 0
                   else -self.O(sorted_idx))
            self._O[key] = out
        return out

    def O_closed_form(self, idxs):
        """The closed-form O_A expansion of the module docstring."""
        idxs = tuple(sorted(idxs))
        alg = self.alg
        F = alg.field
        n = len(idxs)
        eA = alg.e_set(idxs)
        acc = alg.scalar(alg.h.t * F.rational(Fraction(n - 1, 2)))
        for a in idxs:
            acc = acc + self.ocheck(a) * alg.e(a)
        for a, b in combinations(idxs, 2):
            acc = acc - self.M(a, b) * alg.e(a) * alg.e(b)
        return acc * eA

    def project_O(self, idxs):
        """-(t/2) P(e_A), the projection-based definition of O_A."""
        alg = self.alg
        eA = alg.e_set(sorted(idxs))
        return self.osp.project(eA).scale(
            alg.h.t * alg.field.rational(Fraction(-1, 2)))

    # O_A for |A| = 4, 5 as weighted antisymmetrised products of O over
    # blocks of its indices (a one-index block gives Ocheck_j), at t = 1
    RECONSTRUCTIONS = {4: ((6, (2, 2)), (-8, (3, 1))),
                       5: ((4, (3, 2)), (48, (3, 1, 1)), (-36, (2, 2, 1)))}

    def reconstruction_residual(self, idxs):
        """O_A minus its antisymmetrised-product expansion (4 or 5 indices),
        at symbolic t; the expansions are normalised for t = 1."""
        idxs = tuple(idxs)
        terms = self.RECONSTRUCTIONS.get(len(idxs))
        if terms is None:
            raise ValueError("reconstruction defined for 4 or 5 indices")
        res = self.O(idxs)
        for weight, blocks in terms:
            res = res - self.antisymmetrize(blocks, idxs).scale(weight)
        return res

    # -- antisymmetriser -----------------------------------------------------
    def antisymmetrize(self, blocks, idxs):
        """(1/n!) sum_p sign(p) prod_k O(block k of idxs permuted by p).

        The product is skew within each block, so this is
        prod_k |b_k|! / n! times the sum over the index positions that
        increase within each block."""
        acc = {}
        for pos in _block_tuples(range(len(idxs)), blocks):
            rest = iter([idxs[q] for q in pos])
            term = reduce(mul, [self.O(islice(rest, b)) for b in blocks])
            (add_into if perm_sign(pos) > 0 else sub_into)(
                acc, term.terms.items())
        return self.alg.zero()._new(acc).scale(Fraction(
            prod(map(factorial, blocks)), factorial(len(idxs))))

    # -- distinguished elements ---------------------------------------------
    def gamma_element(self):
        """Pseudo-scalar Gamma embedded into H (x) C."""
        alg = self.alg
        g = pseudo_scalar(self.d, alg.field)
        z = alg.h.zero_exp
        return HCElement(alg, {(z, z, alg.h.id_idx, m): v
                               for m, v in g.terms.items()})

    def dirac(self):
        """D = Gamma * Scasimir, built once."""
        if self._dirac is None:
            self._dirac = self.gamma_element() * self.osp.scasimir
        return self._dirac

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

    def graded_central_in_tama(self, z):
        """Graded-commutation of z with rho(s~), O_ij, O_ijk; returns failures."""
        alg = self.alg
        fails = []
        for r_idx in range(len(alg.rd.positive_roots)):
            if not z.gbracket(alg.rho_reflection(r_idx)).is_zero():
                fails.append(f"rho(s~_{r_idx})")
        pairs = list(combinations(range(1, self.d + 1), 2))
        triples = list(combinations(range(1, self.d + 1), 3))
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
            # (r22-shared-literal) holds on A r2 but fails on A r3, D r4,
            # B r3 and A1^3, each first at (1, 2, 3)
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

    # the relations in report order, each with its block structure: the
    # runs of index positions that are interchangeable; the arity is the
    # sum of the blocks
    RELATIONS = {
        "r21-cyclic": (3,), "r31-alt": (4,), "r22-shared": (1, 1, 1),
        "r22-shared-literal": (1, 1, 1), "r22-disjoint": (2, 2),
        "r23-disjoint": (2, 3), "r23-shared1": (1, 1, 2),
        "r23-shared2": (2, 1), "r33-equal": (3,), "r33-shared2": (2, 2),
        "r33-shared1": (1, 2, 2), "r33-disjoint": (3, 3),
    }

    def relation_index_tuples(self, name):
        """All distinct-index assignments, deduplicated by skew-symmetry:
        the tuples that increase within each block of the relation."""
        return list(_block_tuples(range(1, self.d + 1), self.RELATIONS[name]))

    # -- one residual per orbit ------------------------------------------------
    @cached_property
    def orbit_swaps(self):
        """The j (0-based) of the coordinate swaps tau = (j+1 j+2) of
        `RootDatum.coordinate_swaps` whose key map phi (`HCAlgebra.swap_map`)
        passes the premise: phi(O_A) == O_{tau(A)} exactly, with the sign
        of the unsorted tau(A), for every A with |A| <= min(d, 5).

        Built on first use, by the first relation evaluated.  A swap that
        `swap_map` refuses, or whose premise fails at some A, is left out.
        """
        alg = self.alg
        pool = range(1, self.d + 1)
        sets = [A for n in range(1, min(self.d, 5) + 1)
                for A in combinations(pool, n)]
        out = []
        for j, orbits in alg.rd.coordinate_swaps:
            phi = alg.swap_map(j, orbits)
            if phi is not None and all(phi(self.O(A)) == self._swapped_O(A, j)
                                       for A in sets):
                out.append(j)
        return out

    def _swapped_O(self, A, j):
        """O_{tau(A)} for tau = (j+1 j+2) and a sorted A: tau(A) is sorted
        unless it swaps two entries of A, and then it is -O_A, which is
        formed here and not memoised."""
        if j + 1 in A and j + 2 in A:
            return -self.O(A)
        tau = {j + 1: j + 2, j + 2: j + 1}
        return self.O([tau.get(a, a) for a in A])

    def relation_orbits(self, name):
        """{tuple: the first tuple of its orbit}, over the relation's index
        tuples in their order, under the group that `orbit_swaps` generate.

        A swap acts on each index, and its image is re-sorted within each
        block, where the relation is skew or symmetric.  Adjacent swaps
        generate the symmetric group of each run of coordinates they
        connect, so an orbit is fixed by the runs of the entries of each
        block, and its first tuple takes the smallest free coordinates of
        each run, block by block.  With no swap every tuple is its own
        orbit.
        """
        joined = set(self.orbit_swaps)
        runs, run_of = [], {}
        for v in range(1, self.d + 1):
            if v - 2 in joined:         # tau = (v-1 v) joins v to its run
                runs[-1].append(v)
            else:
                runs.append([v])
            run_of[v] = len(runs) - 1
        blocks = self.RELATIONS[name]
        out = {}
        for tup in self.relation_index_tuples(name):
            taken = [0] * len(runs)
            first = []
            pos = 0
            for n in blocks:
                block = []
                for v in tup[pos:pos + n]:
                    k = run_of[v]
                    block.append(runs[k][taken[k]])
                    taken[k] += 1
                first += sorted(block)
                pos += n
            out[tup] = tuple(first)
        if any(out.get(first) != first for first in set(out.values())):
            raise AssertionError(f"{name}: an orbit's first tuple is not "
                                 f"one of the relation's tuples")
        return out

    # -- Scasimir identities -------------------------------------------------
    def sgamma_residual(self):
        """S Gamma - (i^{d(d-1)/2}/t) O_{1..d}, with O_{1..d} in closed form
        for every d."""
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
        """The Dirac identities for one admissible r = rho_omega, with
        D_w = D + r, eps = eps_omega and C = Omega_osp + 1/4: D_bullet
        D^bullet = D, D_square D^2 = C, Domega_bullet D_w^bullet = D_w,
        Domega_square D_w^2 = C + r^2 + (1 + eps) r D and vogan_identity
        {D_w, D_w/2 - r} + r^2 = C.  The product is bilinear, so r^2 cancels
        and is never formed: with bullet = D^bullet - D, square = D^2 - C
        and twist = D r - eps r D, the residuals are exactly bullet, square,
        bullet + r^bullet - r, square + twist and square."""
        D = self.dirac()
        bullet = D.bullet() - D
        square = D * D - self.osp.Omega_quarter
        twist = (D.commutator if eps_omega > 0
                 else D.anticommutator)(rho_omega)
        return {"D_bullet": bullet.is_zero(), "D_square": square.is_zero(),
                "Domega_bullet": (bullet + (rho_omega.bullet()
                                            - rho_omega)).is_zero(),
                "Domega_square": (square + twist).is_zero(),
                "vogan_identity": square.is_zero()}

    def epsilon_commutation_residuals(self):
        """D rho(w~) - eps(rho(w~)) rho(w~) D over canonical cover lifts."""
        alg = self.alg
        D = self.dirac()
        fails = []
        for g in range(len(alg.rd.elements)):
            r = alg.rho((g, 1))
            if alg.pin.epsilon(g) > 0:
                res = D.commutator(r)
            else:
                res = D.anticommutator(r)
            if not res.is_zero():
                fails.append(g)
        return fails
