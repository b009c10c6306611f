"""Root data and finite reflection groups in orthonormal coordinates.

Supported families: A (S_{rank+1} permuting coordinates of C^ambient),
B_n, D_n and products A1^d of sign flips.  Every group element is a
signed permutation of the orthonormal basis, which keeps the whole group
action monomial-to-monomial; it is stored as int tuples (perm, sign), so
products and inverses compose permutations instead of multiplying
matrices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

DEFAULT_GROUP_BOUND = 100_000


class UnsupportedFamilyError(ValueError):
    pass


class GroupBoundExceededError(RuntimeError):
    pass


class GroupElement:
    """Signed permutation w with w(y_j) = sign_j * y_{perm_j}.

    Stored as the int tuples (perm, sign); the same data acts on the
    x-coordinates since the matrices are orthogonal and the bases dual.
    `GroupElement(mat)` reads a signed permutation matrix, and `.mat`
    builds it back.
    """

    __slots__ = ("perm", "sign", "det", "_hash")

    def __init__(self, mat):
        d = len(mat)
        perm = []
        sign = []
        for j in range(d):
            col = [mat[i][j] for i in range(d)]
            nz = [i for i in range(d) if col[i]]
            if len(nz) != 1 or col[nz[0]] not in (1, -1):
                raise ValueError("not a signed permutation matrix")
            perm.append(nz[0])
            sign.append(int(col[nz[0]]))
        det = 1
        for s in sign:
            det *= s
        # parity of the permutation
        seen = [False] * d
        for j in range(d):
            if seen[j]:
                continue
            ln = 0
            k = j
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                ln += 1
            if ln % 2 == 0:
                det = -det
        self._set(tuple(perm), tuple(sign), det)

    def _set(self, perm, sign, det):
        self.perm = perm
        self.sign = sign
        self.det = det
        self._hash = hash((perm, sign))

    @classmethod
    def signed_permutation(cls, perm, sign, det):
        """The element with these perm and sign sequences and determinant."""
        g = object.__new__(cls)
        g._set(tuple(perm), tuple(sign), det)
        return g

    @property
    def mat(self):
        """The signed permutation matrix, with int entries."""
        d = len(self.perm)
        return tuple(
            tuple(s if p == i else 0 for p, s in zip(self.perm, self.sign))
            for i in range(d)
        )

    def __eq__(self, o):
        return self.perm == o.perm and self.sign == o.sign

    def __hash__(self):
        return self._hash

    def __mul__(self, o):
        gp, gs = self.perm, self.sign
        return GroupElement.signed_permutation(
            [gp[k] for k in o.perm],
            [s * gs[k] for k, s in zip(o.perm, o.sign)],
            self.det * o.det)

    def inverse(self):
        d = len(self.perm)
        perm = [0] * d
        sign = [0] * d
        for j, (p, s) in enumerate(zip(self.perm, self.sign)):
            perm[p] = j
            sign[p] = s
        return GroupElement.signed_permutation(perm, sign, self.det)

    def apply_exp(self, exps):
        """Image of the monomial with exponent vector `exps`: (new_exps, sign).

        Works for both x- and y-monomials (signed permutation action).
        """
        d = len(self.perm)
        out = [0] * d
        sgn = 1
        for j, k in enumerate(exps):
            if k:
                out[self.perm[j]] = k
                if self.sign[j] < 0 and k % 2:
                    sgn = -sgn
        return tuple(out), sgn

    def __repr__(self):
        return f"GroupElement(perm={self.perm}, sign={self.sign})"


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def reflection_matrix(alpha, coroot):
    """s_alpha = I - coroot * alpha^T in the orthonormal coordinates."""
    d = len(alpha)
    return tuple(
        tuple((1 if i == j else 0) - coroot[i] * alpha[j] for j in range(d))
        for i in range(d)
    )


class RootDatum:
    """Positive roots, coroots, reflections and orbit labels for W in O(d)."""

    def __init__(self, family, rank, ambient_dim, single_c=False,
                 group_bound=DEFAULT_GROUP_BOUND):
        family = family.upper()
        if family.startswith("A1"):
            family = "A1"
        if family not in ("A", "B", "D", "A1"):
            raise UnsupportedFamilyError(f"unsupported family {family!r}")
        d = ambient_dim
        if family == "A":
            if d < rank + 1:
                raise UnsupportedFamilyError("type A needs ambient_dim >= rank+1")
            pos = [self._e(i, d, 1, j, -1) for i, j in combinations(range(rank + 1), 2)]
            labels = [0] * len(pos)
        elif family == "B":
            if d < rank:
                raise UnsupportedFamilyError("type B needs ambient_dim >= rank")
            long_roots = [self._e(i, d, 1, j, -1) for i, j in combinations(range(rank), 2)]
            long_roots += [self._e(i, d, 1, j, 1) for i, j in combinations(range(rank), 2)]
            short_roots = [self._e(i, d, 1) for i in range(rank)]
            pos = long_roots + short_roots
            labels = [0] * len(long_roots) + [1] * len(short_roots)
        elif family == "D":
            if d < rank:
                raise UnsupportedFamilyError("type D needs ambient_dim >= rank")
            pos = [self._e(i, d, 1, j, -1) for i, j in combinations(range(rank), 2)]
            pos += [self._e(i, d, 1, j, 1) for i, j in combinations(range(rank), 2)]
            labels = [0] * len(pos)
        else:  # A1^rank
            if d < rank:
                raise UnsupportedFamilyError("A1 product needs ambient_dim >= rank")
            pos = [self._e(i, d, 1) for i in range(rank)]
            labels = list(range(rank))
        self.family = family
        self.rank = rank
        self.dim = d
        self.positive_roots = [tuple(r) for r in pos]
        self.coroots = []
        self.root_norms_sq = []
        for alpha in self.positive_roots:
            n2 = _dot(alpha, alpha)
            self.root_norms_sq.append(n2)
            self.coroots.append(tuple(Fraction(2 * a, n2) for a in alpha))
        if single_c:
            labels = [0] * len(labels)
        self.orbit_labels = list(labels)
        self.num_orbits = (max(labels) + 1) if labels else 0
        self.reflections = [
            GroupElement(reflection_matrix(a, cr))
            for a, cr in zip(self.positive_roots, self.coroots)
        ]
        self.expected_order = group_order(family, rank)
        self.group_bound = group_bound
        self._elements = None
        self._index = None
        self._mul_table = None
        self._inv_table = None
        self._classes = None

    @staticmethod
    def _e(i, d, si, j=None, sj=None):
        v = [0] * d
        v[i] = si
        if j is not None:
            v[j] = sj
        return tuple(v)

    # -- group enumeration ---------------------------------------------------
    @property
    def elements(self):
        if self._elements is None:
            self._enumerate()
        return self._elements

    def _enumerate(self):
        gens = self.reflections
        ident = self._identity()
        seen = {ident: 0}
        order = [ident]
        frontier = [ident]
        while frontier:
            new = []
            for g in frontier:
                for s in gens:
                    h = g * s
                    if h not in seen:
                        if len(seen) >= self.group_bound:
                            raise GroupBoundExceededError(
                                f"group order exceeds bound {self.group_bound}")
                        seen[h] = len(order)
                        order.append(h)
                        new.append(h)
            frontier = new
        if len(order) != self.expected_order:
            raise AssertionError(
                f"enumerated {len(order)} elements, expected {self.expected_order}")
        self._elements = order
        self._index = seen

    def index_of(self, g):
        if self._index is None:
            self._enumerate()
        return self._index[g]

    @property
    def mul_table(self):
        if self._mul_table is None:
            els = self.elements
            n = len(els)
            idx = self._index
            self._mul_table = [
                [idx[els[i] * els[j]] for j in range(n)] for i in range(n)
            ]
            self._inv_table = [idx[g.inverse()] for g in els]
        return self._mul_table

    @property
    def inv_table(self):
        self.mul_table
        return self._inv_table

    @property
    def identity_index(self):
        return self.index_of(self._identity())

    def _identity(self):
        d = self.dim
        return GroupElement.signed_permutation(range(d), (1,) * d, 1)

    def reflection_index(self, root_idx):
        return self.index_of(self.reflections[root_idx])

    # -- structure ----------------------------------------------------------
    def conjugacy_classes(self):
        """Partition of element indices into conjugacy classes (sorted)."""
        if self._classes is None:
            tbl = self.mul_table
            inv = self.inv_table
            n = len(self.elements)
            assigned = [None] * n
            classes = []
            for g in range(n):
                if assigned[g] is not None:
                    continue
                cls = sorted({tbl[tbl[inv[w]][g]][w] for w in range(n)})
                for h in cls:
                    assigned[h] = len(classes)
                classes.append(cls)
            self._classes = classes
        return self._classes

    def contains_minus_identity(self):
        """(found, element) with element = -I when present."""
        d = self.dim
        minus = GroupElement.signed_permutation(range(d), (-1,) * d,
                                                (-1) ** d)
        if self._index is None:
            self._enumerate()
        if minus in self._index:
            return True, minus
        return False, None

    def cycle_type_label(self, g):
        """Signed-cycle-type string of a group element, for reports."""
        d = self.dim
        seen = [False] * d
        cycles = []
        for j in range(d):
            if seen[j]:
                continue
            ln, sgn, k = 0, 1, j
            while not seen[k]:
                seen[k] = True
                sgn *= g.sign[k]
                k = g.perm[k]
                ln += 1
            cycles.append((ln, sgn))
        cycles.sort(key=lambda t: (-t[0], -t[1]))
        return ",".join(f"{ln}{'-' if sgn < 0 else ''}" for ln, sgn in cycles)


def group_order(family, rank):
    """|W| for a family ("A", "B", "D" or "A1") of the given rank."""
    if family == "A":
        return factorial(rank + 1)
    if family == "B":
        return 2 ** rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    if family == "A1":
        return 2 ** rank
    raise UnsupportedFamilyError(f"unsupported family {family!r}")


def parse_family(spec):
    """Parse CLI family strings: "A", "B", "D" or "A1^d"."""
    s = spec.strip().upper()
    if "^" in s:
        head, _, tail = s.partition("^")
        if head != "A1":
            raise UnsupportedFamilyError(f"unsupported family {spec!r}")
        try:
            rank = int(tail)
        except ValueError:
            raise UnsupportedFamilyError(f"bad A1 product rank in {spec!r}")
        return "A1", rank
    if s in ("A", "B", "D", "A1"):
        return s, None
    raise UnsupportedFamilyError(f"unsupported family {spec!r}")
