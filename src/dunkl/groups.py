"""Root data and finite reflection groups in orthonormal coordinates.

Supported families: A (S_{rank+1} permuting coordinates of C^ambient),
B_n, D_n and products A1^d of sign flips.  Every root is +-e_i or
+-(e_i + sigma e_j), so every reflection, and with it every group
element, is a signed permutation of the orthonormal basis, which keeps
the whole group action monomial-to-monomial.  An element is stored only
as the int tuples (perm, sign) and its determinant: products and
inverses compose permutations, and the element list, its index and the
multiplication and inverse tables are derived once from the reflections.
The breadth-first search that lists the elements also records each
element's parent (`parents`); the multiplication table builds every row
but the reflections' by int lookups in its parent's row, and the pin
cover builds every lift from its parent's.  `conjugation_orbit` is the
one walk of a conjugacy class, under conjugation by the reflections, and
may carry a sign along its edges: it lists the classes here, the split
classes of the pin cover and the sign chains of the epsilon-centre.
`coordinate_swaps` lists the adjacent coordinate swaps that map the root
system to itself, which the relation suite's orbits are built from.  A
group of order above `GROUP_BOUND`, or an ambient dimension above
`AMBIENT_CAP`, is refused before any root is built.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import factorial

GROUP_BOUND = 100_000
# every root, and every exponent tuple of the algebras built on a datum,
# holds d ints, and the osp and centre suites grow with d: on A rank 1
# they take 17-23 s and 78 MB at d = 16 (2 cores, Python 3.11.7)
AMBIENT_CAP = 16


class UnsupportedFamilyError(ValueError):
    pass


class GroupBoundExceededError(RuntimeError):
    pass


class AmbientBoundExceededError(ValueError):
    pass


class GroupElement:
    """Signed permutation w with w(y_j) = sign_j * y_{perm_j}.

    Stored only as the int tuples (perm, sign) and the determinant det;
    the same data acts on the x-coordinates since the matrices are
    orthogonal and the bases dual.  `.mat` builds the int matrix.
    """

    __slots__ = ("perm", "sign", "det", "_hash")

    def __init__(self, perm, sign, det):
        self.perm = tuple(perm)
        self.sign = tuple(sign)
        self.det = det
        self._hash = hash((self.perm, self.sign))

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
        return GroupElement([gp[k] for k in o.perm],
                            [s * gs[k] for k, s in zip(o.perm, o.sign)],
                            self.det * o.det)

    def inverse(self):
        d = len(self.perm)
        perm = [0] * d
        sign = [0] * d
        for j, (p, s) in enumerate(zip(self.perm, self.sign)):
            perm[p] = j
            sign[p] = s
        return GroupElement(perm, sign, self.det)

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


def reflection(alpha):
    """s_alpha for a root alpha = +-e_i or +-(e_i + sigma e_j), sigma = +-1.

    s_alpha(y) = y - <y, alpha^vee> alpha flips the sign at i for
    alpha = +-e_i, and for alpha = +-(e_i + sigma e_j) maps e_i to
    -sigma e_j and e_j to -sigma e_i; either way det = -1.
    """
    nz = [j for j, a in enumerate(alpha) if a]
    if not nz or len(nz) > 2 or any(alpha[j] not in (1, -1) for j in nz):
        raise ValueError(f"root {alpha} is not +-e_i or +-(e_i +- e_j)")
    perm = list(range(len(alpha)))
    sign = [1] * len(alpha)
    if len(nz) == 1:
        sign[nz[0]] = -1
    else:
        i, j = nz
        perm[i], perm[j] = j, i
        sign[i] = sign[j] = -alpha[i] * alpha[j]
    return GroupElement(perm, sign, -1)


class RootDatum:
    """Positive roots, reflections and orbit labels for W in O(d)."""

    def __init__(self, family, rank, ambient_dim, single_c=False):
        family = family.upper()
        if family.startswith("A1"):
            family = "A1"
        if family not in ("A", "B", "D", "A1"):
            raise UnsupportedFamilyError(f"unsupported family {family!r}")
        # checked before any root is built: a large rank or ambient
        # dimension would otherwise allocate its roots and reflections first
        if order_exceeds(family, rank, GROUP_BOUND):
            raise GroupBoundExceededError(
                f"|W| of {family} rank {rank} exceeds the bound {GROUP_BOUND}")
        if ambient_dim > AMBIENT_CAP:
            raise AmbientBoundExceededError(
                f"ambient dimension {ambient_dim} is over the limit of "
                f"{AMBIENT_CAP}")
        self.expected_order = group_order(family, rank)
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
            if rank < 2:
                raise UnsupportedFamilyError("type D needs rank >= 2")
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
        self.root_norms_sq = [sum(a * a for a in alpha)
                              for alpha in self.positive_roots]
        if single_c:
            labels = [0] * len(labels)
        self.orbit_labels = list(labels)
        self.num_orbits = (max(labels) + 1) if labels else 0
        self.reflections = [reflection(a) for a in self.positive_roots]

    @staticmethod
    def _e(i, d, si, j=None, sj=None):
        v = [0] * d
        v[i] = si
        if j is not None:
            v[j] = sj
        return tuple(v)

    # -- group enumeration ---------------------------------------------------
    # the breadth-first search starts at the identity, so it has index 0
    identity_index = 0

    @cached_property
    def _search(self):
        """Breadth-first search over the reflections: the map {element:
        index} and the list `parents`."""
        d = self.dim
        ident = GroupElement(range(d), (1,) * d, 1)
        seen = {ident: 0}
        parents = [None]
        frontier = [ident]
        while frontier:
            new = []
            for g in frontier:
                gi = seen[g]
                for r, s in enumerate(self.reflections):
                    h = g * s
                    if h not in seen:
                        seen[h] = len(seen)
                        parents.append((gi, r))
                        new.append(h)
            frontier = new
        if len(seen) != self.expected_order:
            raise AssertionError(
                f"enumerated {len(seen)} elements, expected {self.expected_order}")
        return seen, parents

    @cached_property
    def _index(self):
        """{element: index}, in breadth-first order over the reflections."""
        return self._search[0]

    @cached_property
    def parents(self):
        """The breadth-first tree: element i is element g times reflection
        r for (g, r) = parents[i], with g < i; the identity has None."""
        return self._search[1]

    @cached_property
    def elements(self):
        return list(self._index)

    def index_of(self, g):
        return self._index[g]

    @cached_property
    def mul_table(self):
        """mul_table[g][h] is the index of g h.

        Only the rows L_s[x] = index of s x of the reflections s multiply
        elements; every other row is its breadth-first parent's row read
        through one of them, row(g s)[x] = row(g)[L_s[x]].
        """
        idx = self._index
        els = self.elements
        left = [[idx[s * x] for x in els] for s in self.reflections]
        rows = [list(range(len(els)))]
        for g, r in self.parents[1:]:
            rows.append(list(map(rows[g].__getitem__, left[r])))
        return rows

    @cached_property
    def inv_table(self):
        idx = self._index
        return [idx[g.inverse()] for g in self.elements]

    def reflection_index(self, root_idx):
        return self._index[self.reflections[root_idx]]

    @cached_property
    def coordinate_swaps(self):
        """The adjacent coordinate swaps tau = (j+1 j+2), j 0-based, that
        map the root system to itself, as (j, orbits) with orbits[k] the
        orbit label of tau(alpha) for each root alpha of label k.

        Each swap is checked against the roots: it must send every
        positive root to a root whose label is a function of the root's
        own.  Only the d - 1 adjacent swaps are tried, never d! elements.
        """
        label = {}
        for alpha, k in zip(self.positive_roots, self.orbit_labels):
            label[alpha] = label[tuple(-a for a in alpha)] = k
        out = []
        for j in range(self.dim - 1):
            orbits = {}
            for alpha, k in zip(self.positive_roots, self.orbit_labels):
                img = alpha[:j] + (alpha[j + 1], alpha[j]) + alpha[j + 2:]
                lbl = label.get(img)
                if lbl is None or orbits.setdefault(k, lbl) != lbl:
                    break
            else:
                out.append((j, tuple(orbits[k]
                                     for k in range(self.num_orbits))))
        return out

    # -- structure ----------------------------------------------------------
    def conjugation_orbit(self, g, step=None):
        """Breadth-first walk of the conjugacy class of g under h -> s h s,
        over the reflections s, which generate W.

        Returns (signs, consistent).  signs maps each element reached to
        the product of step(s, h) over the edges h -> s h s of its walk
        from g (every sign is 1 without a step).  The walk stops with
        consistent False at the first element reached with two different
        signs; a consistent walk has reached the whole class.  Only the
        reflections' rows of `mul_table` are read: s h s = (s (s h)^-1)^-1.
        """
        tbl, inv = self.mul_table, self.inv_table
        rows = [(s, tbl[s]) for s in map(self.index_of, self.reflections)]
        signs = {g: 1}
        frontier = [g]
        while frontier:
            new = []
            for h in frontier:
                for s, row in rows:
                    k = inv[row[inv[row[h]]]]
                    sign = signs[h] if step is None else signs[h] * step(s, h)
                    if k not in signs:
                        signs[k] = sign
                        new.append(k)
                    elif signs[k] != sign:
                        return signs, False
            frontier = new
        return signs, True

    def conjugacy_classes(self):
        """Partition of element indices into conjugacy classes (sorted)."""
        return self._classes

    @cached_property
    def _classes(self):
        classes = []
        assigned = set()
        for g in range(len(self.elements)):
            if g not in assigned:
                cls = sorted(self.conjugation_orbit(g)[0])
                assigned.update(cls)
                classes.append(cls)
        return classes

    def contains_minus_identity(self):
        """(found, element) with element = -I when present."""
        d = self.dim
        minus = GroupElement(range(d), (-1,) * d, (-1) ** d)
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


def order_exceeds(family, rank, bound):
    """Whether |W| > bound.  Every family has |W| >= 2^rank at rank >= 2,
    so a rank with 2^rank > bound is decided without computing |W|, which
    for a huge rank takes unbounded time and memory."""
    if rank >= 2 and rank >= bound.bit_length():
        return True
    return group_order(family, rank) > bound


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
