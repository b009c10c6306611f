"""Clifford algebra C(V, B) on orthonormal generators e_1..e_d, e_j^2 = 1.

Basis subsets are stored as bitmasks; multiplication of basis elements is
a popcount-style sign computation plus xor.  `cunit_mul` multiplies two
{mask: value} sums, for the pin cocycle on ints as well as for
`CliffordElement`, whose linear operations come from `sparse`.
`reversion_sign` is the sign of the anti-involution on a basis element,
shared by `CliffordElement.star`, `HCElement.bullet` and the cover
algebra's bullet.
"""

from __future__ import annotations

from .sparse import SparseElement


def basis_sign(a, b):
    """Sign of e_A * e_B relative to e_{A xor B}, with e_j^2 = +1.

    Moving each e_j (j in B) left past the e_i (i in A, i > j) costs one
    sign each, so the sign is the parity of sum_{k>=1} |(A >> k) & B|;
    xor-ing the terms keeps that parity.
    """
    acc = 0
    a >>= 1
    while a:
        acc ^= a & b
        a >>= 1
    return -1 if acc.bit_count() & 1 else 1


def reversion_sign(mask):
    """Sign of e_A -> (-1)^{|A|} reversed(e_A): (-1)^{k(k+1)/2}, k = |A|."""
    k = mask.bit_count()
    return -1 if k * (k + 1) // 2 % 2 else 1


def cunit_mul(u, v):
    """Product of Clifford elements given as {mask: value}.

    Values are int (the pin cocycle), Coeff or Scalar.
    """
    # An inline loop, not sparse.add_into: on the int units of the pin
    # cocycle, the hot loop of the cover-s5 benchmark, feeding add_into
    # from a generator measured 1.24x slower (S5 units, Python 3.11).
    out = {}
    for ma, va in u.items():
        for mb, vb in v.items():
            m = ma ^ mb
            w = va * vb
            if basis_sign(ma, mb) < 0:
                w = -w
            acc = out.get(m)
            acc = w if acc is None else acc + w
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
    return out


def mask_str(mask):
    idx = []
    j = 1
    k = 1
    while j <= mask:
        if mask & j:
            idx.append(str(k))
        j <<= 1
        k += 1
    if not idx:
        return "1"
    return "e{" + ",".join(idx) + "}"


class CliffordElement(SparseElement):
    """Sum of basis elements e_A, A a bitmask subset; `alg` is the dimension."""

    __slots__ = ()

    @staticmethod
    def zero(dim, field):
        return CliffordElement(dim, {})

    @staticmethod
    def one(dim, field):
        return CliffordElement(dim, {0: field.one})

    @staticmethod
    def generator(dim, j, field):
        """e_j, 1-based index."""
        if not 1 <= j <= dim:
            raise IndexError(f"generator index {j} out of range")
        return CliffordElement(dim, {1 << (j - 1): field.one})

    def __mul__(self, o):
        self._chk(o)
        return self._new(cunit_mul(self.terms, o.terms))

    def parity(self):
        """Z2-degree if homogeneous, else None."""
        ps = {m.bit_count() % 2 for m in self.terms}
        if len(ps) == 1:
            return ps.pop()
        return None if ps else 0

    def star(self):
        """Anti-involution e_A -> (-1)^{|A|} reversed(e_A), conjugate-linear."""
        return self._new({
            m: v.conjugate() if reversion_sign(m) > 0 else -v.conjugate()
            for m, v in self.terms.items()})

    def __hash__(self):
        return hash((self.alg, tuple(sorted(self.terms.items()))))

    @staticmethod
    def _term(m, v):
        return m, f"({v})*{mask_str(m)}"


def pseudo_scalar(dim, field):
    """Gamma = i^{d(d-1)/2} e_1..e_d; squares to 1."""
    phase = field.i_power(dim * (dim - 1) // 2)
    return CliffordElement(dim, {(1 << dim) - 1: phase})
