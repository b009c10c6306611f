"""Clifford algebra C(V, B) on orthonormal generators e_1..e_d, e_j^2 = 1.

Basis subsets are stored as bitmasks; multiplication of basis elements is
a popcount-style sign computation plus xor.
"""

from __future__ import annotations


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


class CliffordElement:
    """Scalar-weighted sum of basis elements e_A, A a bitmask subset."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.terms = {m: v for m, v in (terms or {}).items() if not v.is_zero()}

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

    def _chk(self, o):
        if self.dim != o.dim:
            raise ValueError("Clifford dimension mismatch")

    def __add__(self, o):
        self._chk(o)
        out = dict(self.terms)
        for m, v in o.terms.items():
            w = out.get(m)
            w = v if w is None else w + v
            if w.is_zero():
                out.pop(m, None)
            else:
                out[m] = w
        return CliffordElement(self.dim, out)

    def __neg__(self):
        return CliffordElement(self.dim, {m: -v for m, v in self.terms.items()})

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        self._chk(o)
        out = {}
        for ma, va in self.terms.items():
            for mb, vb in o.terms.items():
                m = ma ^ mb
                v = va * vb
                if basis_sign(ma, mb) < 0:
                    v = -v
                w = out.get(m)
                w = v if w is None else w + v
                if w.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = w
        return CliffordElement(self.dim, out)

    def scale(self, sc):
        return CliffordElement(self.dim, {m: v * sc for m, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def parity(self):
        """Z2-degree if homogeneous, else None."""
        ps = {bin(m).count("1") % 2 for m in self.terms}
        if len(ps) == 1:
            return ps.pop()
        return None if ps else 0

    def star(self):
        """Anti-involution e_A -> (-1)^{|A|} reversed(e_A), conjugate-linear."""
        out = {}
        for m, v in self.terms.items():
            k = bin(m).count("1")
            sgn = -1 if (k * (k + 1) // 2) % 2 else 1
            w = v.conjugate()
            out[m] = -w if sgn < 0 else w
        return CliffordElement(self.dim, out)

    def __eq__(self, o):
        return self.dim == o.dim and self.terms == o.terms

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.terms.items()))))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.terms[m]})*{mask_str(m)}" for m in sorted(self.terms)
        )

    __repr__ = __str__


def pseudo_scalar(dim, field):
    """Gamma = i^{d(d-1)/2} e_1..e_d; squares to 1."""
    phase = field.i_power(dim * (dim - 1) // 2)
    return CliffordElement(dim, {(1 << dim) - 1: phase})
