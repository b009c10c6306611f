"""Clifford algebra C(V, B) on orthonormal generators e_1..e_d, e_j^2 = 1.

Basis subsets are stored as bitmasks; e_A e_B is the sign
(-1)^{|P(A) & B|} times e_{A xor B}, with the mask P(A) of `sign_mask`
computed once per left term of a product.  `cunit_mul` multiplies two
{mask: value} sums, for the pin cocycle on ints as well as for
`CliffordElement`, whose linear operations come from `sparse`; it has no
constructor of its own: `pseudo_scalar` writes its one term by mask.
`reversion_sign` is the sign of the anti-involution on a basis element,
shared by `CliffordElement.star`, `HCElement.bullet` and the cover
algebra's bullet.
"""

from __future__ import annotations

from .sparse import SparseElement


def sign_mask(a):
    """P(A) = xor of A >> k over k >= 1: e_A e_B = (-1)^{|P(A) & B|} e_{A^B}.

    Moving each e_j (j in B) left past the e_i (i in A, i > j) costs one
    sign each, so the sign is the parity of sum_{k>=1} |(A >> k) & B|;
    & distributes over xor, which keeps that parity.  A product computes
    P once per left term.
    """
    p = 0
    a >>= 1
    while a:
        p ^= a
        a >>= 1
    return p


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
        pa = sign_mask(ma)
        for mb, vb in v.items():
            m = ma ^ mb
            w = va * vb
            if (pa & mb).bit_count() & 1:
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

    def __mul__(self, o):
        self._chk(o)
        return self._new(cunit_mul(self.terms, o.terms))

    def star(self):
        """Anti-involution e_A -> (-1)^{|A|} reversed(e_A), conjugate-linear."""
        return self._new({
            m: v.conjugate() if reversion_sign(m) > 0 else -v.conjugate()
            for m, v in self.terms.items()})

    @staticmethod
    def _term(m, v):
        return m, f"({v})*{mask_str(m)}"


def pseudo_scalar(dim, field):
    """Gamma = i^{d(d-1)/2} e_1..e_d; squares to 1."""
    phase = field.i_power(dim * (dim - 1) // 2)
    return CliffordElement(dim, {(1 << dim) - 1: phase})
