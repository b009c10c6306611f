"""The sparse core: one accumulator and one element base for every layer.

Everything the verifier computes is a finite sum over basis keys with
nonzero values in a dict: a Laurent scalar {exponent: Coeff}, an element
of H_{t,c} {(a, b, g): Scalar}, of H (x) C(V) {(a, b, g, mask, e): Coeff}
(flat: one level, with e the packed exponent of the scalar's monomial)
or of C(V) {mask: value}, a row of a polyspinor matrix {(col, e): Coeff}
(flat in the same way), and a cover-algebra vector {g: Coeff}.
`add_into` is the one loop that accumulates such a sum, and `sub_into`
its difference, which negates only the keys new to the left operand.
`SparseElement` holds the linear operations the element types share,
which act on the values whatever their type; `HElement`, `HCElement` and
`CliffordElement` add their product, their involution and how a term
prints; `HCElement` adds `scale`, `map_scalars`, grouped printing and one
pair loop (its brackets; its product is tau = 0), its basis elements
written by key.  Only H (x) C has a full set of basis constructors:
H keeps `HAlgebra.monomial`, and C(V) none.
"""

from __future__ import annotations

from numbers import Rational


def add_into(out, pairs):
    """Add each (key, value) of `pairs` into the dict `out`; returns `out`.

    A key whose sum is zero is removed and a zero value is never stored,
    so `out` stays free of zeros.  Values may be of any type with `+`
    whose truth value is False exactly at zero (int, Coeff, Scalar).
    """
    for k, v in pairs:
        w = out.get(k)
        if w is not None:
            v = w + v
        if v:
            out[k] = v
        elif w is not None:
            del out[k]
    return out


def sub_into(out, pairs):
    """Subtract each (key, value) of `pairs` from the dict `out`; returns
    `out`.

    A key already in `out` takes the difference w - v and a new key the
    negation -v, so only the new keys are negated; as in `add_into`, a
    key whose difference is zero is removed and no zero is stored.
    """
    for k, v in pairs:
        w = out.get(k)
        if w is None:
            if v:
                out[k] = -v
            continue
        v = w - v
        if v:
            out[k] = v
        else:
            del out[k]
    return out


class SparseElement:
    """A sum of basis terms, `terms` = {key: nonzero value}, in a context.

    `alg` is the context both operands of a binary operation must share:
    an algebra object, compared by identity, or the dimension of C(V).
    A subclass defines `__mul__`, its involution, and `_term(key, value)`,
    which returns the (sort key, text) by which `str` orders and prints
    one term.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = {k: v for k, v in terms.items() if v}

    def _new(self, terms):
        """An element of this type and context, without the zero filter of
        `__init__`: `terms` must hold no zero, as do the sums of
        `add_into` and the negations and products of nonzero values."""
        z = object.__new__(type(self))
        z.alg = self.alg
        z.terms = terms
        return z

    def _chk(self, o):
        if self.alg != o.alg:
            raise ValueError("elements from different algebra contexts")

    def __add__(self, o):
        self._chk(o)
        return self._new(add_into(dict(self.terms), o.terms.items()))

    def __neg__(self):
        return self._new({k: -v for k, v in self.terms.items()})

    def __sub__(self, o):
        self._chk(o)
        return self._new(sub_into(dict(self.terms), o.terms.items()))

    def scale(self, sc):
        """Multiply by a scalar; a rational number is embedded through the
        context's `field`."""
        if isinstance(sc, Rational):
            sc = self.alg.field.rational(sc)
        return type(self)(self.alg, {k: v * sc for k, v in self.terms.items()})

    def map_scalars(self, f):
        return type(self)(self.alg, {k: f(v) for k, v in self.terms.items()})

    def commutator(self, o):
        return self * o - o * self

    def is_zero(self):
        return not self.terms

    def __eq__(self, o):
        if type(o) is not type(self):
            return NotImplemented
        return self.alg == o.alg and self.terms == o.terms

    def __str__(self):
        return self._render(self.terms)

    def _render(self, terms):
        """The terms {key: value} in `_term`'s order and text."""
        terms = sorted(self._term(k, v) for k, v in terms.items())
        return " + ".join(text for _key, text in terms) or "0"

    __repr__ = __str__
