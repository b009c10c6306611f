"""Exact arithmetic in the coefficient field Q(i, sqrt2)(s, c_1..c_m).

The ground ring is Q[i, r] / (i^2 + 1, r^2 - 2), a degree-4 field over Q.
An element a + b*i + c*r + d*i*r is stored as four int numerators over
one positive int denominator, with the gcd of the five ints equal to 1
and zero stored as 0/1; its arithmetic uses int operations only.
On top of it, a Scalar is a sparse Laurent polynomial in the deformation
variables (s first, then the orbit parameters c_1..c_m): a dict
{packed exponent: Coeff} whose exponents may be negative and whose values
are never zero.  The constructions divide only by s, t = s^2/2 and t^2,
so these scalars are closed under every operation the verifier makes,
and the conventions t = s^2/2 and sqrt(2t) = s make every square root
needed downstream exact.

An exponent vector (e_0, .., e_m) is packed into the one int
sum_k e_k * 2^(W*k), W = 16 bits a slot, after Monagan and Pearce's
packed exponent vectors.  Each slot is a balanced digit in
[-2^(W-1), 2^(W-1)), so the packing is linear: the exponent of a product
of monomials is the sum of the packed ints, the inverse of a monomial
has the negated int, and the constant monomial is 0.  `pack` refuses a
slot outside that range; a sum whose slot leaves it would carry into the
next slot unnoticed.  No scalar of the verifier comes near the bound of
2^15 = 32768.  Each y that straightening moves past an x removes both
and yields at most one factor t = s^2/2 or c_k, so an exponent is at
most about the (x, y)-degree of the elements multiplied, and the checks
divide only by s, t and t^2.  Those degrees are small and capped
(`--max-degree`, the spinor dimension cap): measured, A r3
osp+centre, D r4 osp, A1^6 relations, and A1^4 and B r3 with every
suite at degree 3 reach no exponent above 6 in absolute value.  Only
code that reads a single slot calls `unpack`: `substitute`,
`substitute_s` and `str` here, `cherednik.filtration_check` (the
c-degree of a term) and `hc.HCAlgebra.swap_map` (the renaming of the
c_k); the variables of `ScalarField` are built with `pack`.

Scalars are immutable, and the dict is already canonical: equal values
have equal `terms` and equal hashes, and nothing is ever reduced.  `+`,
unary `-` and `*` are `poly_add`, `poly_neg` and `poly_mul`; a difference
is `sparse.sub_into`, which subtracts the values of shared exponents and
negates only the new ones; a product with a one-term factor shifts
exponents and multiplies no field elements when that term's coefficient
is 1 or -1 (it negates the values for -1).  A constant factor shifts
nothing: a product by 1 shares the other operand's dict, one by -1
negates its values, and any other constant scales its values without
rebuilding its exponents.  Only a monomial is
invertible here (its exponent is negated and its coefficient inverted):
inverting, or dividing by, a scalar of more than one term raises
NonMonomialDenominatorError.  `str` prints the lowest-terms numerator
over the monic monomial denominator that `_reduce` splits off; `_reduce`
and `poly_gcd` work on dicts keyed by exponent tuples.

An element of H (x) C(V) and a polyspinor matrix store their Coeffs flat
under their packed exponents (see `hc` and `polyspinor`); Scalar is the
type at that boundary.  `unit_sign`
and `mul_coeff` test a Coeff for 1 and -1 on its `_v`, so that such a
factor makes no field product, `mul_int` scales by an integer Coeff
through its numerators, and `Coeff.mul_i_power` multiplies by a
power of i, as a spinor entry does, by swapping parts.

Coeff is the one rational type at run time: a constant such as 1/2 or
d/2 is `ScalarField.rational(n, den)`, which canonicalises its ints with
`_canon`, and no module imports `fractions` when it is loaded.
`Fraction` is read only where a rational is parsed, printed or
evaluated: here in `Coeff` of a non-int, `Coeff.a`..`d` (so `str`) and
`Scalar.substitute`; in `cli`, the `--specialize` parser and the scale
factors of `kernel-rescaling-scan`; and in `polyspinor`, the symbolic
point of `HermitianForm.leading_minor_signs`.
"""

from __future__ import annotations

from math import gcd, lcm

from .sparse import add_into, sub_into


def _of(v):
    """The Coeff with the canonical tuple `v` (see Coeff)."""
    z = object.__new__(Coeff)
    z._v = v
    return z


def _canon(a, b, c, d, q):
    """The Coeff (a + b*i + c*r + d*i*r) / q for ints with q > 0."""
    g = gcd(a, b, c, d, q)
    if g != 1:
        a //= g
        b //= g
        c //= g
        d //= g
        q //= g
    return _of((a, b, c, d, q))


class Coeff:
    """Element a + b*i + c*r + d*i*r of Q(i, sqrt2), with r = sqrt2.

    `_v` is (A, B, C, D, q) with a = A/q, ..., d = D/q, q > 0 and
    gcd(A, B, C, D, q) = 1, so equal elements have equal `_v`.
    """

    __slots__ = ("_v",)

    def __init__(self, a=0, b=0, c=0, d=0):
        if type(a) is int and type(b) is int and type(c) is int \
                and type(d) is int:
            self._v = (a, b, c, d, 1)
            return
        from fractions import Fraction
        fs = [Fraction(x) for x in (a, b, c, d)]
        q = lcm(*(f.denominator for f in fs))
        self._v = _canon(*(f.numerator * (q // f.denominator) for f in fs),
                         q)._v

    def _fraction(self, k):
        """Part k of (a, b, c, d), as a Fraction."""
        from fractions import Fraction
        return Fraction(self._v[k], self._v[4])

    a = property(lambda self: self._fraction(0))
    b = property(lambda self: self._fraction(1))
    c = property(lambda self: self._fraction(2))
    d = property(lambda self: self._fraction(3))

    def __eq__(self, other):
        if not isinstance(other, Coeff):
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        return hash(self._v)

    def is_zero(self):
        a, b, c, d, _ = self._v
        return not (a or b or c or d)

    def __bool__(self):
        a, b, c, d, _ = self._v
        return bool(a or b or c or d)

    def is_rational(self):
        _, b, c, d, _ = self._v
        return not (b or c or d)

    def __add__(self, o):
        a, b, c, d, q = self._v
        e, f, g, h, p = o._v
        if q == p:
            return _canon(a + e, b + f, c + g, d + h, q)
        return _canon(a * p + e * q, b * p + f * q, c * p + g * q,
                      d * p + h * q, q * p)

    def __sub__(self, o):
        a, b, c, d, q = self._v
        e, f, g, h, p = o._v
        if q == p:
            return _canon(a - e, b - f, c - g, d - h, q)
        return _canon(a * p - e * q, b * p - f * q, c * p - g * q,
                      d * p - h * q, q * p)

    def __neg__(self):
        a, b, c, d, q = self._v
        return _of((-a, -b, -c, -d, q))

    def __mul__(self, o):
        a, b, c, d, q = self._v
        e, f, g, h, p = o._v
        return _canon(
            a * e - b * f + 2 * (c * g - d * h),
            a * f + b * e + 2 * (c * h + d * g),
            a * g + c * e - b * h - d * f,
            a * h + d * e + b * g + c * f,
            q * p,
        )

    def mul_i_power(self, k):
        """self * i**k: the real and i parts swap with a sign, and no field
        product is made."""
        a, b, c, d, q = self._v
        k %= 4
        if k == 1:
            return _of((-b, a, -d, c, q))
        if k == 3:
            return _of((b, -a, d, -c, q))
        return self if not k else _of((-a, -b, -c, -d, q))

    def conj_i(self):
        a, b, c, d, q = self._v
        return _of((a, -b, c, -d, q))

    conjugate = conj_i

    def conj_r(self):
        a, b, c, d, q = self._v
        return _of((a, b, -c, -d, q))

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt2)")
        z1 = self.conj_i()
        z2 = self.conj_r()
        z3 = z1.conj_r()
        num = z1 * z2 * z3
        norm = self * num  # rational by Galois theory
        assert norm.is_rational() and not norm.is_zero()
        n, _, _, _, m = norm._v
        if n < 0:
            n, m = -n, -m
        a, b, c, d, q = num._v
        return _canon(a * m, b * m, c * m, d * m, q * n)

    def __str__(self):
        parts = []
        for val, tag in ((self.a, ""), (self.b, "i"), (self.c, "r"), (self.d, "i*r")):
            if val:
                if tag:
                    parts.append(f"{val}*{tag}")
                else:
                    parts.append(f"{val}")
        if not parts:
            return "0"
        return "+".join(parts).replace("+-", "-")

    __repr__ = __str__


C_ZERO = Coeff()
C_ONE = Coeff(1)
C_I = Coeff(0, 1)
C_R = Coeff(0, 0, 1)


def _i_power(n):
    """i**n as a Coeff."""
    return (C_ONE, C_I, Coeff(-1), Coeff(0, -1))[n % 4]


# ---------------------------------------------------------------------------
# packed exponents
# ---------------------------------------------------------------------------

W = 16                    # bits of one exponent slot
_HALF = 1 << (W - 1)
_MASK = (1 << W) - 1


def pack(exps):
    """The int sum_k exps[k] * 2^(W*k); each slot in [-2^(W-1), 2^(W-1))."""
    key = 0
    for k in reversed(exps):
        if not -_HALF <= k < _HALF:
            raise ValueError(f"exponent {k} does not fit a {W}-bit slot")
        key = (key << W) + k
    return key


def unpack(key, n):
    """The n slots of a packed exponent, as a tuple."""
    out = []
    for _ in range(n):
        k = ((key + _HALF) & _MASK) - _HALF
        out.append(k)
        key = (key - k) >> W
    if key:
        raise ValueError(f"packed exponent has more than {n} slots")
    return tuple(out)


# ---------------------------------------------------------------------------
# sparse Laurent polynomials: dict {packed exponent: Coeff}, no zero values
# ---------------------------------------------------------------------------

def poly_add(p, q):
    return add_into(dict(p), q.items())


def poly_neg(p):
    return {e: -v for e, v in p.items()}


# the canonical tuples of 1 and -1, which a product by a constant factor
# tests without calling Coeff.__eq__
_ONE_V = C_ONE._v
_MINUS_ONE_V = Coeff(-1)._v


def unit_sign(c):
    """1 or -1 when the Coeff c is that unit, else 0."""
    v = c._v
    return 1 if v == _ONE_V else -1 if v == _MINUS_ONE_V else 0


def mul_coeff(c, d):
    """c * d for Coeffs, with no field product when c or d is 1 or -1."""
    v = d._v
    if v == _ONE_V:
        return c
    if v == _MINUS_ONE_V:
        return -c
    v = c._v
    if v == _ONE_V:
        return d
    if v == _MINUS_ONE_V:
        return -d
    return c * d


def mul_int(c, u):
    """c * u for a Coeff u that is an integer k: c's four numerators are
    multiplied by k and the result canonicalised once, with no field
    product; for k = 1 or -1 nothing is multiplied."""
    k, b, cc, d, q = u._v
    if b or cc or d or q != 1:
        raise ValueError(f"{u} is not an integer")
    if k == 1:
        return c
    if k == -1:
        return -c
    a, b, cc, d, q = c._v
    return _canon(a * k, b * k, cc * k, d * k, q)


def poly_mul(p, q):
    # p becomes the one-term factor; of two, the one whose coefficient is
    # 1 or -1, so that the product only moves exponents
    if len(q) == 1 and (len(p) > 1 or next(iter(q.values()))._v
                        in (_ONE_V, _MINUS_ONE_V)):
        p, q = q, p
    if len(p) == 1:
        # a monomial times q: shift q's exponents, scale unless by 1 or -1;
        # the field has no zero divisors, so no product is zero
        (m, c), = p.items()
        cv = c._v
        if not m:
            # a constant moves no exponent; q's dict is shared when c is 1,
            # which is safe because a Scalar's terms are never mutated
            if cv == _ONE_V:
                return q
            if cv == _MINUS_ONE_V:
                return poly_neg(q)
            return {e: v * c for e, v in q.items()}
        if cv == _ONE_V:
            return {e + m: v for e, v in q.items()}
        if cv == _MINUS_ONE_V:
            return {e + m: -v for e, v in q.items()}
        return {e + m: v * c for e, v in q.items()}
    return add_into({}, ((e1 + e2, v1 * v2)
                         for e1, v1 in p.items() for e2, v2 in q.items()))


def _grlex_key(e):
    return (sum(e), e)


class NonMonomialDenominatorError(ArithmeticError):
    """A denominator with more than one term, outside the Laurent scalars."""


def poly_gcd(p, q):
    """Monic gcd of a Laurent polynomial p and a monomial q.

    The divisors of a monomial are monomials, so the gcd is x^m with m the
    componentwise minimum of q's exponent and every exponent of p.  A q
    of any other length raises NonMonomialDenominatorError.  Both are
    keyed by exponent tuples, as `_reduce` passes them.
    """
    if len(q) != 1:
        raise NonMonomialDenominatorError(
            f"denominator with {len(q)} terms is not a monomial")
    (m,) = q
    for e in p:
        m = tuple(map(min, m, e))
    return {m: C_ONE}


# ---------------------------------------------------------------------------
# Scalar: Laurent polynomial in s, c_1..c_m
# ---------------------------------------------------------------------------

class Scalar:
    """Element of Q(i, sqrt2)(s, c_1..c_m) with a monomial denominator.

    `terms` is {packed exponent: Coeff}; exponents may be negative and no
    value is zero.  nvars = 1 + number of orbit parameters; exponent slot
    0 is s.
    """

    __slots__ = ("terms", "nvars", "_hash")

    def __init__(self, terms, nvars):
        self.terms = terms
        self.nvars = nvars
        self._hash = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_coeff(cf, nvars):
        return Scalar({} if cf.is_zero() else {0: cf}, nvars)

    @staticmethod
    def rational(q, nvars, den=1):
        """The constant q / den, for an int or Fraction q and an int den."""
        num, den = q.numerator, q.denominator * den
        if den < 0:
            num, den = -num, -den
        elif not den:
            raise ZeroDivisionError(f"rational {q}/0")
        return Scalar.from_coeff(_canon(num, 0, 0, 0, den), nvars)

    # -- predicates ---------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return not any(self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant scalar")
        return self.terms.get(0, C_ZERO)

    # -- arithmetic ---------------------------------------------------------
    def _chk(self, o):
        if self.nvars != o.nvars:
            raise ValueError("scalar variable-count mismatch")

    def __add__(self, o):
        self._chk(o)
        return Scalar(poly_add(self.terms, o.terms), self.nvars)

    def __sub__(self, o):
        self._chk(o)
        return Scalar(sub_into(dict(self.terms), o.terms.items()), self.nvars)

    def __neg__(self):
        return Scalar(poly_neg(self.terms), self.nvars)

    def __mul__(self, o):
        self._chk(o)
        return Scalar(poly_mul(self.terms, o.terms), self.nvars)

    def __truediv__(self, o):
        if not self.terms and o.terms:
            self._chk(o)
            return self   # zero over any nonzero scalar
        return self * o.inv()

    def inv(self):
        if not self.terms:
            raise ZeroDivisionError("scalar division by zero")
        if len(self.terms) != 1:
            raise NonMonomialDenominatorError(
                f"denominator with {len(self.terms)} terms is not a monomial")
        (e, c), = self.terms.items()
        return Scalar({-e: c if c == C_ONE else c.inv()},
                      self.nvars)

    def conjugate(self):
        """Field automorphism i -> -i; fixes r, s and the c_k."""
        return Scalar({e: v.conj_i() for e, v in self.terms.items()},
                      self.nvars)

    def substitute(self, values):
        """Evaluate at rational points: values = (s, c_1, .., c_m) Fractions.

        Returns a constant Scalar (same nvars).
        """
        if len(values) != self.nvars:
            raise ValueError("substitution arity mismatch")
        from fractions import Fraction
        vals = [Fraction(v) for v in values]
        acc = C_ZERO
        for e, v in self.terms.items():
            f = Fraction(1)
            for x, k in zip(vals, unpack(e, self.nvars)):
                if k < 0 and not x:
                    raise ZeroDivisionError(
                        "denominator vanishes at substitution point")
                f *= x ** k
            acc = acc + Coeff(v.a * f, v.b * f, v.c * f, v.d * f)
        return Scalar.from_coeff(acc, self.nvars)

    def substitute_s(self, cf):
        """Replace s by the constant Coeff `cf`, keeping the c_k symbolic."""
        powers = {0: C_ONE}

        def power(k):
            if k not in powers:
                if k > 0:
                    powers[k] = power(k - 1) * cf
                else:
                    powers[k] = power(k + 1) * cf.inv()
            return powers[k]

        def term(e, v):
            k = unpack(e, self.nvars)[0]
            return e - k, v * power(k)

        return Scalar(add_into({}, (term(e, v)
                                    for e, v in self.terms.items())),
                      self.nvars)

    # -- identity -----------------------------------------------------------
    def __eq__(self, o):
        if not isinstance(o, Scalar):
            return NotImplemented
        return self.nvars == o.nvars and self.terms == o.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __str__(self):
        num, den = _reduce({unpack(e, self.nvars): v
                            for e, v in self.terms.items()}, self.nvars)
        ns = _poly_str(num, self.nvars)
        if not any(den):
            return ns
        return f"({ns})/({_poly_str({den: C_ONE}, self.nvars)})"

    __repr__ = __str__


def _poly_str(p, nvars):
    if not p:
        return "0"
    names = ["s"] + [f"c{k}" for k in range(1, nvars)]
    terms = []
    for e in sorted(p, key=_grlex_key, reverse=True):
        mono = "*".join(
            f"{names[k]}^{x}" if x > 1 else names[k]
            for k, x in enumerate(e) if x
        )
        cs = str(p[e])
        if mono:
            terms.append(f"({cs})*{mono}")
        else:
            terms.append(f"({cs})")
    return " + ".join(terms)


def _reduce(terms, nvars):
    """Lowest-terms numerator of a Laurent polynomial, and the exponent of
    its monic monomial denominator.

    The denominator is the inverse of the monomial gcd of the terms and 1,
    so numerator and denominator share no variable.
    """
    (g,) = poly_gcd(terms, {(0,) * nvars: C_ONE})
    num = {tuple(a - b for a, b in zip(e, g)): v for e, v in terms.items()}
    return num, tuple(-b for b in g)


class ScalarField:
    """Convenience handle fixing nvars: one s plus m orbit parameters."""

    def __init__(self, num_orbits):
        self.m = num_orbits
        self.nvars = 1 + num_orbits
        self.zero = Scalar.rational(0, self.nvars)
        self.one = Scalar.rational(1, self.nvars)
        self.i = Scalar.from_coeff(C_I, self.nvars)
        self.r = Scalar.from_coeff(C_R, self.nvars)
        # the variables: exponent slot 0 is s, slot k + 1 is c_{k+1}
        unit = [pack([int(j == k) for j in range(self.nvars)])
                for k in range(self.nvars)]
        self.s = Scalar({unit[0]: C_ONE}, self.nvars)
        self.t = self.s * self.s / Scalar.rational(2, self.nvars)
        self.cs = [Scalar({e: C_ONE}, self.nvars) for e in unit[1:]]

    def rational(self, q, den=1):
        return Scalar.rational(q, self.nvars, den)

    def i_power(self, n):
        return Scalar.from_coeff(_i_power(n), self.nvars)
