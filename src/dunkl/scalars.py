"""Exact arithmetic in the coefficient field Q(i, sqrt2)(s, c_1..c_m).

The ground ring is Q[i, r] / (i^2 + 1, r^2 - 2), a degree-4 field over Q.
An element a + b*i + c*r + d*i*r is stored as four int numerators over
one positive int denominator, with the gcd of the five ints equal to 1
and zero stored as 0/1; its arithmetic uses int operations only.
On top of it, a Scalar is a sparse Laurent polynomial in the deformation
variables (s first, then the orbit parameters c_1..c_m): a dict
{exponent tuple: Coeff} whose exponents may be negative and whose values
are never zero.  The constructions divide only by s, t = s^2/2 and t^2,
so these scalars are closed under every operation the verifier makes,
and the conventions t = s^2/2 and sqrt(2t) = s make every square root
needed downstream exact.

Scalars are immutable, and the dict is already canonical: equal values
have equal `terms` and equal hashes, and nothing is ever reduced.  `+`,
`-` and `*` are `poly_add`, `poly_neg` and `poly_mul`; a product with a
one-term factor shifts exponents and multiplies no field elements when
that term's coefficient is 1.  Only a monomial is invertible here (its
exponent is negated and its coefficient inverted): inverting, or
dividing by, a scalar of more than one term raises
NonMonomialDenominatorError.  `str` prints the lowest-terms numerator
over the monic monomial denominator that `_reduce` splits off.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .sparse import add_into

_F1 = Fraction(1)


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
        fs = [Fraction(x) for x in (a, b, c, d)]
        q = lcm(*(f.denominator for f in fs))
        self._v = _canon(*(f.numerator * (q // f.denominator) for f in fs),
                         q)._v

    @property
    def a(self):
        return Fraction(self._v[0], self._v[4])

    @property
    def b(self):
        return Fraction(self._v[1], self._v[4])

    @property
    def c(self):
        return Fraction(self._v[2], self._v[4])

    @property
    def d(self):
        return Fraction(self._v[3], self._v[4])

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

    def conj_i(self):
        a, b, c, d, q = self._v
        return _of((a, -b, c, -d, q))

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
# sparse Laurent polynomials: dict {exponent tuple: Coeff}, no zero values
# ---------------------------------------------------------------------------

def poly_add(p, q):
    return add_into(dict(p), q.items())


def poly_neg(p):
    return {e: -v for e, v in p.items()}


def poly_mul(p, q):
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        # a monomial times q: shift q's exponents, scale unless by 1; the
        # field has no zero divisors, so no product is zero
        (m, c), = p.items()
        if c == C_ONE:
            return {tuple(a + b for a, b in zip(e, m)): v
                    for e, v in q.items()}
        return {tuple(a + b for a, b in zip(e, m)): v * c
                for e, v in q.items()}
    return add_into({}, ((tuple(a + b for a, b in zip(e1, e2)), v1 * v2)
                         for e1, v1 in p.items() for e2, v2 in q.items()))


def _grlex_key(e):
    return (sum(e), e)


class NonMonomialDenominatorError(ArithmeticError):
    """A denominator with more than one term, outside the Laurent scalars."""


def poly_gcd(p, q):
    """Monic gcd of a Laurent polynomial p and a monomial q.

    The divisors of a monomial are monomials, so the gcd is x^m with m the
    componentwise minimum of q's exponent and every exponent of p.  A q
    of any other length raises NonMonomialDenominatorError.
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

    `terms` is {exponent tuple: Coeff}; exponents may be negative and no
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
        return Scalar({} if cf.is_zero() else {(0,) * nvars: cf}, nvars)

    @staticmethod
    def rational(q, nvars):
        return Scalar.from_coeff(Coeff(Fraction(q)), nvars)

    @staticmethod
    def i_unit(nvars):
        return Scalar.from_coeff(C_I, nvars)

    @staticmethod
    def sqrt2(nvars):
        return Scalar.from_coeff(C_R, nvars)

    @staticmethod
    def s_var(nvars):
        return Scalar({(1,) + (0,) * (nvars - 1): C_ONE}, nvars)

    @staticmethod
    def c_var(k, nvars):
        """Orbit parameter c_{k+1} (0-based index k)."""
        if not 0 <= k < nvars - 1:
            raise IndexError(f"orbit parameter index {k} out of range")
        e = tuple(1 if j == k + 1 else 0 for j in range(nvars))
        return Scalar({e: C_ONE}, nvars)

    # -- predicates ---------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return not any(any(e) for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant scalar")
        return self.terms.get((0,) * self.nvars, C_ZERO)

    # -- arithmetic ---------------------------------------------------------
    def _chk(self, o):
        if self.nvars != o.nvars:
            raise ValueError("scalar variable-count mismatch")

    def __add__(self, o):
        self._chk(o)
        return Scalar(poly_add(self.terms, o.terms), self.nvars)

    def __sub__(self, o):
        return self + (-o)

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
        return Scalar({tuple(-a for a in e): c if c == C_ONE else c.inv()},
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
        vals = [Fraction(v) for v in values]
        acc = C_ZERO
        for e, v in self.terms.items():
            f = _F1
            for x, k in zip(vals, e):
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

        return Scalar(add_into({}, (((0,) + e[1:], v * power(e[0]))
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
        num, den = _reduce(self.terms, self.nvars)
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
        self.i = Scalar.i_unit(self.nvars)
        self.r = Scalar.sqrt2(self.nvars)
        self.s = Scalar.s_var(self.nvars)
        self.t = self.s * self.s / Scalar.rational(2, self.nvars)
        self.cs = [Scalar.c_var(k, self.nvars) for k in range(num_orbits)]

    def rational(self, q):
        return Scalar.rational(q, self.nvars)

    def i_power(self, n):
        return Scalar.from_coeff(_i_power(n), self.nvars)
