"""Exact arithmetic in the coefficient field Q(i, sqrt2)(s, c_1..c_m).

The ground ring is Q[i, r] / (i^2 + 1, r^2 - 2), a degree-4 field over Q.
An element a + b*i + c*r + d*i*r is stored as four int numerators over
one positive int denominator, with the gcd of the five ints equal to 1
and zero stored as 0/1; its arithmetic uses int operations only.
On top of it we build sparse multivariate polynomials in the deformation
variables (s first, then the orbit parameters c_1..c_m) and the scalars
num/den whose denominator is a monic monomial: Laurent polynomials in
the monomials.  The constructions divide only by s, t = s^2/2 and t^2,
so these scalars are closed under every operation the verifier makes,
and the conventions t = s^2/2 and sqrt(2t) = s make every square root
needed downstream exact.

Scalars are immutable; equal values are structurally identical: num and
den share no monomial factor and den is a monomial with coefficient 1.
The gcd of a polynomial and a monomial is a monomial, so no polynomial
gcd is needed.  Dividing by, or inverting, a scalar whose numerator has
more than one term raises NonMonomialDenominatorError.  A sum or product
of two scalars whose denominators are both 1 (every scalar of a fully
specialised run, and every polynomial) is built directly from
`poly_add` / `poly_mul`: p/1 with zero terms dropped is already in
canonical form, so only fractions with a nontrivial denominator go
through `_reduce`.  Multiplying by a monic monomial denominator (cross
terms of a sum, the product of two denominators, division) adds its
exponent to each term (`_shift`) and makes no field multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
        return not self.is_zero()

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
# sparse polynomials: dict {exponent tuple: Coeff}, no zero values stored
# ---------------------------------------------------------------------------

def poly_add(p, q):
    out = dict(p)
    for e, v in q.items():
        w = out.get(e)
        if w is None:
            out[e] = v
        else:
            w = w + v
            if w.is_zero():
                del out[e]
            else:
                out[e] = w
    return out


def poly_neg(p):
    return {e: -v for e, v in p.items()}


def poly_mul(p, q):
    if len(p) == 1 and len(q) == 1:
        (e1, v1), = p.items()
        (e2, v2), = q.items()
        v = v1 * v2
        if v.is_zero():
            return {}
        return {tuple(a + b for a, b in zip(e1, e2)): v}
    out = {}
    for e1, v1 in p.items():
        for e2, v2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = v1 * v2
            w = out.get(e)
            if w is None:
                if not v.is_zero():
                    out[e] = v
            else:
                w = w + v
                if w.is_zero():
                    del out[e]
                else:
                    out[e] = w
    return out


def _shift(p, den):
    """p times the monic monomial den: den's exponent is added to each term's."""
    (m,) = den
    if not any(m):
        return p
    return {tuple(a + b for a, b in zip(e, m)): v for e, v in p.items()}


def _grlex_key(e):
    return (sum(e), e)


def poly_is_unit(p):
    return len(p) == 1 and not any(next(iter(p)))


def _monomial_content(p):
    """Componentwise min exponent over the support."""
    it = iter(p)
    m = list(next(it))
    for e in it:
        for k, x in enumerate(e):
            if x < m[k]:
                m[k] = x
    return tuple(m)


class NonMonomialDenominatorError(ArithmeticError):
    """A denominator with more than one term, outside the Laurent scalars."""


def poly_gcd(p, q):
    """Monic gcd of a polynomial p and a monomial q.

    The divisors of a monomial are monomials, so the gcd is x^m with m the
    componentwise minimum of q's exponent and p's monomial content.  A q
    of any other length raises NonMonomialDenominatorError.
    """
    if len(q) != 1:
        raise NonMonomialDenominatorError(
            f"denominator with {len(q)} terms is not a monomial")
    (m,) = q
    if p:
        m = tuple(min(a, b) for a, b in zip(_monomial_content(p), m))
    return {m: C_ONE}


# ---------------------------------------------------------------------------
# Scalar: polynomial over a monic monomial
# ---------------------------------------------------------------------------

class Scalar:
    """Element num/den of Q(i, sqrt2)(s, c_1..c_m), den a monic monomial.

    nvars = 1 + number of orbit parameters; exponent slot 0 is s.
    """

    __slots__ = ("num", "den", "nvars", "_hash")

    def __init__(self, num, den, nvars, _normalized=False):
        if not _normalized:
            num, den = _reduce(num, den, nvars)
        self.num = num
        self.den = den
        self.nvars = nvars
        self._hash = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_coeff(cf, nvars):
        z = (0,) * nvars
        num = {} if cf.is_zero() else {z: cf}
        return Scalar(num, {z: C_ONE}, nvars, _normalized=True)

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
        z = (0,) * nvars
        e = (1,) + (0,) * (nvars - 1)
        return Scalar({e: C_ONE}, {z: C_ONE}, nvars, _normalized=True)

    @staticmethod
    def c_var(k, nvars):
        """Orbit parameter c_{k+1} (0-based index k)."""
        if not 0 <= k < nvars - 1:
            raise IndexError(f"orbit parameter index {k} out of range")
        z = (0,) * nvars
        e = tuple(1 if j == k + 1 else 0 for j in range(nvars))
        return Scalar({e: C_ONE}, {z: C_ONE}, nvars, _normalized=True)

    # -- predicates ---------------------------------------------------------
    def is_zero(self):
        return not self.num

    def is_constant(self):
        z = (0,) * self.nvars
        return set(self.num) <= {z} and set(self.den) <= {z}

    def constant_value(self):
        z = (0,) * self.nvars
        if not self.is_constant():
            raise ValueError("not a constant scalar")
        # a constant monic denominator is 1
        return self.num.get(z, C_ZERO)

    # -- arithmetic ---------------------------------------------------------
    def _chk(self, o):
        if self.nvars != o.nvars:
            raise ValueError("scalar variable-count mismatch")

    def __add__(self, o):
        self._chk(o)
        if not self.num:
            return o
        if not o.num:
            return self
        if self.den == o.den:
            return Scalar(poly_add(self.num, o.num), self.den, self.nvars,
                          _normalized=poly_is_unit(self.den))
        num = poly_add(_shift(self.num, o.den), _shift(o.num, self.den))
        return Scalar(num, _shift(self.den, o.den), self.nvars)

    def __sub__(self, o):
        return self + (-o)

    def __neg__(self):
        return Scalar(poly_neg(self.num), self.den, self.nvars, _normalized=True)

    def __mul__(self, o):
        self._chk(o)
        if not self.num or not o.num:
            return Scalar({}, {(0,) * self.nvars: C_ONE}, self.nvars, _normalized=True)
        if poly_is_unit(self.den) and poly_is_unit(o.den):
            # a canonical denominator is monic, so a constant one is 1
            return Scalar(poly_mul(self.num, o.num), self.den, self.nvars,
                          _normalized=True)
        return Scalar(poly_mul(self.num, o.num), _shift(self.den, o.den),
                      self.nvars)

    def __truediv__(self, o):
        self._chk(o)
        if not o.num:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(_shift(self.num, o.den), _shift(o.num, self.den),
                      self.nvars)

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(dict(self.den), dict(self.num), self.nvars)

    def conjugate(self):
        """Field automorphism i -> -i; fixes r, s and the c_k."""
        num = {e: v.conj_i() for e, v in self.num.items()}
        den = {e: v.conj_i() for e, v in self.den.items()}
        return Scalar(num, den, self.nvars)

    def substitute(self, values):
        """Evaluate at rational points: values = (s, c_1, .., c_m) Fractions.

        Returns a constant Scalar (same nvars).
        """
        if len(values) != self.nvars:
            raise ValueError("substitution arity mismatch")
        vals = [Fraction(v) for v in values]

        def ev(p):
            acc = C_ZERO
            for e, v in p.items():
                f = _F1
                for x, k in zip(vals, e):
                    f *= x ** k
                acc = acc + Coeff(v.a * f, v.b * f, v.c * f, v.d * f)
            return acc

        d = ev(self.den)
        if d.is_zero():
            raise ZeroDivisionError("denominator vanishes at substitution point")
        return Scalar.from_coeff(ev(self.num) * d.inv(), self.nvars)

    def substitute_s(self, cf):
        """Replace s by the constant Coeff `cf`, keeping the c_k symbolic."""
        def sub(p):
            out = {}
            pw = {0: C_ONE}
            for e, v in p.items():
                k = e[0]
                if k not in pw:
                    acc = pw[max(pw)]
                    for _ in range(max(pw), k):
                        acc = acc * cf
                        pw[max(pw) + 1] = acc
                vv = v * pw[k]
                e2 = (0,) + e[1:]
                w = out.get(e2)
                w = vv if w is None else w + vv
                if w.is_zero():
                    out.pop(e2, None)
                else:
                    out[e2] = w
            return out
        return Scalar(sub(self.num), sub(self.den), self.nvars)

    # -- canonical form / identity -----------------------------------------
    def _key(self):
        return (
            tuple(sorted(self.num.items(), key=lambda t: _grlex_key(t[0]))),
            tuple(sorted(self.den.items(), key=lambda t: _grlex_key(t[0]))),
        )

    def __eq__(self, o):
        if not isinstance(o, Scalar):
            return NotImplemented
        return self.nvars == o.nvars and self.num == o.num and self.den == o.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __str__(self):
        ns = _poly_str(self.num, self.nvars)
        z = (0,) * self.nvars
        if self.den == {z: C_ONE}:
            return ns
        return f"({ns})/({_poly_str(self.den, self.nvars)})"

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


def _reduce(num, den, nvars):
    """Canonical (num, den) of num/den for a monomial den.

    Zero terms are dropped and zero becomes 0/1; otherwise the monomial
    gcd is cancelled and num is divided by den's coefficient, which leaves
    den a monic monomial.  A den of more than one term raises
    NonMonomialDenominatorError.
    """
    num = {e: v for e, v in num.items() if not v.is_zero()}
    den = {e: v for e, v in den.items() if not v.is_zero()}
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {(0,) * nvars: C_ONE}
    if not poly_is_unit(den):
        (g,) = poly_gcd(num, den)
        if any(g):
            num = {tuple(a - b for a, b in zip(e, g)): v
                   for e, v in num.items()}
            den = {tuple(a - b for a, b in zip(e, g)): v
                   for e, v in den.items()}
    (de, dc), = den.items()
    if dc != C_ONE:
        inv = dc.inv()
        num = {e: v * inv for e, v in num.items()}
    return num, {de: C_ONE}


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
