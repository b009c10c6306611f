from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dunkl import scalars
from dunkl.cli import Runner
from dunkl.sparse import add_into
from dunkl.scalars import (Coeff, Scalar, ScalarField, C_ZERO, C_ONE, C_I,
                           C_R, NonMonomialDenominatorError, _i_power)

rats = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))
coeffs = st.builds(Coeff, rats, rats, rats, rats)
quads = st.tuples(rats, rats, rats, rats)


# Reference model: a + b i + c r + d i r as four Fractions, with the
# Fraction-based formulas and string format the int storage must match.

def ref_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * f + 2 * (c * g - d * h),
            a * f + b * e + 2 * (c * h + d * g),
            a * g + c * e - b * h - d * f,
            a * h + d * e + b * g + c * f)


def ref_inv(x):
    a, b, c, d = x
    z1, z2, z3 = (a, -b, c, -d), (a, b, -c, -d), (a, -b, -c, d)
    num = ref_mul(ref_mul(z1, z2), z3)
    n = ref_mul(x, num)[0]
    return tuple(v / n for v in num)


def ref_str(x):
    parts = [f"{v}*{tag}" if tag else f"{v}"
             for v, tag in zip(x, ("", "i", "r", "i*r")) if v]
    return "+".join(parts).replace("+-", "-") if parts else "0"


def as_ref(z):
    return (z.a, z.b, z.c, z.d)


@given(quads, quads)
@settings(max_examples=100, deadline=None)
def test_coeff_matches_fraction_model(x, y):
    cx, cy = Coeff(*x), Coeff(*y)
    assert as_ref(cx) == x
    assert as_ref(cx + cy) == tuple(u + v for u, v in zip(x, y))
    assert as_ref(cx - cy) == tuple(u - v for u, v in zip(x, y))
    assert as_ref(-cx) == tuple(-u for u in x)
    assert as_ref(cx * cy) == ref_mul(x, y)
    assert as_ref(cx.conj_i()) == (x[0], -x[1], x[2], -x[3])
    assert as_ref(cx.conj_r()) == (x[0], x[1], -x[2], -x[3])
    if any(x):
        assert as_ref(cx.inv()) == ref_inv(x)
    assert str(cx) == ref_str(x)


@given(quads, quads, st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_coeff_equal_values_are_equal_objects(x, y, k):
    # the same value reached two ways: built directly, and as (x + y) - y
    # after scaling every numerator and denominator by k
    cx = Coeff(*x)
    scaled = Coeff(*(Fraction(v.numerator * k, v.denominator * k)
                     for v in x))
    for other in (scaled, (cx + Coeff(*y)) - Coeff(*y)):
        assert other == cx
        assert hash(other) == hash(cx)
        assert other._v == cx._v
    assert (cx - cx)._v == (0, 0, 0, 0, 1)
    assert (cx - cx) == C_ZERO and hash(cx - cx) == hash(C_ZERO)


def test_coeff_accepts_what_fraction_accepts():
    assert Coeff("1/2", 0.25, Fraction(-3, 6), 2) == \
        Coeff(Fraction(1, 2), Fraction(1, 4), Fraction(-1, 2), 2)
    assert str(Coeff("-3/9", 0, "4/2")) == "-1/3+2*r"
    with pytest.raises(ValueError):
        Coeff("one")


def test_coeff_arithmetic_makes_no_fraction(fractions_made):
    x = Coeff(Fraction(1, 3), -2, Fraction(5, 7), 1)
    y = Coeff(3, Fraction(-1, 2), 0, Fraction(2, 9))
    with fractions_made() as made:
        for z in (x + y, x - y, x * y, -x, x.inv(), x.conj_i(), x.conj_r()):
            hash(z)
            z == x
            z.is_zero()
    assert made == []


def test_monomial_denominators_make_no_field_products(coeff_products):
    F = ScalarField(2)
    s, c1, c2 = F.s, F.cs[0], F.cs[1]
    x = (c1 + F.rational(3)) / s              # two terms over s
    y = (c2 * F.i + F.r) / (s * s * c1)       # two terms over s^2 c1
    m = s * c2
    with coeff_products() as made:
        total = x + y
        quotient = x / m
    # cross terms and denominators are exponent shifts only
    assert made == []
    with coeff_products() as made:
        product = x * y
    # only the 2 x 2 numerator products multiply field elements
    assert len(made) == 4
    pt = (Fraction(2), Fraction(1, 3), Fraction(-5, 7))
    for value, expect in ((total, x.substitute(pt) + y.substitute(pt)),
                          (quotient, x.substitute(pt) / m.substitute(pt)),
                          (product, x.substitute(pt) * y.substitute(pt))):
        assert value.substitute(pt) == expect


def test_monomial_factors_make_no_field_products(coeff_products):
    F = ScalarField(2)
    s, c1, c2 = F.s, F.cs[0], F.cs[1]
    x = F.rational(3) * s * c1 + F.i * c2 - F.r / s     # three terms
    with coeff_products() as made:
        results = (x * s, x * c1, x / (s * c2))
    # a one-term factor with coefficient 1 only shifts exponents
    assert made == []
    pt = (Fraction(2), Fraction(1, 3), Fraction(-5, 7))
    ex = x.substitute(pt).constant_value()
    for value, factor in zip(results, (Fraction(2), Fraction(1, 3),
                                       Fraction(-7, 10))):
        assert value.substitute(pt).constant_value() == ex * Coeff(factor)


@given(coeffs, coeffs, coeffs)
@settings(max_examples=60, deadline=None)
def test_coeff_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == C_ZERO
    assert x * C_ONE == x


@given(coeffs)
@settings(max_examples=60, deadline=None)
def test_coeff_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inv()
    else:
        assert x * x.inv() == C_ONE


@given(coeffs, coeffs)
@settings(max_examples=60, deadline=None)
def test_coeff_conjugations_are_automorphisms(x, y):
    assert (x * y).conj_i() == x.conj_i() * y.conj_i()
    assert (x * y).conj_r() == x.conj_r() * y.conj_r()
    assert x.conj_i().conj_i() == x
    assert x.conj_r().conj_r() == x


def test_coeff_defining_relations():
    assert C_I * C_I == Coeff(-1)
    assert C_R * C_R == Coeff(2)
    assert _i_power(2) == Coeff(-1)
    assert _i_power(7) == Coeff(0, -1)


@pytest.fixture(scope="module")
def F():
    return ScalarField(2)


def test_scalar_canonical_reduction(F):
    s, c1 = F.s, F.cs[0]
    # (s^2 c1 + s c1) / (s c1) == s + 1
    expr = (s * s * c1 + s * c1) / (s * c1)
    assert expr == s + F.one
    # cancellation to a constant
    assert (c1 * c1) / (c1 * c1) == F.one
    assert (s - s).is_zero()


def test_scalar_t_convention(F):
    # t = s^2/2 and sqrt(2t) = s
    assert F.t * F.rational(2) == F.s * F.s
    assert F.r * F.r == F.rational(2)


def test_scalar_substitution(F):
    expr = F.t + F.cs[0] * F.cs[1]
    val = expr.substitute((Fraction(2), Fraction(1, 3), Fraction(3)))
    assert val.constant_value() == Coeff(Fraction(3))
    with pytest.raises(ZeroDivisionError):
        (F.one / F.cs[0]).substitute((Fraction(1), Fraction(0), Fraction(0)))


def test_scalar_substitute_s_keeps_c_symbolic(F):
    expr = F.s * F.cs[0] + F.t
    out = expr.substitute_s(C_R)          # s -> sqrt2, so t -> 1
    assert out == F.cs[0] * F.r + F.one


def test_substitute_s_inverts_negative_powers(F):
    # 1/t = 2 s^-2, and s -> sqrt2 gives t = 1
    assert (F.one / F.t).substitute_s(C_R) == F.one
    assert (F.cs[0] / F.s).substitute_s(C_R) == \
        F.cs[0] * F.r * F.rational(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        (F.one / F.s).substitute_s(C_ZERO)


def test_scalar_conjugate(F):
    expr = F.i * F.s + F.cs[0]
    assert expr.conjugate() == -(F.i) * F.s + F.cs[0]
    assert expr.conjugate().conjugate() == expr


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=40, deadline=None)
def test_scalar_field_ops(a, b, c):
    F = ScalarField(1)
    x = F.rational(a) * F.s + F.rational(b) * F.cs[0]
    y = F.rational(c) + F.s
    assert x * y == y * x
    assert x + y - y == x
    m = F.rational(c or 1) * F.s * F.s * F.cs[0]
    assert (x / m) * m == x
    if c:
        # c + s has two terms: no Laurent scalar is its inverse
        with pytest.raises(NonMonomialDenominatorError):
            y.inv()
        if not x.is_zero():
            with pytest.raises(NonMonomialDenominatorError):
                x / y


def test_non_monomial_denominator_raises(F):
    two_terms = F.s + F.cs[0]
    for divide in (two_terms.inv, lambda: F.one / two_terms,
                   lambda: F.t / (F.one - F.s)):
        with pytest.raises(NonMonomialDenominatorError):
            divide()
    assert issubclass(NonMonomialDenominatorError, ArithmeticError)
    with pytest.raises(NonMonomialDenominatorError):
        scalars.poly_gcd(F.s.terms, two_terms.terms)
    assert (F.zero / two_terms).is_zero()
    # a check that divides by it fails; it does not pass
    rec = Runner().residual("scalars", "x", "a", lambda: F.one / two_terms)
    assert rec["status"] == "fail"
    assert "NonMonomialDenominatorError" in rec["witness"]


def test_poly_gcd_of_polynomial_and_monomial(F):
    s, c1 = F.s, F.cs[0]
    p = (s * s * c1 + s * c1 * c1).terms
    assert scalars.poly_gcd(p, (s * s * s).terms) == {(1, 0, 0): C_ONE}
    assert scalars.poly_gcd(p, (F.rational(3) * s * c1).terms) == \
        {(1, 1, 0): C_ONE}
    assert scalars.poly_gcd({}, (F.rational(2) * c1).terms) == \
        {(0, 1, 0): C_ONE}
    assert scalars.poly_gcd(p, F.one.terms) == {(0, 0, 0): C_ONE}


def test_scalar_str_is_deterministic(F):
    e1 = (F.s + F.cs[0]) / F.t
    e2 = (F.cs[0] + F.s) / (F.s * F.s / F.rational(2))
    assert str(e1) == str(e2)


# -- canonical form -------------------------------------------------------------

def _poly(nvars):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda p: {e: v for e, v in p.items() if not v.is_zero()})


@given(_poly(3), _poly(3))
@settings(max_examples=80, deadline=None)
def test_unit_denominator_ops_are_canonical(p, q):
    # sums, differences and products store no zero value, and the same
    # value reached two ways has equal terms and hash
    x = Scalar(p, 3)
    y = Scalar(q, 3)
    for z in (x + y, x - y, x * y, -x):
        assert all(not v.is_zero() for v in z.terms.values())
    for a, b in ((x + y, y + x), (x * y, y * x), ((x - y) + y, x),
                 (x * y - y * x, Scalar({}, 3))):
        assert a.terms == b.terms and hash(a) == hash(b)


def test_polynomial_sums_and_products_never_reduce(F, monkeypatch):
    def refuse(num, den, nvars):
        raise AssertionError("_reduce called on a polynomial")

    s, c1, c2 = F.s, F.cs[0], F.cs[1]
    a = s * s + F.i * c1 - F.rational(Fraction(1, 3))
    b = c1 * c2 - F.r * s
    monkeypatch.setattr(scalars, "_reduce", refuse)
    x = (a + b) * (a - b) * F.rational(7)
    y = a * a - b * b
    assert x == y * F.rational(7)
    assert (a - a).is_zero() and (a - a) == F.zero
    assert Scalar.from_coeff(C_I, 3) * Scalar.from_coeff(C_I, 3) \
        == Scalar.from_coeff(Coeff(-1), 3)


def test_monomial_denominator_still_reduces(F):
    # s^-1 * s cancels to the constant 1, stored as one term
    inv_s = F.one / F.s
    assert inv_s.terms == {(-1, 0, 0): C_ONE}
    assert inv_s * F.s == F.one
    assert (inv_s * F.s).terms == {(0, 0, 0): C_ONE}
    assert (inv_s + inv_s) * F.s == F.rational(2)


# -- property tests over Laurent scalars ---------------------------------------
# Scalars in s, c1, c2 built from the variables, constants and inverses of
# monomials, with evaluation at nonzero rational points as the oracle.

F2 = ScalarField(2)
_nonzero_rats = rats.filter(bool)
_points = st.tuples(_nonzero_rats, _nonzero_rats, _nonzero_rats)


def _monomial(cf, exps):
    out = Scalar.from_coeff(cf, 3)
    for var, k in zip((F2.s, F2.cs[0], F2.cs[1]), exps):
        factor = var if k > 0 else F2.one / var
        for _ in range(abs(k)):
            out = out * factor
    return out


_exps = st.tuples(*[st.integers(-2, 2)] * 3)
monomials = st.builds(_monomial, coeffs.filter(lambda c: not c.is_zero()),
                      _exps)
laurent = st.lists(st.builds(_monomial, coeffs, _exps), max_size=3).map(
    lambda terms: sum(terms, F2.zero))


def _at(x, point):
    return x.substitute(point).constant_value()


@given(laurent, laurent, laurent)
@settings(max_examples=60, deadline=None)
def test_laurent_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x - x == F2.zero
    assert x * F2.one == x


@given(laurent, laurent, monomials, _points)
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(x, y, m, point):
    ex, ey, em = _at(x, point), _at(y, point), _at(m, point)
    assert _at(x + y, point) == ex + ey
    assert _at(x - y, point) == ex - ey
    assert _at(x * y, point) == ex * ey
    assert _at(x / m, point) == ex * em.inv()
    assert _at(m.inv(), point) == em.inv()


@given(laurent, laurent, monomials, monomials)
@settings(max_examples=60, deadline=None)
def test_equal_laurent_values_are_equal_objects(x, y, m1, m2):
    pairs = (
        ((x + y) - y, x),
        ((x * m1) / m1, x),
        ((x / m1) / m2, x / (m1 * m2)),
        (x / m1 + y / m1, (x + y) / m1),
        (x * (y + m1), x * y + x * m1),
        (m1.inv().inv(), m1),
    )
    for a, b in pairs:
        assert a.terms == b.terms
        assert hash(a) == hash(b)


# -- the shared accumulator ------------------------------------------------------

@pytest.mark.parametrize("one", [1, C_ONE, F2.one], ids=["int", "Coeff", "Scalar"])
def test_add_into_drops_exact_cancellations(one):
    two = one + one
    out = {"a": one, "b": two}
    pairs = [("a", -one), ("b", one), ("c", -two), ("c", two), ("a", two),
             ("d", one - one), ("e", -one)]
    assert add_into(out, pairs) is out
    assert out == {"a": two, "b": two + one, "e": -one}


@given(laurent, coeffs)
@settings(max_examples=60, deadline=None)
def test_truth_value_is_false_exactly_at_zero(x, cf):
    assert bool(x) is (x != F2.zero)
    assert not x - x
    assert bool(cf) is (cf != C_ZERO)
    assert not cf - cf


# -- printing -------------------------------------------------------------------
# Reference formatter: the lowest-terms numerator over the monic monomial
# denominator, terms in descending graded-lex order, written independently
# of `scalars._poly_str` and `_reduce`.

def _ref_poly_str(p):
    if not p:
        return "0"
    names = ("s", "c1", "c2")
    out = []
    for e in sorted(p, key=lambda e: (sum(e), e), reverse=True):
        factors = [name if k == 1 else f"{name}^{k}"
                   for name, k in zip(names, e) if k]
        out.append("*".join([f"({p[e]})"] + factors))
    return " + ".join(out)


def _ref_str(terms):
    den = tuple(max(0, -min(e[k] for e in terms)) if terms else 0
                for k in range(3))
    num = {tuple(a + b for a, b in zip(e, den)): v for e, v in terms.items()}
    if not any(den):
        return _ref_poly_str(num)
    return f"({_ref_poly_str(num)})/({_ref_poly_str({den: C_ONE})})"


_laurent_terms = st.dictionaries(
    st.tuples(*[st.integers(-2, 2)] * 3),
    coeffs.filter(lambda c: not c.is_zero()), max_size=4)


@given(_laurent_terms)
@settings(max_examples=100, deadline=None)
def test_str_prints_numerator_over_monomial_denominator(terms):
    assert str(Scalar(terms, 3)) == _ref_str(terms)
