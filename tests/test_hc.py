import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import stack
from dunkl.clifford import sign_mask
from dunkl.groups import RootDatum
from dunkl.hc import HCAlgebra, HCElement
from dunkl.scalars import Scalar
from dunkl.sparse import add_into


def _alg():
    return HCAlgebra(RootDatum("A1", 2, 2))


def test_clifford_and_cherednik_factors_commute():
    alg = _alg()
    assert alg.x(1) * alg.e(2) == alg.e(2) * alg.x(1)
    assert alg.y(2) * alg.e(1) == alg.e(1) * alg.y(2)


def test_clifford_relations_inside_hc():
    alg = _alg()
    assert alg.e(1) * alg.e(1) == alg.one()
    assert alg.e(1) * alg.e(2) + alg.e(2) * alg.e(1) == alg.zero()


def test_parity_and_graded_bracket():
    alg = _alg()
    a = alg.e(1).scale(alg.field.s)          # odd
    b = alg.e(2) * alg.x(1)                  # odd
    c = alg.e(1) * alg.e(2)                  # even
    assert a.parity() == 1 and b.parity() == 1 and c.parity() == 0
    # odd-odd bracket is the anticommutator
    assert a.gbracket(b) == a * b + b * a
    # mixed bracket is the commutator
    assert a.gbracket(c) == a * c - c * a
    assert c.gbracket(c) == c * c - c * c


def test_graded_bracket_antisymmetry_and_jacobi():
    alg = _alg()
    rng = random.Random(5)
    gens = [alg.e(1), alg.e(2), alg.x(1) * alg.e(1), alg.y(2) * alg.e(2),
            alg.x(1) * alg.y(1), alg.group(alg.rd.reflection_index(0))]
    homog = [g for g in gens if g.parity() is not None]
    for _ in range(10):
        a, b = rng.choice(homog), rng.choice(homog)
        pa, pb = a.parity(), b.parity()
        lhs = a.gbracket(b)
        rhs = b.gbracket(a)
        if pa and pb:
            assert lhs == rhs          # anticommutator is symmetric
        else:
            assert lhs == -rhs         # commutator is antisymmetric


def test_bullet_is_conjugate_linear_anti_involution():
    alg = _alg()
    a = alg.x(1) * alg.e(1) + alg.group(alg.rd.reflection_index(0)).scale(alg.field.i)
    b = alg.y(2) * alg.e(2) + alg.e(1) * alg.e(2)
    assert (a * b).bullet() == b.bullet() * a.bullet()
    assert a.bullet().bullet() == a
    assert a.scale(alg.field.i).bullet() == a.bullet().scale(-alg.field.i)


def test_bullet_on_generators():
    alg = _alg()
    assert alg.x(1).bullet() == alg.y(1)
    assert alg.y(1).bullet() == alg.x(1)
    assert alg.e(1).bullet() == -alg.e(1)
    g = alg.rd.reflection_index(0)
    assert alg.group(g).bullet() == alg.group(alg.rd.inv_table[g])


def test_rho_is_projective_lift():
    alg = HCAlgebra(RootDatum("A", 2, 3))
    pc = alg.pin
    for g in range(len(alg.rd.elements)):
        for h in range(len(alg.rd.elements)):
            prod = alg.rho((g, 1)) * alg.rho((h, 1))
            gh = alg.rd.mul_table[g][h]
            expect = alg.rho((gh, 1 if pc.sigma(g, h) > 0 else -1))
            assert prod == expect


def _monomials(alg):
    """Scalar multiples of x^a y^b w e_A with deg(x^a y^b) <= 2."""
    F = alg.field
    d = alg.dim

    def build(variables, g, mask, cf):
        a, b = [0] * d, [0] * d
        for is_y, j in variables:
            (b if is_y else a)[j] += 1
        return HCElement(alg, {(tuple(a), tuple(b), g, mask): cf})
    return st.builds(
        build,
        st.lists(st.tuples(st.booleans(), st.integers(0, d - 1)), max_size=2),
        st.integers(0, len(alg.rd.elements) - 1),
        st.integers(0, (1 << d) - 1),
        st.sampled_from([F.one, -F.one, F.i, F.s, F.cs[0], F.i * F.cs[-1]]))


@pytest.mark.parametrize("group", [("B", 2, 2), ("A1", 2, 2)],
                         ids=["B2", "A1^2"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_random_monomial_products(group, data):
    # straightening, the Clifford sign and bullet on random symbolic
    # PBW (x) Clifford monomials
    alg = stack(*group).alg
    a, b, c = (data.draw(_monomials(alg)) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert (a * b).bullet() == b.bullet() * a.bullet()
    assert a.bullet().bullet() == a


# -- the product loop -------------------------------------------------------------

def _ref_product(a, b):
    """a * b by a double loop over the terms: v1 * v2 * cf, signed by the
    Clifford sign of e_m1 e_m2."""
    term_mul = a.alg.h.term_mul
    out = {}
    for (a1, b1, g1, m1), v1 in a.terms.items():
        for (a2, b2, g2, m2), v2 in b.terms.items():
            odd = (sign_mask(m1) & m2).bit_count() & 1
            for (xk, yk, gk), cf in term_mul((a1, b1, g1), (a2, b2, g2)):
                v = v1 * v2 * cf
                add_into(out, [((xk, yk, gk, m1 ^ m2), -v if odd else v)])
    return HCElement(a.alg, out)


def _seeded_element(alg, rng, size):
    """A sum of `size` random symbolic PBW (x) Clifford monomials of
    (x, y)-degree at most 3."""
    F = alg.field
    coeffs = [F.one, -F.one, F.i, F.s, -F.cs[0], F.i * F.cs[-1] / F.s]
    d = alg.dim
    terms = {}
    for _ in range(size):
        a, b = [0] * d, [0] * d
        for _ in range(rng.randint(0, 3)):
            (a if rng.random() < 0.5 else b)[rng.randrange(d)] += 1
        key = (tuple(a), tuple(b), rng.randrange(len(alg.rd.elements)),
               rng.randrange(1 << d))
        terms[key] = rng.choice(coeffs)
    return HCElement(alg, terms)


@pytest.mark.parametrize("group", [("A1", 3, 3), ("B", 2, 2)],
                         ids=["A1^3", "B2"])
@pytest.mark.parametrize("seed", range(4))
def test_product_matches_double_loop(group, seed):
    alg = stack(*group).alg
    rng = random.Random(seed)
    a = _seeded_element(alg, rng, 4)
    b = _seeded_element(alg, rng, 4)
    assert a * b == _ref_product(a, b)
    assert b * a == _ref_product(b, a)


def test_product_with_unit_coefficients_multiplies_once_per_pair(
        monkeypatch):
    # x^a e_A times x^c w e_B straightens nothing: every term_mul
    # coefficient is the field's shared one, and each pair of terms costs
    # the one product v1 * v2
    alg = stack("B", 2, 2).alg
    F = alg.field
    z, ident = alg.h.zero_exp, alg.h.id_idx
    a = HCElement(alg, {((1, 0), z, ident, 1): F.s,
                        ((0, 2), z, ident, 3): F.i,
                        (z, z, ident, 2): -F.cs[0]})
    b = HCElement(alg, {((1, 1), z, 3, 1): F.cs[1],
                        (z, z, 5, 2): F.one / F.s})
    term_mul = alg.h.term_mul
    assert all(cf is F.one for k1 in a.terms for k2 in b.terms
               for _k, cf in term_mul(k1[:3], k2[:3]))
    calls = []
    mul = Scalar.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting_mul)
    product = a * b
    assert len(calls) == len(a.terms) * len(b.terms)
    monkeypatch.setattr(Scalar, "__mul__", mul)
    assert product == _ref_product(a, b)
