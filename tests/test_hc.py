import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import stack
from dunkl.groups import RootDatum
from dunkl.hc import HCAlgebra, HCElement


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
