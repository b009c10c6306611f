import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import stack
from dunkl import hc
from dunkl.clifford import mask_str, sign_mask
from dunkl.groups import RootDatum
from dunkl.cherednik import HElement
from dunkl.hc import HCAlgebra, HCElement
from dunkl.scalars import Coeff
from dunkl.sparse import add_into


def _alg():
    return HCAlgebra(RootDatum("A1", 2, 2))


def _parity(elem):
    """Clifford Z2-degree of the masks if homogeneous, else None (0 for
    zero)."""
    ps = {k[3].bit_count() & 1 for k in elem.terms}
    if not ps:
        return 0
    return ps.pop() if len(ps) == 1 else None


def test_clifford_and_cherednik_factors_commute():
    alg = _alg()
    assert alg.x(1) * alg.e(2) == alg.e(2) * alg.x(1)
    assert alg.y(2) * alg.e(1) == alg.e(1) * alg.y(2)


def test_clifford_relations_inside_hc():
    alg = _alg()
    assert alg.e(1) * alg.e(1) == alg.scalar(1)
    assert alg.e(1) * alg.e(2) + alg.e(2) * alg.e(1) == alg.zero()


def test_parity_and_graded_bracket():
    alg = _alg()
    a = alg.e(1).scale(alg.field.s)          # odd
    b = alg.e(2) * alg.x(1)                  # odd
    c = alg.e(1) * alg.e(2)                  # even
    assert _parity(a) == 1 and _parity(b) == 1 and _parity(c) == 0
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
    homog = [g for g in gens if _parity(g) is not None]
    for _ in range(10):
        a, b = rng.choice(homog), rng.choice(homog)
        pa, pb = _parity(a), _parity(b)
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


# -- the flat product loop -------------------------------------------------------

def _ref_product(a, b):
    """a * b by a double loop over the grouped terms (`scalars()`):
    v1 * v2 * cf, signed by the Clifford sign of e_m1 e_m2."""
    term_mul = a.alg.h.term_mul
    out = {}
    for (a1, b1, g1, m1), v1 in a.scalars().items():
        for (a2, b2, g2, m2), v2 in b.scalars().items():
            odd = (sign_mask(m1) & m2).bit_count() & 1
            for (xk, yk, gk), cf in term_mul((a1, b1, g1), (a2, b2, g2)):
                v = v1 * v2 * cf
                add_into(out, [((xk, yk, gk, m1 ^ m2), -v if odd else v)])
    return HCElement(a.alg, out)


def _rational_b2():
    return HCAlgebra(RootDatum("B", 2, 2), specialize={
        "s": Fraction(2), "c1": Fraction(1, 3), "c2": Fraction(1, 5)})


# the contexts of the product tests: symbolic B2, A1^3 and A r3, and B2
# with every parameter rational
_CONTEXTS = {
    "B2": lambda: stack("B", 2, 2).alg,
    "A1^3": lambda: stack("A1", 3, 3).alg,
    "A r3": lambda: stack("A", 3, 4).alg,
    "B2 rational": _rational_b2,
}


def _coeffs(alg):
    """Scalars for seeded elements: constants in a rational context, Laurent
    polynomials of one to three terms otherwise."""
    F = alg.field
    if alg.h.rational:
        return [F.one, -F.one, F.i, F.r * F.rational(Fraction(1, 3)),
                F.rational(Fraction(2, 5)) + F.i]
    return [F.one, -F.one, F.i, F.s, -F.cs[0], F.i * F.cs[-1] / F.s,
            F.s + F.rational(3) * F.cs[0], F.r - F.cs[-1] * F.s + F.i]


def _seeded_element(alg, rng, size):
    """A sum of `size` random PBW (x) Clifford monomials of (x, y)-degree at
    most 3, as the nested {(a, b, g, mask): Scalar} and as an element."""
    coeffs = _coeffs(alg)
    d = alg.dim
    terms = {}
    for _ in range(size):
        a, b = [0] * d, [0] * d
        for _ in range(rng.randint(0, 3)):
            (a if rng.random() < 0.5 else b)[rng.randrange(d)] += 1
        key = (tuple(a), tuple(b), rng.randrange(len(alg.rd.elements)),
               rng.randrange(1 << d))
        terms[key] = rng.choice(coeffs)
    return terms, HCElement(alg, terms)


@pytest.mark.parametrize("context", list(_CONTEXTS))
@pytest.mark.parametrize("seed", range(4))
def test_product_matches_double_loop(context, seed):
    alg = _CONTEXTS[context]()
    rng = random.Random(seed)
    _, a = _seeded_element(alg, rng, 4)
    _, b = _seeded_element(alg, rng, 4)
    assert a * b == _ref_product(a, b)
    assert b * a == _ref_product(b, a)


@pytest.mark.parametrize("context", list(_CONTEXTS))
@pytest.mark.parametrize("seed", range(3))
def test_difference_is_the_sum_with_the_negation(context, seed):
    # b shares two of a's terms (which cancel in a - b) and c = a + b
    # shares keys with both, so the in-place difference meets shared
    # keys, cancelling keys and new keys
    alg = _CONTEXTS[context]()
    rng = random.Random(seed)
    nested_a, a = _seeded_element(alg, rng, 5)
    nested_b, b = _seeded_element(alg, rng, 3)
    nested_b.update(list(nested_a.items())[:2])
    b = HCElement(alg, nested_b)
    c = a + b

    def h_part(nested):
        return HElement(alg.h, add_into({}, (((ka, kb, g), v) for
                                             (ka, kb, g, _m), v in
                                             nested.items())))

    def scalar_part(nested):
        F = alg.field
        return sum(nested.values(), F.zero) * F.s + F.cs[0]

    ha, hb = h_part(nested_a), h_part(nested_b)
    sa, sb = scalar_part(nested_a), scalar_part(nested_b)
    for x, y in ((a, b), (b, a), (a, c), (c, b), (ha, hb), (hb, ha),
                 (ha, ha + hb), (sa, sb), (sb, sa), (sa, sa + sb)):
        diff = x - y
        assert diff == x + (-y)
        assert all(diff.terms.values())     # no zero is stored
        assert (x - x).is_zero()


def test_reference_test_catches_a_dropped_clifford_sign(monkeypatch):
    # a flat loop that ignores the sign of e_m1 e_m2 must fail the
    # comparison with the nested reference on some seeded pair
    monkeypatch.setattr(hc, "sign_mask", lambda _m: 0)
    failures = 0
    for context in _CONTEXTS:
        alg = _CONTEXTS[context]()
        rng = random.Random(0)
        _, a = _seeded_element(alg, rng, 4)
        _, b = _seeded_element(alg, rng, 4)
        failures += a * b != _ref_product(a, b)
    assert failures


@pytest.mark.parametrize("context", list(_CONTEXTS))
def test_nested_terms_round_trip_through_the_flat_form(context):
    alg = _CONTEXTS[context]()
    nested, elem = _seeded_element(alg, random.Random(7), 6)
    nested[next(iter(nested))] = alg.field.zero       # a zero is dropped
    elem = HCElement(alg, nested)
    want = {k: v for k, v in nested.items() if v}
    assert elem.scalars() == want
    assert HCElement(alg, elem.scalars()) == elem
    # one flat term per monomial of each Scalar, keyed by its exponent
    assert elem.terms == {k + (e,): c for k, v in want.items()
                          for e, c in v.terms.items()}


@pytest.mark.parametrize("context", list(_CONTEXTS))
def test_str_is_the_nested_rendering(context):
    alg = _CONTEXTS[context]()
    nested, elem = _seeded_element(alg, random.Random(3), 6)
    texts = sorted(((m, g, a, b), f"({v}) x^{a} y^{b} [w{g}] {mask_str(m)}")
                   for (a, b, g, m), v in nested.items())
    assert str(elem) == " + ".join(text for _key, text in texts)
    assert str(alg.zero()) == "0"


def test_product_with_unit_coefficients_multiplies_once_per_pair(
        coeff_products):
    # x^a e_A times x^c w e_B straightens nothing: every term_mul
    # coefficient is the field's shared one, so a pair of flat terms costs
    # at most the one Coeff product c1 * c2, and none when c1 or c2 is 1
    # or -1
    alg = stack("B", 2, 2).alg
    F = alg.field
    z, ident = alg.h.zero_exp, alg.h.id_idx
    a = HCElement(alg, {((1, 0), z, ident, 1): F.s,
                        ((0, 2), z, ident, 3): F.i,
                        (z, z, ident, 2): -F.cs[0],
                        ((0, 1), z, ident, 0): F.rational(3) * F.s + F.i})
    b = HCElement(alg, {((1, 1), z, 3, 1): F.cs[1],
                        (z, z, 5, 2): F.one / F.s,
                        ((2, 0), z, 1, 3): F.r * F.cs[0]})
    term_mul = alg.h.term_mul
    assert all(cf is F.one for k1 in a.terms for k2 in b.terms
               for _k, cf in term_mul(k1[:3], k2[:3]))
    units = (Coeff(1), Coeff(-1))
    non_unit = sum(c1 not in units and c2 not in units
                   for c1 in a.terms.values() for c2 in b.terms.values())
    with coeff_products() as calls:
        product = a * b
    assert len(calls) == non_unit == 3
    assert len(calls) < len(a.terms) * len(b.terms)
    assert product == _ref_product(a, b)


# -- the one-pass brackets -------------------------------------------------------

def _ref_bracket(a, b, kind):
    """The bracket `kind` of a and b from `_ref_product` expansions; the
    graded one is ab - b0 a - b1 a0 + b1 a1 with b0, b1 the even and odd
    parts of b."""
    if kind == "gbracket":
        b1 = b.odd_part()
        return (_ref_product(a, b) - _ref_product(b.even_part(), a)
                - _ref_product(b1, a.even_part())
                + _ref_product(b1, a.odd_part()))
    ab, ba = _ref_product(a, b), _ref_product(b, a)
    return ab - ba if kind == "commutator" else ab + ba


@pytest.mark.parametrize("context", list(_CONTEXTS))
@pytest.mark.parametrize("seed", range(4))
def test_brackets_match_the_reference_products(context, seed):
    alg = _CONTEXTS[context]()
    rng = random.Random(seed)
    # the unit and e_1 make both elements of mixed parity, and commute
    # with every PBW monomial, so that some pairs of terms have one
    # term_mul result in both orders; so does a term shared by a and b
    extra = alg.scalar(1) + alg.e(1).scale(alg.field.i)
    _, a = _seeded_element(alg, rng, 4)
    _, b = _seeded_element(alg, rng, 4)
    a, b = a + extra, b + extra + a.odd_part()
    assert _parity(a) is None and _parity(b) is None
    for x, y in ((a, b), (b, a), (a, a)):
        for kind in ("commutator", "anticommutator", "gbracket"):
            assert getattr(x, kind)(y) == _ref_bracket(x, y, kind), kind


def test_bracket_of_commuting_monomials_makes_no_product(coeff_products):
    # pairs whose two orders give one term_mul result and whose Clifford
    # signs cancel are skipped before their Coeffs are multiplied
    alg = stack("B", 2, 2).alg
    F = alg.field
    x1, x2 = alg.x(1).scale(F.i * F.s), alg.x(2).scale(F.r * F.cs[0])
    e12 = (alg.e(1) * alg.e(2)).scale(F.rational(3) * F.i)
    x1y1 = (alg.x(1) * alg.y(1)).scale(F.r)
    e1, e2 = alg.e(1).scale(F.i), alg.e(2).scale(F.r)
    with coeff_products() as calls:
        brackets = [x1.commutator(x2), x1.gbracket(x2), e12.commutator(x1y1),
                    e12.gbracket(x1y1), e1.anticommutator(e2),
                    e1.gbracket(e2), x1y1.commutator(x1y1)]
    assert all(z.is_zero() for z in brackets)
    assert calls == []


def test_bracket_calls_term_mul_once_for_equal_keys(monkeypatch):
    # x1 y1 w under two Clifford masks: each pair of its two terms has
    # one PBW key, so one term_mul call gives both orders
    alg = stack("B", 2, 2).alg
    F = alg.field
    g = alg.rd.reflection_index(0)
    x1y1w = alg.x(1) * alg.y(1) * alg.group(g)
    a = (x1y1w * (alg.e(1).scale(F.s) + alg.e(2).scale(F.r))
         + alg.x(2).scale(F.cs[0]))
    calls = []
    term_mul = type(alg.h).term_mul

    def counting(self, k1, k2):
        calls.append((k1, k2))
        return term_mul(self, k1, k2)
    monkeypatch.setattr(type(alg.h), "term_mul", counting)
    keys = [k[:3] for k in a.terms]
    assert len(keys) == 3 and keys[0] == keys[1]
    for kind in ("commutator", "anticommutator", "gbracket"):
        calls.clear()
        result = getattr(a, kind)(a)
        assert len(calls) == sum(1 if k1 == k2 else 2
                                 for k1 in keys for k2 in keys) == 13
        assert result == _ref_bracket(a, a, kind), kind


def test_product_calls_term_mul_once_per_pair_left_first(monkeypatch):
    # the product is the tau = 0 case of the pair loop: it forms a o
    # alone, so it never asks term_mul for the reversed order
    for context in ("B2", "A1^3"):
        alg = _CONTEXTS[context]()
        rng = random.Random(11)
        _, a = _seeded_element(alg, rng, 5)
        _, b = _seeded_element(alg, rng, 4)
        calls = []
        term_mul = type(alg.h).term_mul

        def counting(self, k1, k2):
            calls.append((k1, k2))
            return term_mul(self, k1, k2)
        monkeypatch.setattr(type(alg.h), "term_mul", counting)
        product = a * b
        monkeypatch.undo()
        assert calls == [(k1[:3], k2[:3]) for k1 in a.terms
                         for k2 in b.terms]
        assert len(calls) == len(a.terms) * len(b.terms)
        assert product == _ref_product(a, b)


# -- basis elements --------------------------------------------------------------

@pytest.mark.parametrize("group", [("B", 2, 2), ("A1", 3, 3)],
                         ids=["B2", "A1^3"])
def test_basis_elements_match_the_cherednik_route(group):
    # the old route: an element of H, flattened under the Clifford unit
    alg = stack(*group).alg
    h = alg.h

    def from_h(a, b, g, sc=None):
        helem = HElement(h, {(a, b, g): h.field.one if sc is None else sc})
        return HCElement(alg, {(a, b, g, 0): v
                               for (a, b, g), v in helem.terms.items()})
    z, one = h.zero_exp, h.id_idx
    for j in range(1, alg.dim + 1):
        assert alg.x(j) == from_h(h._unit_exp(j), z, one)
        assert alg.y(j) == from_h(z, h._unit_exp(j), one)
    for g in range(len(alg.rd.elements)):
        assert alg.group(g) == from_h(z, z, g)
    assert alg.scalar(1) == from_h(z, z, one)
    assert alg.zero() == from_h(z, z, one, h.field.zero)
    assert alg.scalar(h.t) == from_h(z, z, one, h.t)
    assert alg.scalar(Fraction(3, 2)) == from_h(
        z, z, one, h.field.rational(Fraction(3, 2)))


def test_basis_elements_check_their_indices():
    alg = _alg()                                  # d = 2
    for bad in (0, 3):
        for build in (alg.x, alg.y, alg.e):
            with pytest.raises(IndexError):
                build(bad)
        with pytest.raises(IndexError):
            alg.e_set((1, bad))
    # e_1 e_1 = 1 and e_2 e_1 = -e_12: neither is the blade of its mask
    for bad in ((1, 1), (2, 1)):
        with pytest.raises(ValueError):
            alg.e_set(bad)
    assert alg.e_set((1, 2)) == alg.e(1) * alg.e(2)
    assert alg.e_set(()) == alg.scalar(1)


# -- seeded ring identities on the larger groups -------------------------------

@pytest.mark.parametrize("group", [("A", 3, 4), ("D", 4, 4), ("B", 3, 3)],
                         ids=["A r3", "D4", "B3"])
@pytest.mark.parametrize("seed", range(2))
def test_seeded_associativity_and_bullet(group, seed):
    alg = stack(*group).alg
    rng = random.Random(seed)
    a, b, c = (_seeded_element(alg, rng, 3)[1] for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert (a * b).bullet() == b.bullet() * a.bullet()
    assert a.bullet().bullet() == a


# -- the key map of a coordinate swap --------------------------------------------
#
# A swap tau = (j j+1) with tau(R) = R is an isomorphism of H (x) C(V) onto
# the algebra whose c is permuted by tau, and `swap_map` renames the c_k
# back: so phi(x y) = phi(x) phi(y), down to each `term_mul` product.

_SWAP_GROUPS = {"A1^4": ("A1", 4, 4), "A r1 d5": ("A", 1, 5),
                "A r3": ("A", 3, 4), "B3": ("B", 3, 3), "D4": ("D", 4, 4)}


def _swaps(alg):
    return [(j, alg.swap_map(j, orbits))
            for j, orbits in alg.rd.coordinate_swaps]


def _key_element(alg, key, mask=0):
    return HCElement(alg, {key + (mask,): alg.field.one})


@pytest.mark.parametrize("name", list(_SWAP_GROUPS))
def test_swap_map_commutes_with_term_mul(name):
    alg = stack(*_SWAP_GROUPS[name]).alg
    h = alg.h
    rng = random.Random(11)
    keys = set()
    while len(keys) < 6:
        a, b = [0] * h.dim, [0] * h.dim
        for _ in range(rng.randint(0, 3)):
            (a if rng.random() < 0.5 else b)[rng.randrange(h.dim)] += 1
        keys.add((tuple(a), tuple(b), rng.randrange(len(h.rd.elements))))
    swaps = _swaps(alg)
    assert swaps
    for j, phi in swaps:
        image = {}
        for k in keys:
            (key, c), = phi(_key_element(alg, k)).terms.items()
            assert c == Coeff(1) and key[3:] == (0, 0)
            image[k] = key[:3]
        for k1 in keys:
            for k2 in keys:
                lhs = phi(HCElement(alg, {k + (0,): v for k, v
                                          in h.term_mul(k1, k2)}))
                rhs = HCElement(alg, {k + (0,): v for k, v
                                      in h.term_mul(image[k1], image[k2])})
                assert lhs == rhs, (j, k1, k2)


@pytest.mark.parametrize("name", list(_SWAP_GROUPS))
def test_swap_map_is_multiplicative(name):
    alg = stack(*_SWAP_GROUPS[name]).alg
    rng = random.Random(13)
    for j, phi in _swaps(alg):
        for _ in range(3):
            x = _seeded_element(alg, rng, 4)[1]
            y = _seeded_element(alg, rng, 4)[1]
            assert phi(x * y) == phi(x) * phi(y), j


def _mutant_maps(alg, monkeypatch, mutant):
    """The swap maps of `alg` with one part of the key map broken."""
    if mutant == "no c-slot permutation":
        return [(j, alg.swap_map(j, tuple(range(len(orbits)))))
                for j, orbits in alg.rd.coordinate_swaps]
    swap_bits = hc._swap_bits
    monkeypatch.setattr(hc, "_swap_bits",
                        lambda m, j: (swap_bits(m, j)[0], 1))
    return _swaps(alg)


@pytest.mark.parametrize("mutant", ["no c-slot permutation", "no mask sign"])
def test_swap_map_mutants_are_not_multiplicative(mutant, monkeypatch):
    alg = stack("A1", 4, 4).alg                 # four distinct c
    rng = random.Random(13)
    pairs = [(_seeded_element(alg, rng, 4)[1], _seeded_element(alg, rng, 4)[1])
             for _ in range(4)]
    for j, phi in _mutant_maps(alg, monkeypatch, mutant):
        assert any(phi(x * y) != phi(x) * phi(y) for x, y in pairs), j


def test_swap_map_refuses_a_change_of_specialisation():
    rd = RootDatum("A1", 4, 4)
    swaps = rd.coordinate_swaps
    spec = {"s": Fraction(2), "c1": Fraction(1, 3)}
    alg = HCAlgebra(rd, specialize={**spec, "c2": Fraction(1, 5),
                                    "c3": Fraction(1, 7), "c4": Fraction(1, 11)})
    assert [alg.swap_map(j, orbits) for j, orbits in swaps] == [None] * 3
    # c1 a number and c2..c4 symbols: only the swaps of c1 and c2 refuse
    alg = HCAlgebra(rd, specialize=spec)
    assert [alg.swap_map(j, orbits) is None for j, orbits in swaps] == [
        True, False, False]
    # equal numbers may trade places
    alg = HCAlgebra(rd, specialize={**spec, **{f"c{k}": Fraction(1, 3)
                                               for k in (2, 3, 4)}})
    assert None not in [alg.swap_map(j, orbits) for j, orbits in swaps]
