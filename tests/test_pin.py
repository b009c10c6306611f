import functools
import random
from fractions import Fraction

import pytest

from dunkl.groups import RootDatum
from dunkl.pin import PinCover, cunit_mul, unit_ratio_sign
from dunkl.scalars import Coeff, C_ONE

_HALF_R = Coeff(0, 0, Fraction(1, 2))   # 1/sqrt2 = r/2


def _bfs_lifts(rd, one, gens, mul):
    """Lifts along the breadth-first walk over the reflections: u(1) = one
    and u(g s_r) = mul(u(g), gens[r]) for the first g that reaches it."""
    lifts = [None] * len(rd.elements)
    lifts[rd.identity_index] = one
    frontier = [rd.identity_index]
    while frontier:
        new = []
        for g in frontier:
            for r_idx, gen in enumerate(gens):
                h = rd.mul_table[g][rd.reflection_index(r_idx)]
                if lifts[h] is None:
                    lifts[h] = mul(lifts[g], gen)
                    new.append(h)
        frontier = new
    return lifts


def _reference_lifts(rd):
    """Canonical lifts over Q(i, sqrt2) from `Coeff` products.

    Returns (generator lifts, lifts), each as {mask: Coeff} dicts.
    """
    gens = []
    for alpha, n2 in zip(rd.positive_roots, rd.root_norms_sq):
        if n2 == 1:
            (j,) = [k for k, a in enumerate(alpha) if a]
            gens.append({1 << j: Coeff(alpha[j])})
        else:
            gens.append({1 << k: _HALF_R if a > 0 else -_HALF_R
                         for k, a in enumerate(alpha) if a})
    return gens, _bfs_lifts(rd, {0: C_ONE}, gens, cunit_mul)


def _int_unit_mul(u, v):
    """Product of units (k, n) = 2^(-k/2) sum_m n[m] e_m, halved while
    k >= 2 and every value is even."""
    k = u[0] + v[0]
    n = cunit_mul(u[1], v[1])
    while k >= 2 and not any(x % 2 for x in n.values()):
        n = {m: x // 2 for m, x in n.items()}
        k -= 2
    return k, n


def _reference_int_units(rd):
    """The lifts of `_reference_lifts` as integer units (k, n)."""
    gens = [(n2 - 1, {1 << j: a for j, a in enumerate(alpha) if a})
            for alpha, n2 in zip(rd.positive_roots, rd.root_norms_sq)]
    return _bfs_lifts(rd, (0, {0: 1}), gens, _int_unit_mul)


def test_lift_units_square_to_plus_minus_one():
    rd = RootDatum("B", 2, 2)
    pc = PinCover(rd)
    for g in range(len(rd.elements)):
        u = pc.lift(g)
        sq = cunit_mul(u, u)
        gg = rd.mul_table[g][g]
        assert unit_ratio_sign(sq, pc.lift(gg)) in (1, -1)


def test_cocycle_identity():
    # sigma(g,h) sigma(gh,k) = sigma(h,k) sigma(g,hk)  (2-cocycle condition)
    rd = RootDatum("A", 2, 3)
    pc = PinCover(rd)
    n = len(rd.elements)
    tbl = rd.mul_table
    for g in range(n):
        for h in range(n):
            for k in range(n):
                lhs = pc.sigma(g, h) * pc.sigma(tbl[g][h], k)
                rhs = pc.sigma(h, k) * pc.sigma(g, tbl[h][k])
                assert lhs == rhs


def test_cover_group_axioms_on_pairs():
    rd = RootDatum("A1", 3, 3)
    pc = PinCover(rd)
    one, theta = (rd.identity_index, 1), (rd.identity_index, -1)
    els = [(g, e) for g in range(pc.n) for e in (1, -1)]
    assert len(els) == 16
    for a in els:
        assert pc.mul(a, pc.inv(a)) == one
        assert pc.mul(one, a) == a
        assert pc.mul(theta, theta) == one


def test_parity_matches_determinant():
    rd = RootDatum("B", 3, 3)
    pc = PinCover(rd)
    for g, ge in enumerate(rd.elements):
        assert pc.parity(g) == (0 if ge.det == 1 else 1)


def test_conj_sign_matches_direct_unit_conjugation():
    rd = RootDatum("B", 2, 2)
    pc = PinCover(rd)
    tbl, inv = rd.mul_table, rd.inv_table
    for w in range(len(rd.elements)):
        for g in range(len(rd.elements)):
            prod = cunit_mul(cunit_mul(pc.lift(w), pc.lift(g)),
                             pc.lift(inv[w]))
            extra = pc.sigma(w, inv[w])
            target = pc.lift(tbl[tbl[w][g]][inv[w]])
            direct = unit_ratio_sign(prod, target) * extra
            assert direct == pc.conj_sign(w, g)


def _sigma_by_product(pc, g, h):
    """sigma(g, h) from `cunit_mul` on the integer units: the product of
    the int parts of u(g) and u(h) is a multiple of the int part of u(gh)
    by +-2^j, and sigma is the sign of that factor."""
    prod = cunit_mul(pc._units[g][1], pc._units[h][1])
    target = pc._units[pc.rd.mul_table[g][h]][1]
    assert set(prod) == set(target)
    m = next(iter(target))
    ratio = Fraction(prod[m], target[m])
    assert all(prod[k] == ratio * x for k, x in target.items())
    return 1 if ratio > 0 else -1


_SIGN_GROUPS = [("A", 2, 3), ("A", 3, 4), ("A", 4, 5), ("A", 3, 5),
                ("B", 3, 3), ("D", 4, 4), ("A1", 3, 3), ("B", 4, 4)]


@pytest.mark.parametrize("group", _SIGN_GROUPS)
def test_conj_sign_matches_the_three_sigma_products(group):
    # the unit-product form sigma(w, g) sigma(wg, w^-1) sigma(w, w^-1) on
    # every pair; B4 (147,456 pairs) on a fixed sample of 4,000.  Both
    # first factors range over all pairs, so each product is formed once.
    rd = RootDatum(*group)
    pc = PinCover(rd)
    tbl, inv = rd.mul_table, rd.inv_table
    n = pc.n
    pairs = [(w, g) for w in range(n) for g in range(n)]
    if group == ("B", 4, 4):
        pairs = random.Random(17).sample(pairs, 4000)
    sigma = functools.cache(lambda g, h: _sigma_by_product(pc, g, h))
    for w, g in pairs:
        ref = sigma(w, g) * sigma(tbl[w][g], inv[w]) * sigma(w, inv[w])
        assert pc.conj_sign(w, g) == ref, (w, g)


@pytest.mark.parametrize("group", _SIGN_GROUPS)
def test_inverse_sign_matches_the_unit_product(group):
    rd = RootDatum(*group)
    pc = PinCover(rd)
    inv = rd.inv_table
    for g in range(pc.n):
        for e in (1, -1):
            sigma = _sigma_by_product(pc, g, inv[g])
            assert pc.inv((g, e)) == (inv[g], e * sigma)


def _unit_corruptions(unit, m):
    """The unit with its k shifted, with its term at mask m dropped, and
    with that term's magnitude doubled."""
    k, n = unit
    yield k + 1, n
    yield k - 2, n
    yield k, {mm: x for mm, x in n.items() if mm != m}
    yield k, {**n, m: 2 * n[m]}


def test_conj_sign_rejects_a_corrupted_target_unit():
    rd = RootDatum("B", 3, 3)
    tbl, inv = rd.mul_table, rd.inv_table
    pc = PinCover(rd)
    # a pair with several terms in u(g) and w g w^-1 != g
    w, g = next((w, g) for g in range(pc.n) if len(pc._units[g][1]) > 2
                for w in range(pc.n) if tbl[tbl[w][g]][inv[w]] != g)
    target = tbl[tbl[w][g]][inv[w]]
    # the blade that conj_sign reads: the image of u(g)'s first term
    el = rd.elements[w]
    a = next(iter(pc._units[g][1]))
    image = sum(1 << el.perm[j] for j in range(rd.dim) if a >> j & 1)
    assert image in pc._units[target][1]
    good = pc._units[target]
    for bad in _unit_corruptions(good, image):
        pc._units[target] = bad
        with pytest.raises(ValueError):
            pc.conj_sign(w, g)
    pc._units[target] = good
    pc.conj_sign(w, g)


def test_inverse_sign_rejects_a_corrupted_inverse_unit():
    rd = RootDatum("B", 3, 3)
    pc = PinCover(rd)
    inv = rd.inv_table
    g = next(g for g in range(pc.n)
             if len(pc._units[g][1]) > 2 and inv[g] != g)
    good = pc._units[inv[g]]
    # the blade read: u(g)'s first term, reversed in place
    for bad in _unit_corruptions(good, next(iter(pc._units[g][1]))):
        pc._units[inv[g]] = bad
        with pytest.raises(ValueError):
            pc.inv((g, 1))
    pc._units[inv[g]] = good
    pc.inv((g, 1))


def test_s4_split_classes():
    # frozen oracle: for the 4-element symmetric group on 4 coordinates the
    # split classes are the identity type, the 3+1 type and the 4-cycles
    rd = RootDatum("A", 3, 4)
    pc = PinCover(rd)
    split = {r["label"] for r in pc.split_class_report() if r["splits"]}
    assert split == {"1,1,1,1", "3,1", "4"}


def test_a13_split_classes():
    # sign-flip cube: only the identity and the full flip split
    rd = RootDatum("A1", 3, 3)
    pc = PinCover(rd)
    split = {r["label"] for r in pc.split_class_report() if r["splits"]}
    assert split == {"1,1,1", "1-,1-,1-"}


def test_cover_class_count_consistency():
    rd = RootDatum("A", 3, 4)
    pc = PinCover(rd)
    classes = pc.cover_classes()
    assert sum(len(c) for c in classes) == 2 * len(rd.elements)
    n_split = sum(1 for r in pc.split_class_report() if r["splits"])
    n_w = len(rd.conjugacy_classes())
    assert len(classes) == n_w + n_split


@pytest.mark.parametrize("group", [("B", 3, 3), ("D", 4, 4), ("A", 3, 4),
                                   ("A1", 3, 3), ("A", 4, 5), ("A", 3, 5),
                                   ("B", 4, 4), ("A1", 4, 4)])
def test_integer_units_match_coeff_reference(group):
    # every lift against Coeff products; sigma on every pair against the
    # integer-unit reference, and also against Coeff products below 100
    # elements
    rd = RootDatum(*group)
    pc = PinCover(rd)
    gens, ref = _reference_lifts(rd)
    assert [pc.lift(rd.reflection_index(r))
            for r in range(len(rd.reflections))] == gens
    n = len(rd.elements)
    for g in range(n):
        assert pc.lift(g) == ref[g]
    units = _reference_int_units(rd)
    tbl = rd.mul_table
    for g in range(n):
        for h in range(n):
            k, prod = _int_unit_mul(units[g], units[h])
            k_gh, target = units[tbl[g][h]]
            assert k == k_gh
            sign = 1 if prod == target else -1
            assert prod == {m: sign * x for m, x in target.items()}
            assert pc.sigma(g, h) == sign
            if n < 100:
                prod = cunit_mul(ref[g], ref[h])
                assert sign == unit_ratio_sign(prod, ref[tbl[g][h]])


def _reference_cover_classes(pc):
    """Cover classes with every w in W as a conjugator, and each pair's
    class index."""
    tbl, inv = pc.rd.mul_table, pc.rd.inv_table
    assigned = {}
    classes = []
    for g in range(pc.n):
        for e in (1, -1):
            if (g, e) in assigned:
                continue
            cls = sorted({(tbl[tbl[w][g]][inv[w]], e * pc.conj_sign(w, g))
                          for w in range(pc.n)})
            for b in cls:
                assigned[b] = len(classes)
            classes.append(cls)
    return classes, assigned


@pytest.mark.parametrize("group", [("A", 2, 3), ("A", 3, 4), ("A", 4, 5),
                                   ("A", 3, 5), ("B", 3, 3), ("B", 4, 4),
                                   ("D", 4, 4), ("A1", 3, 3)])
def test_cover_classes_match_the_all_conjugator_loop(group):
    pc = PinCover(RootDatum(*group))
    classes, class_of = _reference_cover_classes(pc)
    assert pc.cover_classes() == classes
    for g in range(pc.n):
        assert pc.class_splits(g) == (class_of[(g, 1)] != class_of[(g, -1)])


def test_cover_classes_make_no_field_products(coeff_products):
    with coeff_products() as made:
        classes = PinCover(RootDatum("A", 4, 5)).cover_classes()
    assert made == []
    assert sum(len(c) for c in classes) == 240


def test_sigma_table_is_allocated_by_the_first_read():
    rd = RootDatum("B", 3, 3)
    pc = PinCover(rd)
    # the class walk and the inverses read no cocycle
    pc.cover_classes()
    for g in range(pc.n):
        pc.inv((g, 1))
    assert pc._sigma is None
    fresh = PinCover(rd)
    pairs = [(g, h) for g in range(pc.n) for h in range(pc.n)]
    signs = [pc.sigma(g, h) for g, h in pairs]
    assert len(pc._sigma) == pc.n ** 2
    assert set(pc._sigma) == {1, 2}
    # a second read is the table's, and the table is filled in any order
    assert [pc.sigma(g, h) for g, h in pairs] == signs
    assert [fresh.sigma(g, h) for g, h in reversed(pairs)] == signs[::-1]
    assert fresh._sigma == pc._sigma


def _corrupted_sigma(unit_of_target):
    """sigma(a, b) on a fresh B3 cover whose unit at a*b is replaced."""
    rd = RootDatum("B", 3, 3)
    pc = PinCover(rd)
    b = rd.reflection_index(0)
    # a target whose lift has several terms, reached from a, b != target
    target = next(g for g in range(pc.n) if len(pc._units[g][1]) > 2)
    a = rd.mul_table[target][b]
    assert rd.mul_table[a][b] == target and target not in (a, b)
    pc._units[target] = unit_of_target(pc._units[target])
    return pc.sigma(a, b)


def test_sigma_rejects_a_unit_with_the_wrong_k():
    for dk in (-1, 1, 2):
        with pytest.raises(ValueError):
            _corrupted_sigma(lambda u, dk=dk: (u[0] + dk, u[1]))


def test_sigma_rejects_a_unit_with_one_flipped_entry():
    # every term of the product is compared, not only the first one
    for i in range(4):
        def flip(u, i=i):
            k, n = u
            masks = sorted(n)
            m = masks[i % len(masks)]
            return k, {**n, m: -n[m]}
        with pytest.raises(ValueError):
            _corrupted_sigma(flip)


def test_cunit_mul_is_value_generic():
    # (e1 + e2)(e1 - e2) = -2 e1 e2 over int and over Coeff values: the
    # scalar terms cancel and are dropped
    u = {0b01: 1, 0b10: 1}
    v = {0b01: 1, 0b10: -1}
    assert cunit_mul(u, v) == {0b11: -2}
    as_coeff = [{m: Coeff(x) for m, x in w.items()} for w in (u, v)]
    assert cunit_mul(*as_coeff) == {0b11: Coeff(-2)}
