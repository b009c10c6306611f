import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest

from dunkl.groups import (RootDatum, parse_family, reflection,
                          UnsupportedFamilyError, GroupBoundExceededError,
                          AmbientBoundExceededError, AMBIENT_CAP,
                          group_order, order_exceeds)


def test_group_orders():
    assert len(RootDatum("A", 3, 4).elements) == 24
    assert len(RootDatum("B", 3, 3).elements) == 48
    assert len(RootDatum("D", 3, 3).elements) == 24
    assert len(RootDatum("A1", 3, 3).elements) == 8


def test_positive_root_counts():
    assert len(RootDatum("A", 3, 4).positive_roots) == 6
    assert len(RootDatum("B", 3, 3).positive_roots) == 9
    assert len(RootDatum("D", 4, 4).positive_roots) == 12
    assert len(RootDatum("A1", 5, 5).positive_roots) == 5


def test_orbit_structure():
    assert RootDatum("A", 3, 4).num_orbits == 1
    assert RootDatum("B", 3, 3).num_orbits == 2       # long and short roots
    assert RootDatum("A1", 3, 3).num_orbits == 3      # one per factor
    assert RootDatum("A1", 3, 3, single_c=True).num_orbits == 1


@pytest.mark.parametrize("cfg,kwargs,swaps", [
    (("A1", 4, 4), {}, [(0, (1, 0, 2, 3)), (1, (0, 2, 1, 3)),
                        (2, (0, 1, 3, 2))]),
    (("A1", 4, 4), {"single_c": True}, [(0, (0,)), (1, (0,)), (2, (0,))]),
    (("A", 1, 5), {}, [(0, (0,)), (2, (0,)), (3, (0,))]),
    (("A", 2, 5), {}, [(0, (0,)), (1, (0,)), (3, (0,))]),
    (("B", 2, 3), {}, [(0, (0, 1))]),
    (("B", 3, 3), {}, [(0, (0, 1)), (1, (0, 1))]),
    (("D", 4, 4), {}, [(0, (0,)), (1, (0,)), (2, (0,))])],
    ids=["A1^4", "A1^4-single-c", "A r1 d5", "A r2 d5", "B2 d3", "B3", "D4"])
def test_coordinate_swaps_preserve_the_roots(cfg, kwargs, swaps):
    rd = RootDatum(*cfg, **kwargs)
    assert rd.coordinate_swaps == swaps
    roots = set(rd.positive_roots) | {tuple(-a for a in r)
                                      for r in rd.positive_roots}
    for j in range(rd.dim - 1):
        image = {r[:j] + (r[j + 1], r[j]) + r[j + 2:] for r in roots}
        assert (image == roots) == (j in dict(swaps)), j


def test_conjugacy_classes():
    s4 = RootDatum("A", 3, 4)
    assert len(s4.conjugacy_classes()) == 5           # partitions of 4
    b3 = RootDatum("B", 3, 3)
    assert len(b3.conjugacy_classes()) == 10          # bipartitions of 3
    assert sum(len(c) for c in b3.conjugacy_classes()) == 48


def test_minus_identity_membership():
    assert RootDatum("A1", 3, 3).contains_minus_identity()[0]
    assert RootDatum("B", 3, 3).contains_minus_identity()[0]
    assert not RootDatum("A", 3, 4).contains_minus_identity()[0]


def test_reflections_are_involutions():
    rd = RootDatum("B", 2, 2)
    ident = rd.elements[rd.identity_index]
    for s in rd.reflections:
        assert s * s == ident
        assert s != ident


def test_apply_exp_roundtrip():
    rd = RootDatum("B", 3, 3)
    for s in rd.reflections:
        exps = (2, 1, 0)
        img, sgn = s.apply_exp(exps)
        back, sgn2 = s.inverse().apply_exp(img)
        assert back == exps and sgn * sgn2 == 1


def test_cycle_type_labels():
    rd = RootDatum("A", 3, 4)
    labels = {rd.cycle_type_label(rd.elements[c[0]])
              for c in rd.conjugacy_classes()}
    assert labels == {"1,1,1,1", "2,1,1", "2,2", "3,1", "4"}


def test_parse_family():
    assert parse_family("A1^5") == ("A1", 5)
    assert parse_family("b") == ("B", None)
    with pytest.raises(UnsupportedFamilyError):
        parse_family("E8")
    with pytest.raises(UnsupportedFamilyError):
        parse_family("A1^x")


def test_mul_and_inv_tables():
    rd = RootDatum("A", 2, 3)
    n = len(rd.elements)
    for g in range(n):
        assert rd.mul_table[g][rd.inv_table[g]] == rd.identity_index


@pytest.mark.parametrize("cfg", [("A", 4, 5), ("A", 3, 5), ("B", 4, 4),
                                 ("D", 4, 4), ("A1", 4, 4)])
def test_mul_table_matches_direct_products(cfg):
    # reference: the index of every product g * h of GroupElements
    rd = RootDatum(*cfg)
    els = rd.elements
    idx = {g: i for i, g in enumerate(els)}
    assert rd.mul_table == [[idx[g * h] for h in els] for g in els]


@pytest.mark.parametrize("cfg", [("A", 4, 5), ("A", 3, 5), ("B", 4, 4),
                                 ("D", 4, 4), ("A1", 4, 4)])
def test_parents_form_the_breadth_first_tree(cfg):
    rd = RootDatum(*cfg)
    els = rd.elements
    assert rd.parents[rd.identity_index] is None
    depth = [0]
    for i, (g, r) in enumerate(rd.parents[1:], 1):
        assert g < i
        assert rd.mul_table[g][rd.reflection_index(r)] == i
        assert els[g] * rd.reflections[r] == els[i]
        depth.append(depth[g] + 1)
    # breadth-first: no element is listed before one nearer the identity
    assert depth == sorted(depth)


def _reference_classes(rd):
    """The class of g as {w^-1 g w} over every w, by table lookups."""
    tbl, inv = rd.mul_table, rd.inv_table
    n = len(rd.elements)
    assigned = [None] * n
    classes = []
    for g in range(n):
        if assigned[g] is not None:
            continue
        cls = sorted({tbl[tbl[inv[w]][g]][w] for w in range(n)})
        for h in cls:
            assigned[h] = len(classes)
        classes.append(cls)
    return classes


@pytest.mark.parametrize("cfg", [("A", 2, 3), ("A", 3, 4), ("A", 4, 5),
                                 ("A", 3, 5), ("B", 3, 3), ("B", 4, 4),
                                 ("D", 4, 4), ("A1", 3, 3)])
def test_classes_match_the_all_conjugator_loop(cfg):
    rd = RootDatum(*cfg)
    assert rd.conjugacy_classes() == _reference_classes(rd)


def test_conjugation_orbit_stops_at_a_sign_clash():
    rd = RootDatum("A", 2, 3)
    s = rd.reflection_index(0)
    # s s s = s: the edge from s to itself carries -1, a clash
    assert rd.conjugation_orbit(s, lambda r, h: -1)[1] is False
    signs, consistent = rd.conjugation_orbit(s, lambda r, h: 1)
    assert consistent and sorted(signs) == sorted(
        rd.reflection_index(r) for r in range(3))


def test_group_bound_is_checked_at_construction():
    # |S_10| = 3,628,800: refused before any element is enumerated
    with pytest.raises(GroupBoundExceededError):
        RootDatum("A", 9, 10)
    # rank 2000 would need about two million roots of 2001 coordinates
    with pytest.raises(GroupBoundExceededError):
        RootDatum("A", 2000, 2001)


def test_ambient_bound_is_checked_before_any_root_is_built():
    # a million coordinates would build roots of a million ints each
    tracemalloc.start()
    try:
        with pytest.raises(AmbientBoundExceededError,
                           match=f"limit of {AMBIENT_CAP}"):
            RootDatum("A", 2, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    with pytest.raises(AmbientBoundExceededError):
        RootDatum("D", 3, AMBIENT_CAP + 1)
    assert RootDatum("A", 2, AMBIENT_CAP).dim == AMBIENT_CAP


def int_mat_mul(a, b):
    d = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(d))
                       for j in range(d)) for i in range(d))


def leibniz_det(m):
    d = len(m)
    total = 0
    for p in permutations(range(d)):
        inversions = sum(p[i] > p[j] for i in range(d) for j in range(i + 1, d))
        term = -1 if inversions % 2 else 1
        for i in range(d):
            term *= m[i][p[i]]
        total += term
    return total


@pytest.mark.parametrize("cfg", [("B", 3, 3), ("D", 4, 4), ("A", 3, 4)])
def test_signed_permutations_agree_with_int_matrices(cfg):
    rd = RootDatum(*cfg)
    els = rd.elements
    mats = [g.mat for g in els]
    for g, m in zip(els, mats):
        assert all(type(x) is int for row in m for x in row)
        assert g.det == leibniz_det(m)
        assert g.inverse().mat == tuple(zip(*m))
        assert g.inverse().det == g.det
    for g, mg in zip(els, mats):
        for h, mh in zip(els, mats):
            gh = g * h
            assert gh.mat == int_mat_mul(mg, mh)
            assert gh.det == g.det * h.det


def reflection_matrix_reference(alpha):
    """I - coroot * alpha^T, with coroot = 2 alpha / |alpha|^2 in Fractions."""
    n2 = sum(a * a for a in alpha)
    coroot = [Fraction(2 * a, n2) for a in alpha]
    d = len(alpha)
    return tuple(tuple((1 if i == j else 0) - coroot[i] * alpha[j]
                       for j in range(d)) for i in range(d))


@pytest.mark.parametrize("cfg", [("A", 2, 3), ("A", 3, 5), ("A", 4, 5),
                                 ("B", 2, 4), ("B", 3, 3), ("B", 4, 4),
                                 ("D", 4, 4), ("D", 5, 5), ("A1", 3, 3),
                                 ("A1", 2, 4)])
def test_reflections_match_the_matrix_reference(cfg):
    rd = RootDatum(*cfg)
    for alpha, s in zip(rd.positive_roots, rd.reflections):
        m = reflection_matrix_reference(alpha)
        assert s.mat == m
        assert s.det == leibniz_det(m) == -1
        assert all(type(x) is int for x in s.perm + s.sign)
    # a root and its negative give the same reflection
    for alpha in rd.positive_roots:
        assert reflection(tuple(-a for a in alpha)) == reflection(alpha)


@pytest.mark.parametrize("alpha", [(0, 0, 0), (2, 0, 0), (1, 2, 0),
                                   (1, 1, 1), (1, -1, 1), (1, 0, -3)])
def test_reflection_rejects_other_root_shapes(alpha):
    with pytest.raises(ValueError):
        reflection(alpha)


def test_order_exceeds_agrees_with_the_order():
    for family in ("A", "B", "D", "A1"):
        for rank in range(1, 14):
            for bound in (1, 2, 5, 24, 1000, 100_000, 10 ** 9):
                assert order_exceeds(family, rank, bound) == (
                    group_order(family, rank) > bound), (family, rank, bound)


def test_group_order_formula():
    assert group_order("B", 6) == 46_080
    for cfg in [("A", 3, 4), ("B", 3, 3), ("D", 4, 4), ("A1", 3, 3)]:
        assert group_order(*cfg[:2]) == len(RootDatum(*cfg).elements)
    with pytest.raises(UnsupportedFamilyError):
        group_order("E", 8)


def test_group_arithmetic_makes_no_fraction(fractions_made):
    els = RootDatum("B", 3, 3).elements
    with fractions_made() as made:
        for g in els:
            for h in els:
                g * h
            g.inverse()
    assert made == []
