import pytest

from dunkl.groups import RootDatum
from dunkl.admissible import (CoverAlgebra, linearly_independent,
                              sn_partition_predictions)
from dunkl.cli import _parse_partition_label
from dunkl.clifford import reversion_sign
from dunkl.pin import unit_ratio_sign
from dunkl.scalars import Coeff


def _cover(*args, **kwargs):
    return CoverAlgebra(RootDatum(*args, **kwargs))


EXPECTED_EPS_CENTRE_DIMS = {
    ("A", 2, 3): 3,
    ("A", 3, 4): 1,
    ("A", 4, 5): 5,
    ("A1", 3, 3): 2,
    ("A1", 4, 4): 1,
}


@pytest.mark.parametrize("config", sorted(EXPECTED_EPS_CENTRE_DIMS))
def test_epsilon_centre_oracle_agreement(config):
    cov = _cover(*config)
    brute, _consistency = cov.brute_force_epsilon_centre()
    catalog = [v for _rep, v in cov.epsilon_centre_basis()]
    ok_b, rank_b = linearly_independent(brute)
    ok_c, rank_c = linearly_independent(catalog)
    _, rank_u = linearly_independent(brute + catalog)
    assert ok_b and ok_c
    assert rank_b == rank_c == rank_u == EXPECTED_EPS_CENTRE_DIMS[config]


def test_epsilon_centre_elements_are_central():
    cov = _cover("A1", 3, 3)
    for v in cov.brute_force_epsilon_centre()[0]:
        assert cov.is_epsilon_central(v)


def _reference_epsilon_centre(cov):
    """The sign chains a_{s g s} = eps(s) conj_sign(s, g) a_g, propagated
    frontier by frontier over the sorted reflections."""
    tbl, inv, pc = cov.rd.mul_table, cov.rd.inv_table, cov.pin
    gens = sorted({cov.rd.reflection_index(r)
                   for r in range(len(cov.rd.positive_roots))})
    basis, consistency = [], []
    for cls in cov.rd.conjugacy_classes():
        rep = cls[0]
        sign = {rep: 1}
        frontier = [rep]
        consistent = True
        while frontier and consistent:
            new = []
            for g in frontier:
                for s in gens:
                    h = tbl[tbl[s][g]][inv[s]]
                    sgn = pc.epsilon(s) * pc.conj_sign(s, g) * sign[g]
                    if h not in sign:
                        sign[h] = sgn
                        new.append(h)
                    elif sign[h] != sgn:
                        consistent = False
            frontier = new
        consistency.append((rep, consistent))
        if consistent:
            basis.append({g: Coeff(sg) for g, sg in sign.items()})
    return basis, consistency


@pytest.mark.parametrize("config", [("A", 2, 3), ("A", 3, 4), ("A", 4, 5),
                                    ("A", 3, 5), ("B", 3, 3), ("B", 4, 4),
                                    ("D", 4, 4), ("A1", 3, 3)])
def test_epsilon_centre_matches_the_frontier_sign_chains(config):
    cov = _cover(*config)
    assert cov.brute_force_epsilon_centre() == _reference_epsilon_centre(cov)


def test_class_sums_are_conjugation_stable():
    cov = _cover("A", 2, 3)
    tbl, inv = cov.rd.mul_table, cov.rd.inv_table
    for cls in cov.rd.conjugacy_classes():
        v = cov.class_sum_T(cls[0])
        if not v:
            continue
        support = set(v)
        assert support <= set(cls)


def test_bullet_on_cover_algebra_is_anti_involution():
    cov = _cover("A1", 2, 2)
    from dunkl.scalars import C_ONE, C_I, Coeff
    a = {0: C_ONE, 1: C_I}
    b = {2: Coeff(3), 3: C_ONE}
    lhs = cov.bullet(cov.mul(a, b))
    rhs = cov.mul(cov.bullet(b), cov.bullet(a))
    assert lhs == rhs
    assert cov.bullet(cov.bullet(a)) == a


def _reference_bullet_signs(cov):
    """tau(g) read off the Clifford lifts: star each {mask: Coeff} lift
    and compare it with the lift of g^-1."""
    pc, inv = cov.pin, cov.rd.inv_table
    out = []
    for g in range(cov.n):
        starred = {m: cf.conj_i() if reversion_sign(m) > 0 else -cf.conj_i()
                   for m, cf in pc.lift(g).items()}
        out.append(unit_ratio_sign(starred, pc.lift(inv[g])))
    return out


@pytest.mark.parametrize("config", [("A", 2, 3), ("A", 3, 4), ("A", 4, 5),
                                    ("A", 3, 5), ("B", 2, 2), ("B", 3, 3),
                                    ("B", 4, 4), ("D", 4, 4), ("A1", 3, 3),
                                    ("A1", 4, 4), ("D", 5, 5)])
def test_bullet_signs_match_the_clifford_lifts(config):
    cov = _cover(*config)
    assert cov._bullet_signs == _reference_bullet_signs(cov)


def test_admissible_basis_builds_no_clifford_lift():
    cov = _cover("A", 4, 5)
    cov.brute_force_epsilon_centre()
    cov.admissible_basis()
    assert all(u is None for u in cov.pin._lifts)


def test_s4_even_dimension_admissible_is_exactly_3_1():
    cov = _cover("A", 3, 4)
    admissible = [e["label"] for e in cov.admissible_basis()
                  if e["admissible_adjusted"]]
    assert admissible == ["3,1"]


def test_a13_admissible_classes():
    cov = _cover("A1", 3, 3)
    entries = {e["label"]: e for e in cov.admissible_basis()}
    # identity and the full sign flip carry admissible elements
    assert entries["1,1,1"]["admissible_adjusted"]
    assert entries["1-,1-,1-"]["admissible_adjusted"]


def test_partition_predictions():
    odd = dict(sn_partition_predictions(4, True))
    assert odd[(3, 1)] and odd[(1, 1, 1, 1)]
    assert not odd[(2, 2)] and not odd[(4,)] and not odd[(2, 1, 1)]
    even = dict(sn_partition_predictions(4, False))
    assert even[(3, 1)]
    assert not even[(4,)]           # odd permutation
    assert not even[(2, 2)]         # repeated part
    assert not even[(1, 1, 1, 1)]   # repeated part


def test_s3_odd_dimension_discrepancy_is_visible():
    # brute force finds an admissible element on the transposition class
    # even though the no-even-parts criterion predicts none; this known
    # discrepancy must stay visible
    cov = _cover("A", 2, 3)
    entries = {e["label"]: e for e in cov.admissible_basis()}
    assert entries["2,1"]["admissible_adjusted"]
    preds = dict(sn_partition_predictions(3, True))
    assert not preds[(2, 1)]


def test_parse_partition_label():
    assert _parse_partition_label("3,1") == (3, 1)
    assert _parse_partition_label("3,1,1", strip_ones=2) == (3,)
    assert _parse_partition_label("3,2", strip_ones=1) is None
    assert _parse_partition_label("1-,1-,1-") is None
