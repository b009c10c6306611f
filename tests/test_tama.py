from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from conftest import stack
from dunkl import hc, tama
from dunkl.cli import (Context, Runner, RunConfig, _admissible_entries,
                       first_failure, suite_relations)
from dunkl.hc import HCElement
from dunkl.scalars import C_R, Coeff, Scalar
from dunkl.tama import Tama, perm_sign


def test_generators_match_projection_small(a14):
    tm = a14.tama
    for size in (1, 2, 3):
        for tup in combinations(range(1, 5), size):
            if size == 1:
                lhs = tm.ocheck(tup[0])
            else:
                lhs = tm.O(tup)
            assert lhs == tm.project_O(tup)


def test_four_index_closed_form_matches_projection(a14):
    tm = a14.tama
    assert tm.O((1, 2, 3, 4)) == tm.project_O((1, 2, 3, 4))


def test_closed_form_gives_the_low_generators(s3):
    # for |A| = 1, 2, 3 the one closed form is Ocheck_j, O_ij and O_ijk
    tm = s3.tama
    alg = s3.alg
    t = alg.h.t
    e, M, oc = alg.e, tm.M, tm.ocheck
    assert tm.O((2,)) == oc(2)
    assert tm.O((1, 3)) == (M(1, 3) + (e(1) * e(3)).scale(
        t * alg.field.rational(Fraction(1, 2))) + oc(1) * e(3) - oc(3) * e(1))
    assert tm.O((1, 2, 3)) == (
        M(1, 2) * e(3) - M(1, 3) * e(2) + M(2, 3) * e(1)
        + (e(1) * e(2) * e(3)).scale(t) + oc(1) * e(2) * e(3)
        - oc(2) * e(1) * e(3) + oc(3) * e(1) * e(2))


def test_generator_skew_symmetry(a14):
    tm = a14.tama
    assert tm.O((2, 1)) == -tm.O((1, 2))
    assert tm.O((3, 1, 2)) == tm.O((1, 2, 3))
    assert tm.O((2, 1, 3)) == -tm.O((1, 2, 3))


def test_generators_graded_commute_with_realisation(a13):
    tm = a13.tama
    osp = a13.osp
    for elem in (tm.ocheck(1), tm.O((1, 2)), tm.O((1, 2, 3))):
        assert elem.gbracket(osp.F_plus).is_zero()
        assert elem.gbracket(osp.F_minus).is_zero()


def test_relation_suite_a13(a13):
    tm = a13.tama
    for name in ("r21-cyclic", "r22-shared", "r23-shared2", "r33-equal"):
        for tup in tm.relation_index_tuples(name):
            assert tm.relation_residual(name, tup).is_zero(), (name, tup)


def test_relation_suite_s3(s3):
    tm = s3.tama
    for name in ("r21-cyclic", "r22-shared", "r22-shared-literal",
                 "r23-shared2", "r33-equal"):
        for tup in tm.relation_index_tuples(name):
            assert tm.relation_residual(name, tup).is_zero(), (name, tup)


def test_literal_variant_fails_on_a1_cubed(a13):
    # among the groups tried, the alternative middle-commutator reading
    # holds only on A r2 (A r3, A r4, D r4 and B r3 fail it); on the
    # sign-flip group A1^3 it must differ from the corrected relation
    tm = a13.tama
    failures = [tup for tup in tm.relation_index_tuples("r22-shared-literal")
                if not tm.relation_residual("r22-shared-literal",
                                            tup).is_zero()]
    assert failures


def test_reconstruction_at_t_one(a14):
    # t = s^2 / 2 is 1 at s = sqrt2
    tm = a14.tama
    res = tm.reconstruction_residual((1, 2, 3, 4))
    assert res.map_scalars(lambda sc: sc.substitute_s(C_R)).is_zero()


def test_reconstruction_fails_at_generic_t(a14):
    tm = a14.tama
    assert not tm.reconstruction_residual((1, 2, 3, 4)).is_zero()


def _literal_reconstruction_residual(tm, idxs):
    """O_A minus its reconstruction written out: each product is
    antisymmetrised over all n! orderings of idxs."""
    O, oc = tm.O, tm.ocheck
    products = {
        4: ((6, lambda a, b, c, e: O((a, b)) * O((c, e))),
            (-8, lambda a, b, c, e: O((a, b, c)) * oc(e))),
        5: ((4, lambda a, b, c, e, f: O((a, b, c)) * O((e, f))),
            (48, lambda a, b, c, e, f: O((a, b, c)) * oc(e) * oc(f)),
            (-36, lambda a, b, c, e, f: O((a, b)) * O((c, e)) * oc(f)))}
    n = len(idxs)
    res = O(idxs)
    for weight, f in products[n]:
        acc = tm.alg.zero()
        for p in permutations(range(n)):
            term = f(*(idxs[q] for q in p))
            acc = acc + (term if perm_sign(p) > 0 else -term)
        res = res - acc.scale(Fraction(weight, factorial(n)))
    return res


@pytest.mark.parametrize("group,idxs", [
    (("A1", 4, 4), (1, 2, 3, 4)), (("A1", 4, 4), (2, 1, 4, 3)),
    (("A1", 5, 5), (1, 2, 3, 4)), (("A1", 5, 5), (1, 2, 3, 4, 5)),
    (("A1", 5, 5), (5, 3, 1, 2, 4)), (("A", 4, 5), (1, 2, 3, 4)),
    (("A", 4, 5), (1, 2, 3, 4, 5))],
    ids=["A1^4", "A1^4-unsorted", "A1^5-4", "A1^5", "A1^5-unsorted",
         "A_r4-4", "A_r4"])
def test_reconstruction_matches_the_literal_sum(group, idxs):
    tm = stack(*group).tama
    assert tm.reconstruction_residual(idxs) == _literal_reconstruction_residual(
        tm, idxs)


def _sign_ignored(seq):
    """`perm_sign` taking +1 for the odd shuffle (0, 2, 1, 3[, 4]), a
    tuple of the (2, 2) and (2, 2, 1) blocks."""
    return 1 if tuple(seq) == (0, 2, 1, 3, 4)[:len(seq)] else perm_sign(seq)


def _tuple_dropped(pool, blocks, _original=tama._block_tuples):
    """`_block_tuples` without the identity ordering, its first tuple."""
    first = tuple(range(sum(blocks)))
    return (t for t in _original(pool, blocks) if t != first)


@pytest.mark.parametrize("name,value", [
    ("perm_sign", _sign_ignored),
    ("factorial", lambda k: factorial(k) + (k == 2)),
    ("_block_tuples", _tuple_dropped)],
    ids=["shuffle-sign-ignored", "block-factorial-off", "block-tuple-dropped"])
@pytest.mark.parametrize("idxs", [(1, 2, 3, 4), (1, 2, 3, 4, 5)],
                         ids=["4", "5"])
def test_reconstruction_reference_catches_mutations(name, value, idxs,
                                                    monkeypatch):
    tm = stack("A1", 5, 5).tama
    reference = _literal_reconstruction_residual(tm, idxs)
    monkeypatch.setattr(tama, name, value)
    assert tm.reconstruction_residual(idxs) != reference


def test_reconstruction_refuses_other_arities(a14):
    for idxs in ((1, 2, 3), (1, 2, 3, 4, 5, 6)):
        with pytest.raises(ValueError):
            a14.tama.reconstruction_residual(idxs)


def _used_set_tuples(d, blocks):
    """The relation tuples by a recursion over the indices not yet used,
    one increasing combination per block."""
    if sum(blocks) > d:
        return []
    pool = range(1, d + 1)
    out = []

    def rec(prefix, remaining_blocks, used):
        if not remaining_blocks:
            out.append(tuple(prefix))
            return
        b = remaining_blocks[0]
        for combo in combinations([p for p in pool if p not in used], b):
            rec(prefix + list(combo), remaining_blocks[1:], used | set(combo))

    rec([], blocks, frozenset())
    return out


@pytest.mark.parametrize("d", range(1, 8))
def test_relation_index_tuples_keep_their_order(d):
    # the first failing tuple a relation check reports depends on this order
    tm = object.__new__(Tama)
    tm.d = d
    for name, blocks in Tama.RELATIONS.items():
        assert tm.relation_index_tuples(name) == _used_set_tuples(d, blocks), (
            name)


def test_dirac_squares_to_casimir(a13):
    tm = a13.tama
    alg = a13.alg
    D = tm.dirac()
    quarter = alg.scalar(alg.field.rational(Fraction(1, 4)))
    assert (D * D - a13.osp.Omega_osp - quarter).is_zero()
    assert a13.osp.Omega_quarter == a13.osp.Omega_osp + quarter


def test_dirac_is_built_once(a13):
    assert a13.tama.dirac() is a13.tama.dirac()


def test_each_generator_is_negated_once(a13, monkeypatch):
    tm = Tama(a13.alg, a13.osp)
    negations = []
    original = HCElement.__neg__

    def counted(self):
        negations.append(1)
        return original(self)
    monkeypatch.setattr(HCElement, "__neg__", counted)
    odd = [tm.O((2, 1)) for _ in range(3)] + [tm.O((1, 3, 2))
                                              for _ in range(3)]
    assert len(negations) == 2
    assert odd[0] is odd[2] and odd[3] is odd[5]
    monkeypatch.setattr(HCElement, "__neg__", original)
    assert odd[0] == -tm.O((1, 2)) and odd[3] == -tm.O((1, 2, 3))
    assert tm.O((3, 1, 2)) is tm.O((1, 2, 3))


def test_dirac_checks_never_square_rho_omega(a13, monkeypatch):
    # by bilinearity the only products are D D and one bracket of D with
    # rho_omega: no rho_omega rho_omega, and D_omega = D + rho_omega is
    # never formed
    rho = a13.alg.rho((a13.rd.reflection_index(0), 1))
    D = a13.tama.dirac()
    pairs = []
    original = HCElement._pairs

    def counted(self, o, sign, graded):
        pairs.append((self, o))
        return original(self, o, sign, graded)
    monkeypatch.setattr(HCElement, "_pairs", counted)
    for eps in (1, -1):
        pairs.clear()
        a13.tama.dirac_checks(rho, eps)
        assert [(a is D, b is D, b is rho) for a, b in pairs] == [
            (True, True, False), (True, False, True)]


def _literal_dirac_residuals(tm, rho, eps):
    """The five clauses of `Tama.dirac_checks` as literal residuals, with
    D_w = D + rho formed and rho^2 expanded."""
    F = tm.alg.field
    D = tm.dirac()
    casimir = tm.osp.Omega_quarter
    Dw = D + rho
    a = Dw.scale(F.rational(Fraction(1, 2))) - rho
    rho_sq = rho * rho
    return {
        "D_bullet": D.bullet() - D,
        "D_square": D * D - casimir,
        "Domega_bullet": Dw.bullet() - Dw,
        "Domega_square": Dw * Dw - (casimir + rho_sq + (rho * D).scale(
            F.rational(1 + eps))),
        "vogan_identity": Dw.anticommutator(a) + rho_sq - casimir,
    }


def _assembled_dirac_residuals(tm, rho, eps, monkeypatch):
    """The residual elements `dirac_checks` tests, in its key order."""
    seen = []
    original = HCElement.is_zero

    def recorded(self):
        seen.append(self)
        return original(self)
    with monkeypatch.context() as m:
        m.setattr(HCElement, "is_zero", recorded)
        flags = tm.dirac_checks(rho, eps)
    assert len(seen) == len(flags)
    assert [r.is_zero() for r in seen] == list(flags.values())
    return dict(zip(flags, seen))


@pytest.mark.parametrize("group", [("A1", 3, 3), ("B", 2, 2), ("A", 3, 4),
                                   ("B", 3, 3)],
                         ids=["A1^3", "B2", "A_r3", "B_r3"])
def test_dirac_checks_residuals_equal_the_literal_ones(group, monkeypatch):
    # on every admissible class of these groups eps = 1, rho^bullet = rho
    # and the eps-bracket vanishes, so the inputs that are not admissible
    # (i rho, and rho(g) + x_1 e_1 with either eps) carry the terms that
    # a wrong twist sign, bullet or Vogan assembly would change
    ctx = stack(*group)
    alg, tm = ctx.alg, ctx.tama
    inputs = [(ctx.rho_omega(entry), alg.pin.epsilon(entry["rep"]))
              for entry in _admissible_entries(ctx)]
    assert inputs
    rho, eps = inputs[0]
    g = alg.rho((ctx.rd.reflection_index(0), 1)) + alg.x(1) * alg.e(1)
    inputs += [(rho.scale(alg.field.i), eps), (g, 1), (g, -1)]
    for rho, eps in inputs:
        assembled = _assembled_dirac_residuals(tm, rho, eps, monkeypatch)
        literal = _literal_dirac_residuals(tm, rho, eps)
        assert list(assembled) == list(literal)
        for key, res in literal.items():
            assert assembled[key] == res, key


def test_dirac_bullet_sign_tracks_dimension(a13, a14):
    # conjugate-linear bullet fixes D in even dimension and negates it in
    # odd dimension
    for stack, sign in ((a13, -1), (a14, 1)):
        D = stack.tama.dirac()
        res = D.bullet() - D.scale(stack.alg.field.rational(sign))
        assert res.is_zero()


def test_scasimir_gamma_identity(a13):
    assert a13.tama.sgamma_residual().is_zero()


def test_scasimir_square_expansion(a13):
    assert a13.tama.ssquare_expansion_residual().is_zero()


def test_casimir_graded_central(a13):
    tm = a13.tama
    assert tm.graded_central_in_tama(a13.osp.Omega_osp) == []


def test_centre_square_root_branch(a13):
    tm = a13.tama
    cands = dict(tm.centre_candidates())
    S_w0 = cands["S*(w0 tensor 1)"]
    assert tm.graded_central_in_tama(S_w0) == []
    # and its square recovers a polynomial in the Casimir: (S w0)^2 = S^2
    osp = a13.osp
    alg = a13.alg
    quarter = alg.scalar(alg.field.rational(Fraction(1, 4)))
    assert (S_w0 * S_w0 - osp.Omega_osp - quarter).is_zero()


def test_epsilon_commutation(a13, a14):
    assert a13.tama.epsilon_commutation_residuals() == []
    assert a14.tama.epsilon_commutation_residuals() == []


def test_covariance_under_reflections(s3):
    tm = s3.tama
    for r_idx in range(len(s3.rd.positive_roots)):
        assert tm.covariance_residual(r_idx, (1, 2)).is_zero()
        assert tm.covariance_residual(r_idx, (1, 2, 3)).is_zero()


def _ocheck_reference(alg, j):
    """Ocheck_j as sum_r -c_r <y_j, alpha_r>/|alpha_r| s_r * gamma_r: the
    group element times the Clifford vector gamma(alpha_r / |alpha_r|),
    built here from the root."""
    rd, F = alg.rd, alg.field
    z = alg.h.zero_exp
    half_r = Coeff(0, 0, Fraction(1, 2))             # 1/sqrt2 = r/2
    out = alg.zero()
    for r_idx, alpha in enumerate(rd.positive_roots):
        if not alpha[j - 1]:
            continue
        short = rd.root_norms_sq[r_idx] == 1
        gamma = HCElement(alg, {
            (z, z, alg.h.id_idx, 1 << k): Scalar.from_coeff(
                Coeff(a) if short else (half_r if a > 0 else -half_r),
                F.nvars)
            for k, a in enumerate(alpha) if a})
        coeff = F.rational(-alpha[j - 1])
        if not short:
            coeff = coeff * F.r * F.rational(Fraction(1, 2))
        term = alg.group(rd.reflection_index(r_idx)) * gamma
        out = out + term.scale(alg.h.c_root[r_idx] * coeff)
    return out


@pytest.mark.parametrize("group", [("B", 2, 2), ("A", 3, 4), ("A1", 3, 3)],
                         ids=["B2", "A_r3", "A1^3"])
def test_ocheck_matches_group_times_clifford_vector(group):
    ctx = stack(*group)
    for j in range(1, ctx.rd.dim + 1):
        assert ctx.tama.ocheck(j) == _ocheck_reference(ctx.alg, j)


# -- one residual per orbit of the coordinate swaps ------------------------------

def _full_loop_records(tm, d):
    """The relation records of the all-tuple loop, which evaluates every
    tuple's residual in order: the reference for the orbit loop."""
    run = Runner()
    for name, blocks in Tama.RELATIONS.items():
        if sum(blocks) > d:
            continue
        tuples = tm.relation_index_tuples(name)
        if name == "r22-shared-literal":
            bad = [tup for tup in tuples
                   if not tm.relation_residual(name, tup).is_zero()]
            result = ("pass", None, {"variant_holds": not bad,
                                     "failing_tuples": bad[:5],
                                     "tuples": len(tuples)})
        else:
            result = first_failure(
                ((f"indices {tup}", tm.relation_residual(name, tup))
                 for tup in tuples), {"tuples": len(tuples)})
        run.check("relations", name, None, lambda result=result: result)
    return _by_check(run.records)


def _by_check(records):
    """{check: (status, witness, detail)} of the tuple relations' records."""
    return {rec["check"]: (rec["status"], rec.get("witness"),
                           rec.get("detail"))
            for rec in records if rec["check"] in Tama.RELATIONS
            and rec["status"] != "skipped"}


def _orbit_records(ctx, monkeypatch):
    """The relation records of `suite_relations`, and the number of
    residuals it evaluated."""
    calls = []
    residual = Tama.relation_residual

    def counted(self, name, idx):
        calls.append((name, idx))
        return residual(self, name, idx)
    monkeypatch.setattr(Tama, "relation_residual", counted)
    run = Runner()
    suite_relations(ctx, run)
    monkeypatch.setattr(Tama, "relation_residual", residual)
    return _by_check(run.records), len(calls)


def _tuple_count(tm):
    return sum(len(tm.relation_index_tuples(name))
               for name, blocks in Tama.RELATIONS.items()
               if sum(blocks) <= tm.d)


def _orbits_by_search(tm, name):
    """{tuple: the first tuple of its orbit} by a breadth-first search
    over `orbit_swaps`, each image re-sorted within the blocks."""
    blocks = Tama.RELATIONS[name]
    tuples = tm.relation_index_tuples(name)
    first = {}
    for tup in tuples:
        if tup in first:
            continue
        first[tup] = tup
        frontier = [tup]
        while frontier:
            new = []
            for u in frontier:
                for j in tm.orbit_swaps:
                    img = _swapped(u, j, blocks)
                    if img not in first:
                        first[img] = tup
                        new.append(img)
            frontier = new
    assert len(first) == len(tuples)
    return {tup: first[tup] for tup in tuples}


def _swapped(tup, j, blocks):
    """The tuple with the indices j+1 and j+2 swapped, re-sorted within
    each block."""
    img = [j + 2 if v == j + 1 else j + 1 if v == j + 2 else v for v in tup]
    out, pos = [], 0
    for n in blocks:
        out += sorted(img[pos:pos + n])
        pos += n
    return tuple(out)


@pytest.mark.parametrize("group,kwargs,orbits", [
    (("A1", 4, 4), {}, 9), (("A", 3, 4), {}, 9), (("A", 4, 5), {}, 11),
    (("A1", 8, 8), {"single_c": True}, 12), (("A", 1, 8), {}, 69)],
    ids=["A1^4", "A r3", "A r4", "A1^8-single-c", "A r1 d8"])
def test_orbit_counts_and_first_tuples(group, kwargs, orbits):
    tm = stack(*group, **kwargs).tama
    count = 0
    for name, blocks in Tama.RELATIONS.items():
        if sum(blocks) > tm.d:
            continue
        got = tm.relation_orbits(name)
        assert list(got) == tm.relation_index_tuples(name)
        assert got == _orbits_by_search(tm, name), name
        count += len(set(got.values()))
    assert count == orbits


@pytest.mark.parametrize("group", [("A", 2, 3), ("A", 3, 4), ("B", 3, 3),
                                   ("D", 4, 4), ("A1", 3, 3)],
                         ids=["A r2", "A r3", "B3", "D4", "A1^3"])
def test_relation_records_equal_the_full_loop(group, monkeypatch):
    ctx = stack(*group)
    got, residuals = _orbit_records(ctx, monkeypatch)
    assert got == _full_loop_records(ctx.tama, ctx.rd.dim)
    assert ctx.tama.orbit_swaps == [j for j, _ in ctx.rd.coordinate_swaps]
    assert residuals == sum(len(set(ctx.tama.relation_orbits(name).values()))
                            for name in got)


_DISTINCT_C = {"s": Fraction(2), "c1": Fraction(1, 3), "c2": Fraction(1, 5),
               "c3": Fraction(1, 7)}


@pytest.mark.parametrize("make", [
    lambda: stack("A", 3, 4), lambda: stack("A1", 3, 3),
    lambda: Context(RunConfig("A1", 3, 3, ["relations"],
                              specialize=_DISTINCT_C))],
    ids=["A r3", "A1^3", "A1^3-distinct-c"])
def test_a_failing_relation_reports_the_full_loop_witness(make, monkeypatch):
    # r22-shared evaluated as its literal variant, which fails on each of
    # these: the orbit loop must name the tuple and residual the full loop
    # names, in one orbit or, with fewer swaps, among several
    ctx = make()
    residual = Tama.relation_residual

    def literal(self, name, idx):
        return residual(self, "r22-shared-literal"
                        if name == "r22-shared" else name, idx)
    monkeypatch.setattr(Tama, "relation_residual", literal)
    expect = _full_loop_records(ctx.tama, ctx.rd.dim)
    assert expect["r22-shared"][0] == "fail"
    assert _orbit_records(ctx, monkeypatch)[0] == expect


def test_specialised_couplings_that_differ_use_no_swap(monkeypatch):
    ctx = Context(RunConfig("A1", 4, 4, ["relations"], specialize={
        "s": Fraction(2), "c1": Fraction(1, 3), "c2": Fraction(1, 5),
        "c3": Fraction(1, 7), "c4": Fraction(1, 11)}))
    got, residuals = _orbit_records(ctx, monkeypatch)
    assert ctx.tama.orbit_swaps == []
    assert residuals == _tuple_count(ctx.tama)
    assert got == _full_loop_records(ctx.tama, 4)


def _drop_c_permutation(ctx, monkeypatch):
    ctx.rd.coordinate_swaps = [(j, tuple(range(len(orbits))))
                               for j, orbits in ctx.rd.coordinate_swaps]


def _drop_mask_sign(ctx, monkeypatch):
    swap_bits = hc._swap_bits
    monkeypatch.setattr(hc, "_swap_bits",
                        lambda m, j: (swap_bits(m, j)[0], 1))


def _swap_off_the_roots(ctx, monkeypatch):
    # (2 3) sends the root e1 - e2 to e1 - e3, which is no root
    ctx.rd.coordinate_swaps = [(1, (0,))]


@pytest.mark.parametrize("group,mutate", [
    (("A1", 4, 4), _drop_c_permutation), (("A1", 4, 4), _drop_mask_sign),
    (("A", 1, 5), _swap_off_the_roots)],
    ids=["no-c-slot-permutation", "no-mask-sign", "swap-off-the-roots"])
def test_a_broken_key_map_fails_the_premise(group, mutate, monkeypatch):
    ctx = Context(RunConfig(*group, ["relations"]))
    mutate(ctx, monkeypatch)
    got, residuals = _orbit_records(ctx, monkeypatch)
    assert ctx.tama.orbit_swaps == []
    assert residuals == _tuple_count(ctx.tama)
    assert got == _full_loop_records(ctx.tama, ctx.rd.dim)


def _wrong_orbit_ocheck(ctx, j):
    """Memoise a B3 Ocheck_j built with each root's c taken from the other
    root orbit."""
    h = ctx.alg.h
    right = h.c_root
    h.c_root = [h.c_orbit[1 - k] for k in ctx.rd.orbit_labels]
    ctx.tama.ocheck(j)
    h.c_root = right


@pytest.mark.parametrize("j,kept", [(1, [1]), (2, []), (3, [0])])
def test_a_wrong_orbit_ocheck_fails_the_premise(j, kept, monkeypatch):
    # the premise drops exactly the swaps that move j
    ctx = Context(RunConfig("B", 3, 3, ["relations"]))
    _wrong_orbit_ocheck(ctx, j)
    got = _orbit_records(ctx, monkeypatch)[0]
    assert ctx.tama.orbit_swaps == kept
    assert got == _full_loop_records(ctx.tama, 3)


def _premise_on_every_O(tm):
    """The swaps whose key map gives phi(O_A) == O_{tau(A)}, with the sign
    of the unsorted tau(A), for every A with |A| <= min(d, 5): the
    reference for the premise on the parts."""
    alg = tm.alg
    sets = [A for n in range(1, min(tm.d, 5) + 1)
            for A in combinations(range(1, tm.d + 1), n)]
    out = []
    for j, orbits in alg.rd.coordinate_swaps:
        phi = alg.swap_map(j, orbits)
        tau = {j + 1: j + 2, j + 2: j + 1}
        if phi is not None and all(
                phi(tm.O(A)) == tm.O([tau.get(a, a) for a in A])
                for A in sets):
            out.append(j)
    return out


_EQUAL_C = {"s": Fraction(2),
            **{f"c{k}": Fraction(1, 3) for k in (1, 2, 3, 4)}}


@pytest.mark.parametrize("make,accepts", [
    (lambda: stack("A", 3, 4), True), (lambda: stack("B", 3, 3), True),
    (lambda: stack("D", 4, 4), True), (lambda: stack("A1", 4, 4), True),
    (lambda: stack("A", 1, 7), True), (lambda: stack("B", 4, 4), True),
    (lambda: stack("B", 3, 3, single_c=True), True),
    (lambda: Context(RunConfig("A1", 4, 4, [], specialize={
        **_DISTINCT_C, "c4": Fraction(1, 11)})), False),
    (lambda: Context(RunConfig("A1", 4, 4, [], specialize=_EQUAL_C)), True)],
    ids=["A r3", "B3", "D4", "A1^4", "A r1 d7", "B4", "B3-single-c",
         "A1^4-distinct-c", "A1^4-equal-c"])
def test_both_premises_accept_the_same_swaps(make, accepts):
    ctx = make()
    swaps = [j for j, _ in ctx.rd.coordinate_swaps]
    assert ctx.tama.orbit_swaps == (swaps if accepts else [])
    assert ctx.tama.orbit_swaps == _premise_on_every_O(ctx.tama)


@pytest.mark.parametrize("group", [("A", 3, 4), ("B", 3, 3), ("D", 4, 4)],
                         ids=["A r3", "B3", "D4"])
def test_closed_form_equals_the_literal_part_sum(group):
    ctx = stack(*group)
    tm, alg = ctx.tama, ctx.alg
    for n in range(1, min(tm.d, 5) + 1):
        for A in combinations(range(1, tm.d + 1), n):
            acc = alg.scalar(alg.h.t * alg.field.rational(Fraction(n - 1, 2)))
            for a in A:
                acc = acc + tm.ocheck(a) * alg.e(a)
            for a, b in combinations(A, 2):
                acc = acc - tm.M(a, b) * alg.e(a) * alg.e(b)
            assert tm.O_closed_form(A) == acc * alg.e_set(A), A


def test_each_part_is_built_once(monkeypatch):
    calls = []
    M = Tama.M

    def counted(self, i, j):
        calls.append((i, j))
        return M(self, i, j)
    monkeypatch.setattr(Tama, "M", counted)
    suite_relations(Context(RunConfig("A", 1, 8, ["relations"])), Runner())
    assert len(calls) <= 28       # C(8, 2)


def test_the_premise_drops_only_the_swap_off_the_roots():
    ctx = Context(RunConfig("A", 1, 5, ["relations"]))
    swaps = ctx.rd.coordinate_swaps
    assert [j for j, _ in swaps] == [0, 2, 3]
    ctx.rd.coordinate_swaps = swaps + [(1, (0,))]
    assert ctx.tama.orbit_swaps == [0, 2, 3]


def test_the_premise_is_built_by_the_first_relation_evaluated():
    for family, d in (("A1", 2), ("A1", 3)):
        ctx = Context(RunConfig(family, d, d, ["relations"]))
        ctx.tama
        assert "orbit_swaps" not in vars(ctx.tama)
        suite_relations(ctx, Runner())
        # in two coordinates every relation is skipped
        assert ("orbit_swaps" in vars(ctx.tama)) == (d > 2)


@pytest.mark.parametrize("group", [("A1", 4, 4), ("A", 3, 4), ("B", 3, 3)],
                         ids=["A1^4", "A r3", "B3"])
def test_relation_residual_is_swap_equivariant(group):
    # R(tau idx) = +-phi(R(idx)), on each relation's first two tuples
    ctx = stack(*group)
    tm, alg = ctx.tama, ctx.alg
    for j, orbits in ctx.rd.coordinate_swaps:
        phi = alg.swap_map(j, orbits)
        for name, blocks in Tama.RELATIONS.items():
            for tup in tm.relation_index_tuples(name)[:2]:
                image = phi(tm.relation_residual(name, tup))
                other = tm.relation_residual(name, _swapped(tup, j, blocks))
                assert image in (other, -other), (j, name, tup)
