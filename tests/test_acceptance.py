"""Acceptance gate: ten exact symbolic criteria, one printed line each.

Every check is zero-tolerance: residuals must be structurally zero in the
coefficient field.  Lines are printed to the live terminal (bypassing
capture) in the form  ACCEPTANCE <n> <slug>: PASS|FAIL.
"""

import random
from fractions import Fraction

import pytest

from dunkl.groups import RootDatum
from dunkl.hc import HCAlgebra
from dunkl.osp import OspRealisation
from dunkl.tama import Tama
from dunkl.admissible import (CoverAlgebra, linearly_independent,
                              sn_partition_predictions)
from dunkl.cherednik import filtration_check
from dunkl.polyspinor import SpinorRep, HermitianForm, cohomology_dims
from dunkl.cli import _parse_partition_label
from dunkl.scalars import C_R

from conftest import dense_scalars, stack


@pytest.fixture(scope="module")
def a16():
    return stack("A1", 6, 6, single_c=True)


def report(capsys, num, slug, ok, note=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({note})" if note else ""
        print(f"ACCEPTANCE {num:02d} {slug}: {status}{suffix}")
    assert ok, f"acceptance criterion {num} ({slug}) failed {note}"


def test_criterion_01_osp_bracket_table(capsys, s3, s4, b3, a16):
    ok = True
    for st_ in (s3, s4, b3, a16):
        ok = ok and all(st_.osp.bracket_table_check().values())
    report(capsys, 1, "osp-bracket-table", ok)


def test_criterion_02_scasimir_square(capsys, s3, s4, b3, a16):
    ok = True
    for st_ in (s3, s4, b3, a16):
        osp, alg = st_.osp, st_.alg
        quarter = alg.scalar(alg.field.rational(Fraction(1, 4)))
        ok = ok and (osp.scasimir * osp.scasimir
                     - osp.Omega_osp - quarter).is_zero()
    report(capsys, 2, "scasimir-square", ok)


LOW_ARITY = ("r21-cyclic", "r31-alt", "r22-shared", "r22-disjoint",
             "r23-shared1", "r23-shared2", "r33-equal", "r33-shared2")
HIGH_ARITY = ("r23-disjoint", "r33-shared1", "r33-disjoint")


def test_criterion_03_relation_suite(capsys, s4, b3, a16):
    ok = True
    bad = []
    for st_ in (s4, b3):
        tm = st_.tama
        for name in LOW_ARITY:
            for tup in tm.relation_index_tuples(name):
                if not tm.relation_residual(name, tup).is_zero():
                    ok = False
                    bad.append((st_.rd.family, name, tup))
    tm = a16.tama
    for name in LOW_ARITY + HIGH_ARITY:
        for tup in tm.relation_index_tuples(name):
            if not tm.relation_residual(name, tup).is_zero():
                ok = False
                bad.append(("A1^6", name, tup))
    report(capsys, 3, "relation-suite", ok, str(bad[:3]) if bad else "")


def test_criterion_04_projection_identities(capsys, a14):
    from itertools import combinations
    osp, alg, tm = a14.osp, a14.alg, a14.tama
    F = alg.field
    quarter = alg.scalar(F.rational(Fraction(1, 4)))
    ok = (osp.project(osp.scasimir)
          + (osp.Omega_osp + quarter).scale(F.rational(2))).is_zero()
    ok = ok and (osp.project(osp.Omega_sl2)
                 - osp.Omega_osp.scale(F.rational(3))).is_zero()
    for size in (1, 2, 3):
        for tup in combinations(range(1, 5), size):
            lhs = tm.ocheck(tup[0]) if size == 1 else tm.O(tup)
            ok = ok and (lhs == tm.project_O(tup))
    report(capsys, 4, "projection-identities", ok)


def test_criterion_05_centre_checks(capsys, s4, a13, b3):
    ok = not s4.tama.graded_central_in_tama(s4.osp.Omega_osp)
    notes = []
    for st_ in (a13, b3):
        tm, osp = st_.tama, st_.osp
        cands = dict(tm.centre_candidates())
        winners = []
        for label in ("S*(w0 tensor 1)", "S*rho(w0~)"):
            z = cands[label]
            member = (z.gbracket(osp.F_plus).is_zero()
                      and z.gbracket(osp.F_minus).is_zero())
            if member and not tm.graded_central_in_tama(z):
                winners.append(label)
        ok = ok and bool(winners)
        notes.append(f"{st_.rd.family}: {winners}")
    report(capsys, 5, "centre-checks", ok, "; ".join(notes))


def _admissible_pairs(st_):
    cov = CoverAlgebra(st_.rd, st_.alg.pin)
    out = []
    for e in cov.admissible_basis():
        if e["adjusted"] is not None and e["eps_central"]:
            rho = cov.to_hc(st_.alg, e["adjusted"])
            eps = 1 if st_.rd.dim % 2 == 1 else (-1 if e["parity"] else 1)
            out.append((e["label"], rho, eps))
    return out


def test_criterion_06_dirac_vogan(capsys, s4, a13):
    ok = True
    fails = []
    for st_ in (s4, a13):
        tm = st_.tama
        for label, rho, eps in _admissible_pairs(st_):
            res = tm.dirac_checks(rho, eps)
            for key, good in res.items():
                if not good:
                    ok = False
                    fails.append(f"{st_.rd.family}/{label}/{key}")
    report(capsys, 6, "dirac-vogan", ok, "; ".join(fails))


def test_criterion_07_epsilon_centre_oracle(capsys):
    ok = True
    for cfg in (("A", 2, 3), ("A", 3, 4), ("A", 4, 5),
                ("A1", 3, 3), ("A1", 4, 4)):
        cov = CoverAlgebra(RootDatum(*cfg))
        brute, _ = cov.brute_force_epsilon_centre()
        catalog = [v for _r, v in cov.epsilon_centre_basis()]
        _, rb = linearly_independent(brute)
        _, rc = linearly_independent(catalog)
        _, ru = linearly_independent(brute + catalog)
        ok = ok and (rb == rc == ru)
    report(capsys, 7, "epsilon-centre-oracle", ok)


def test_criterion_08_partition_criteria(capsys):
    ok = True
    surfaced = []
    for n, amb in ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6)):
        cov = CoverAlgebra(RootDatum("A", n - 1, amb))
        d_odd = amb % 2 == 1
        preds = dict(sn_partition_predictions(n, d_odd))
        strip = amb - n
        mismatch = []
        labels_adm = []
        for e in cov.admissible_basis():
            part = _parse_partition_label(e["label"], strip_ones=strip)
            actual = e["admissible_adjusted"]
            if actual:
                labels_adm.append(part)
            if part is None or preds.get(part) != actual:
                mismatch.append((part, actual))
        if d_odd:
            # parity-odd discrepancies are allowed but must be surfaced
            if mismatch:
                surfaced.append(f"S{n} d={amb}: {mismatch}")
        else:
            ok = ok and not mismatch
            if n == 4:
                ok = ok and labels_adm == [(3, 1)]
    report(capsys, 8, "sn-admissibility-criteria", ok,
           "surfaced d-odd discrepancies: " + "; ".join(surfaced))


def test_criterion_09_filtration_property(capsys, s3, a13):
    ok = True
    for st_ in (s3, a13):
        h = st_.alg.h
        d = st_.rd.dim
        rng = random.Random(99)
        for _ in range(100):
            def mono():
                xe, ye = [0] * d, [0] * d
                for _k in range(rng.randint(0, 3)):
                    (xe if rng.random() < 0.5 else ye)[rng.randrange(d)] += 1
                return h.monomial(tuple(xe), tuple(ye), h.id_idx)
            if not filtration_check(h, mono(), mono()):
                ok = False
    report(capsys, 9, "filtration-property", ok)


def test_criterion_10_polyspinor(capsys, a13):
    alg = a13.alg
    F = alg.field
    rep = SpinorRep(alg)
    tm = a13.tama
    D = tm.dirac()
    Om = a13.osp.Omega_osp + alg.scalar(F.rational(Fraction(1, 4)))

    def matmul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F.zero)
                 for j in range(len(b[0]))] for i in range(len(a))]
    ok = True
    for k in range(5):
        MD = dense_scalars(rep.matrix_of(D, k)[0], rep.dim(k), F.nvars)
        MO = dense_scalars(rep.matrix_of(Om, k)[0], rep.dim(k), F.nvars)
        ok = ok and matmul(MD, MD) == MO
    # cohomology table at a rational specialization
    spec = {"s": Fraction(2), "c1": Fraction(1, 3), "c2": Fraction(1, 5),
            "c3": Fraction(1, 7)}
    alg_r = HCAlgebra(RootDatum("A1", 3, 3), specialize=spec)
    rep_r = SpinorRep(alg_r)
    tm_r = Tama(alg_r, OspRealisation(alg_r))
    tab = cohomology_dims(rep_r, tm_r.dirac(), range(3))
    ok = ok and all(row["cohomology"] == row["ker"] - row["ker_cap_im"]
                    for row in tab)
    # the conditional: ker cap im must vanish whenever the bullet-Hermitian
    # check passes with positive minors
    hf = HermitianForm(rep_r)
    adj = hf.adjointness_check(1)
    signs = [s for k in range(2)
             for s in hf.leading_minor_signs(k, C_R, [0, 0, 0])]
    if all(adj.values()) and all(s == 1 for s in signs):
        ok = ok and all(row["ker_cap_im"] == 0 for row in tab)
    report(capsys, 10, "polyspinor", ok,
           f"cohomology dims {[r['cohomology'] for r in tab]}")
