import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import dunkl
from dunkl import cli, groups
from dunkl.admissible import CoverAlgebra
from dunkl.cli import (main, RunConfig, run_config, parse_specialize,
                       canonical_report_bytes, ConfigError, SUITES,
                       AMBIENT_CAP, MUL_TABLE_CAP, SPINOR_DIM_CAP, spinor_dim,
                       build_parser, config_from_args)
from dunkl.hc import HCElement
from dunkl.osp import OspRealisation
from dunkl.polyspinor import SpinorRep, HermitianForm
from dunkl.tama import Tama


def test_malformed_family_exits_2(capsys):
    assert main(["--family", "Q7", "--suite", "osp"]) == 2


def test_unknown_suite_exits_2(capsys):
    assert main(["--family", "A1^2", "--suite", "nope"]) == 2


def test_removed_jobs_option_exits_2(capsys):
    assert main(["--family", "A1^2", "--suite", "osp", "--jobs", "1"]) == 2


def test_bad_specialize_exits_2(capsys):
    assert main(["--family", "A1^2", "--suite", "osp",
                 "--specialize", "s=-1"]) == 2
    assert main(["--family", "A1^2", "--suite", "osp",
                 "--specialize", "q=2"]) == 2
    # an entry list that names no parameter is refused, not run symbolic
    capsys.readouterr()
    assert main(["--family", "A", "--rank", "3", "--suite", "relations",
                 "--specialize", ","]) == 2
    assert "names no parameter" in capsys.readouterr().err


def test_root_datum_errors_exit_2(capsys):
    # type A of rank 3 needs 4 coordinates
    assert main(["--family", "A", "--rank", "3", "--ambient", "2",
                 "--suite", "osp"]) == 2
    assert "configuration error:" in capsys.readouterr().err
    # D1 has no roots; D2 = A1 x A1 is built
    assert main(["--family", "D", "--rank", "1",
                 "--suite", "cohomology"]) == 2
    assert "type D needs rank >= 2" in capsys.readouterr().err
    assert len(groups.RootDatum("D", 2, 2).positive_roots) == 2


@pytest.mark.parametrize("spec", ["s=2,c0=1", "s=2,c3=1/3", "c2=1", "c=1"])
def test_specialize_names_only_this_runs_parameters(capsys, spec):
    # B2 has the orbits c1, c2; --single-c leaves c1 alone
    argv = ["--family", "B", "--rank", "2", "--suite", "osp",
            "--specialize", spec]
    if spec == "c2=1":
        argv.append("--single-c")
    assert main(argv) == 2
    assert "unknown parameter" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--family", "A1^3", "--rank", "5"],
    ["--family", "A1^3", "--ambient", "7"],
    ["--family", "A1", "--rank", "3", "--ambient", "4"],
])
def test_a1_product_refuses_a_contradicting_rank_or_ambient(capsys, argv):
    assert main(argv + ["--suite", "osp"]) == 2
    assert "configuration error:" in capsys.readouterr().err


def test_parse_specialize():
    from fractions import Fraction
    out = parse_specialize("s=2, c1=1/3")
    assert out == {"s": Fraction(2), "c1": Fraction(1, 3)}
    with pytest.raises(ConfigError):
        parse_specialize("c1")
    with pytest.raises(ConfigError):
        parse_specialize("s=zero")
    with pytest.raises(ConfigError):
        parse_specialize("s=2,s=3")


def test_config_defaults():
    cfg = RunConfig("A", 2, None, ["osp"])
    assert cfg.ambient == 3
    cfg = RunConfig("A1^4", None, None, ["osp"])
    assert cfg.rank == 4 and cfg.ambient == 4
    cfg = RunConfig("A1^4", 4, 4, ["osp"])
    assert cfg.rank == 4 and cfg.ambient == 4
    with pytest.raises(ConfigError):
        RunConfig("A", None, None, ["osp"])
    with pytest.raises(ConfigError):
        RunConfig("A", 2, 3, ["bogus"])


def test_unwritable_out_exits_2_before_any_suite(tmp_path, monkeypatch,
                                                 capsys):
    def refuse(config):
        raise AssertionError("a suite ran")
    monkeypatch.setattr("dunkl.cli.run_config", refuse)
    assert main(["--family", "A1^1", "--suite", "osp",
                 "--out", str(tmp_path / "missing" / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err


def test_report_schema_and_exit_code(tmp_path):
    out = tmp_path / "report.json"
    code = main(["--family", "A1^2", "--suite", "osp",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["schema_version"] == 1
    assert rep["config"]["family"] == "A1"
    assert rep["summary"]["fail"] == 0
    for rec in rep["checks"]:
        assert rec["suite"] == "osp"
        assert rec["status"] in ("pass", "fail", "skipped")
        assert isinstance(rec["elapsed_ms"], int)
        assert rec["anchor"]


def test_report_determinism():
    cfg = RunConfig("A1^2", None, None, ["osp", "filtration"])
    rep1, code1 = run_config(cfg)
    rep2, code2 = run_config(cfg)
    assert code1 == code2 == 0
    b1 = canonical_report_bytes(rep1, include_timing=False)
    b2 = canonical_report_bytes(rep2, include_timing=False)
    assert b1 == b2


# (argv, exit code, sha256 of canonical_report_bytes(..., include_timing=False)).
# Changes of representation, of the matrix assembly or of how the suites
# record their checks must leave every status, witness, detail and check
# order, and so these digests, as they are.  The symbolic B2 runs pin the
# centre, relations, Vogan and Hermitian-minor paths, whose scalars have
# denominators; the runs that exit 1 pin the odd-d Vogan failures.
GOLDEN_REPORTS = (
    ("--family A1^4 --suite osp --suite relations --suite vogan "
     "--suite filtration", 0,
     "026617730d3304f3cf3433e861715b4326fe05f954f1aba69ad4189733c2462e"),
    ("--family B --rank 2 --suite all --specialize s=2,c1=1/3,c2=1/5 "
     "--max-degree 10", 0,
     "2b91462a2d37c7c4989c8b9429f93462b042f8e09751de93db11e996fc3e5e72"),
    ("--family A --rank 4 --suite admissible", 0,
     "196fe1ae61fd137cef9003be7bbb735ae20b7841ab0a8e90807f368d35aa38c1"),
    ("--family B --rank 2 --suite all --max-degree 2", 0,
     "ab7760993e454a3afb369dc57bd2292e9872625f4c472eecec23a1a9f470b2ac"),
    ("--family B --rank 2 --suite cohomology --specialize s=2,c1=1/3,c2=1/5 "
     "--max-degree 3", 0,
     "5c49a87cc5010df54caa8ece6954aa8d419049958d2af9e0fc6fd9fdd831d8f1"),
    ("--family A1^3 --suite all --max-degree 2", 1,
     "c4bc655924c3b104f594d85dac3ad029b083c24ca17ad061bb9de9ad2510ff41"),
    ("--family A --rank 2 --suite all --max-degree 2", 1,
     "dd46073308ecab4435904c639fb04b5da26e19b3b6a24e1d530ffde15b7f6934"),
    ("--family B --rank 3 --suite osp --suite centre --suite vogan", 1,
     "5590110a448c12ac80d4318df4cbaa451b6baed11c7f33a8607d86c7ea7aad11"),
    ("--family A1^2 --suite all --specialize s=1 --max-degree 3", 0,
     "c3bc95efc99cf5862d67a81db03370983d91b42d1596e965a0ee46dd34b639e2"),
    ("--family D --rank 4 --suite admissible", 0,
     "c0a3b5469278710bd58c601d9e20536e75be2178c62dd41c98b2b347fded349e"),
    ("--family A --rank 1 --ambient 8 --suite relations", 0,
     "a40f935435c2bdd41a00501ec97a50d2daa15076a1d5b3089543a540f41312ad"),
)


def test_specialised_cohomology_report_bytes_are_pinned():
    for argv, expected_code, digest in GOLDEN_REPORTS:
        args = build_parser().parse_args(argv.split())
        rep, code = run_config(config_from_args(args))
        assert code == expected_code, argv
        payload = canonical_report_bytes(rep, include_timing=False)
        assert hashlib.sha256(payload).hexdigest() == digest, argv


def test_cohomology_checks_skip_unless_every_parameter_is_rational():
    # s alone specialised leaves c_1, c_2 symbolic: no Coeff matrices
    rep, code = run_config(RunConfig("A1^2", None, None, ["cohomology"],
                                     specialize=parse_specialize("s=1"),
                                     max_degree=3))
    assert code == 0
    checks = {rec["check"]: rec for rec in rep["checks"]}
    for cid in ("cohomology-table", "kernel-rescaling-scan"):
        assert checks[cid]["status"] == "skipped"
        assert checks[cid]["detail"] == {
            "reason": "requires a rational specialization"}


def _admissible_checks(monkeypatch, method):
    """Checks and exit code of an S3 admissible run in which the
    CoverAlgebra `method` raises."""
    def broken(self, *args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(CoverAlgebra, method, broken)
    rep, code = run_config(RunConfig("A", 2, None, ["admissible"]))
    return {rec["check"]: rec for rec in rep["checks"]}, code


def test_admissible_solver_exception_fails_one_check(monkeypatch):
    checks, code = _admissible_checks(monkeypatch,
                                      "brute_force_epsilon_centre")
    assert code == 1
    oracle = checks["epsilon-centre-oracle"]
    assert oracle["status"] == "fail"
    assert oracle["witness"].startswith("exception: RuntimeError('injected')")
    # the run goes on: the other admissible checks still run and pass
    assert checks["class-flags"]["status"] == "pass"
    assert checks["partition-criterion"]["status"] == "pass"


def test_partition_criterion_reads_the_class_flags_basis(monkeypatch):
    calls = []
    original = CoverAlgebra.admissible_basis

    def counted(self):
        calls.append(self._basis is None)
        return original(self)
    monkeypatch.setattr(CoverAlgebra, "admissible_basis", counted)
    _rep, code = run_config(RunConfig("A", 2, None, ["admissible"]))
    # built once by class-flags, then read from the cover's own memo
    assert code == 0 and calls == [True, False]
    checks, code = _admissible_checks(monkeypatch, "admissible_basis")
    assert code == 1
    assert checks["class-flags"]["witness"].startswith("exception:")
    assert checks["partition-criterion"]["status"] == "fail"
    assert checks["epsilon-centre-oracle"]["status"] == "pass"


def test_admissible_and_vogan_share_one_basis(monkeypatch):
    # vogan reads the basis that class-flags built: one candidate per class
    calls = []
    original = CoverAlgebra.admissible_candidate

    def counted(self, g_idx):
        calls.append(g_idx)
        return original(self, g_idx)
    monkeypatch.setattr(CoverAlgebra, "admissible_candidate", counted)
    _rep, code = run_config(RunConfig("A", 3, None, ["admissible", "vogan"]))
    assert code == 0
    assert len(calls) == len(set(calls)) == 5    # the classes of S4


def test_each_rho_omega_is_built_once(monkeypatch):
    # vogan's deformations and cohomology's table and rescan read one
    # rho_omega per admissible class
    calls = []
    original = CoverAlgebra.to_hc

    def counted(self, alg, a):
        calls.append(tuple(sorted(a.items())))
        return original(self, alg, a)
    monkeypatch.setattr(CoverAlgebra, "to_hc", counted)
    rep, code = run_config(RunConfig(
        "B", 2, None, ["vogan", "cohomology"], max_degree=1,
        specialize={"s": 2, "c1": Fraction(1, 3), "c2": Fraction(1, 5)}))
    assert code == 0
    assert len(calls) == len(set(calls)) == 2     # the two classes of B2
    ran = {rec["check"] for rec in rep["checks"]
           if rec["status"] == "pass"}
    assert {"cohomology-table", "kernel-rescaling-scan"} <= ran


@pytest.mark.parametrize("argv", [
    "--family B --rank 2 --suite all --max-degree 2",
    "--family B --rank 2 --suite all --specialize s=2,c1=1/3,c2=1/5 "
    "--max-degree 3",
])
def test_suite_work_runs_inside_checks(monkeypatch, argv):
    # once the context is built (group, HAlgebra, pin cover), every
    # product, matrix assembly and admissible basis is made by a check
    config = config_from_args(build_parser().parse_args(argv.split()))
    ctx = cli.Context(config)
    ctx.alg
    depth = []
    outside = []
    check = cli.Runner.check

    def timed(self, *args):
        depth.append(1)
        try:
            return check(self, *args)
        finally:
            depth.pop()
    monkeypatch.setattr(cli.Runner, "check", timed)
    for owner, name in ((HCElement, "__mul__"), (SpinorRep, "matrix_of"),
                        (CoverAlgebra, "admissible_basis")):
        def counted(*args, original=getattr(owner, name), name=name):
            if not depth:
                outside.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, counted)
    monkeypatch.setattr(cli, "Context", lambda _config: ctx)
    _rep, code = run_config(config)
    assert code == 0
    assert outside == []


@pytest.mark.parametrize("owner, method", [
    (OspRealisation, "bracket_table_check"),
    (Tama, "centre_candidates"),
    (Tama, "dirac"),
    (Tama, "dirac_checks"),
    (CoverAlgebra, "to_hc"),
    (HermitianForm, "adjointness_check"),
    (HermitianForm, "leading_minor_signs"),
])
def test_helper_exception_fails_checks_not_the_run(monkeypatch, owner,
                                                   method):
    def broken(self, *args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(owner, method, broken)
    rep, code = run_config(RunConfig("B", 2, None, list(SUITES),
                                     max_degree=1))
    assert code == 1
    failed = [rec for rec in rep["checks"] if rec["status"] == "fail"]
    assert failed
    for rec in failed:
        assert rec["witness"] == "exception: RuntimeError('injected')"
    # the run goes on: every suite still reports
    assert {rec["suite"] for rec in rep["checks"]} == set(SUITES)


def test_all_suite_expansion():
    cfg = RunConfig("A1^2", None, None, list(SUITES))
    assert set(cfg.suites) == set(SUITES)


def _report(argv):
    args = build_parser().parse_args(argv.split())
    return run_config(config_from_args(args))[0]


@pytest.mark.parametrize("argv, suites", [
    ("--family A1^2 --suite osp --suite osp", ["osp"]),
    ("--family A1^2 --suite all --suite osp --max-degree 1", list(SUITES))])
def test_a_repeated_suite_runs_once(argv, suites):
    rep = _report(argv)
    assert rep["config"]["suites"] == suites
    ids = [(rec["suite"], rec["check"]) for rec in rep["checks"]]
    assert len(ids) == len(set(ids))
    assert sum(rep["summary"].values()) == len(ids)


def test_a_suite_named_again_after_all_changes_no_byte():
    once = _report("--family A1^2 --suite all --max-degree 1")
    again = _report("--family A1^2 --suite all --suite osp --max-degree 1")
    assert canonical_report_bytes(again, include_timing=False) == \
        canonical_report_bytes(once, include_timing=False)


@pytest.mark.parametrize("spec, point", [
    (None, "c = 0, t = 1"),
    ("s=1", "c = 0, s = 1"),
    ("c1=1/3", "c1 = 1/3, c2 = 0, t = 1"),
    ("c2=1/3,s=2", "c1 = 0, c2 = 1/3, s = 2"),
    ("s=2,c1=1/3,c2=1/5", "c1 = 1/3, c2 = 1/5, s = 2")])
def test_the_hermitian_minors_anchor_names_the_point_used(spec, point):
    # a specialised value stays; a free c_k is set to 0 and a free s to
    # sqrt2, which gives t = 1
    argv = "--family A1^2 --suite cohomology --max-degree 1"
    rep = _report(argv + (f" --specialize {spec}" if spec else ""))
    anchor, = [rec["anchor"] for rec in rep["checks"]
               if rec["check"] == "hermitian-minors"]
    assert anchor == f"leading principal minor signs at {point}"


def test_the_scasimir_checks_run_past_dimension_6():
    src = str(Path(dunkl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "dunkl.cli", "--family", "A1^7", "--suite",
         "osp", "--single-c"], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    status = {rec["check"]: rec["status"]
              for rec in json.loads(proc.stdout)["checks"]}
    assert status["scasimir-gamma"] == "pass"
    assert status["scasimir-square-expansion"] == "pass"


def test_skipped_checks_do_not_fail(tmp_path):
    # 5- and 6-index relations cannot be formed in 2 coordinates: they must
    # be reported as skipped with exit 0
    out = tmp_path / "r.json"
    code = main(["--family", "A1^2", "--suite", "relations",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert any(rec["status"] == "skipped" for rec in rep["checks"])


def test_rational_specialization_run(tmp_path):
    out = tmp_path / "r.json"
    code = main(["--family", "A1^2", "--suite", "cohomology",
                 "--max-degree", "2",
                 "--specialize", "s=2,c1=1/3,c2=1/5",
                 "--out", str(out)])
    rep = json.loads(out.read_text())
    by_id = {rec["check"]: rec for rec in rep["checks"]}
    assert by_id["cohomology-table"]["status"] == "pass"
    assert by_id["spinor-clifford-relations"]["status"] == "pass"
    # even ambient dimension: all adjointness checks pass, so exit 0
    assert code == 0


def test_odd_dimension_hermitian_failure_is_reported(tmp_path):
    out = tmp_path / "r.json"
    code = main(["--family", "A1^3", "--suite", "cohomology",
                 "--max-degree", "1",
                 "--specialize", "s=2,c1=1/3,c2=1/5,c3=1/7",
                 "--out", str(out)])
    rep = json.loads(out.read_text())
    by_id = {rec["check"]: rec for rec in rep["checks"]}
    # the generators cannot be made skew-adjoint in odd dimension; the
    # failure is reported honestly and drives a nonzero exit
    assert by_id["hermitian-adjoint-e1"]["status"] == "fail"
    assert code == 1


def test_single_c_flag():
    cfg = RunConfig("B", 2, None, ["osp"], single_c=True)
    rep, code = run_config(cfg)
    assert code == 0
    assert rep["config"]["single_c"] is True


def test_spinor_dim_formula():
    # C(d+k-1, k) * 2^(d//2): B2 at degree 10, A1^4 at 9, S5 on C^5 at 4
    assert spinor_dim(2, 10) == 11 * 2
    assert spinor_dim(4, 9) == 220 * 4
    assert spinor_dim(5, 4) == 70 * 4


def test_resource_guard_rejects_large_groups(capsys):
    # B6 has |W| = 46,080: its table would have about 2.1e9 entries
    with pytest.raises(ConfigError, match=f"limit of {MUL_TABLE_CAP}"):
        RunConfig("B", 6, None, ["osp"])
    assert main(["--family", "B", "--rank", "6", "--suite", "osp"]) == 2
    assert str(MUL_TABLE_CAP) in capsys.readouterr().err
    # refused before the root datum is built: rank 2000 would need about
    # two million roots, and B8 is over the root datum's own bound
    for argv in (["--family", "A", "--rank", "2000"],
                 ["--family", "B", "--rank", "8"]):
        assert main(argv + ["--suite", "osp"]) == 2
        assert str(MUL_TABLE_CAP) in capsys.readouterr().err


_HUGE_CONFIGS = [
    ["--family", "A", "--rank", str(10 ** 20)],
    ["--family", "B", "--rank", str(10 ** 20)],
    ["--family", "A", "--rank", "3000000"],
    ["--family", "A1^100000000"],
    ["--family", "A", "--rank", "2", "--ambient", "100000000"],
]


@pytest.mark.parametrize("argv", _HUGE_CONFIGS)
def test_resource_guard_refuses_huge_sizes_in_bounded_memory(
        capsys, monkeypatch, argv):
    # no order of a huge rank is computed, and nothing is allocated
    def factorial(n):
        if n > 100:
            raise AssertionError(f"factorial({n}) called")
        return math.factorial(n)
    monkeypatch.setattr(groups, "factorial", factorial)
    tracemalloc.start()
    try:
        code = main(argv + ["--suite", "osp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert peak < 2 ** 20


def test_resource_guard_rejects_a_large_ambient_dimension(capsys):
    with pytest.raises(ConfigError, match=f"limit of {AMBIENT_CAP}"):
        RunConfig("A", 2, 10 ** 7, ["osp"])
    with pytest.raises(ConfigError, match=f"limit of {AMBIENT_CAP}"):
        RunConfig("B", 2, AMBIENT_CAP + 1, ["osp"])
    RunConfig("A", 2, AMBIENT_CAP, ["osp"])
    assert main(["--family", "A", "--rank", "1", "--ambient",
                 str(AMBIENT_CAP + 1), "--suite", "osp"]) == 2
    assert str(AMBIENT_CAP) in capsys.readouterr().err


def test_resource_guard_rejects_large_spinor_matrices(capsys):
    assert spinor_dim(4, 9) > SPINOR_DIM_CAP
    with pytest.raises(ConfigError, match=f"limit of {SPINOR_DIM_CAP}"):
        RunConfig("A1^4", None, None, ["cohomology"], max_degree=9)
    assert main(["--family", "A1^4", "--suite", "cohomology",
                 "--max-degree", "9"]) == 2
    assert str(SPINOR_DIM_CAP) in capsys.readouterr().err
    # the spinor matrices are built only by the cohomology suite
    RunConfig("A1^4", None, None, ["osp"], max_degree=9)


@pytest.mark.parametrize("args", [
    ("A1^4", None, None, ["osp", "relations", "vogan", "filtration"], 4),
    ("B", 2, None, list(SUITES), 10),
    ("A", 4, None, ["admissible"], 4),
    ("A", 3, None, list(SUITES), 4),
    ("D", 4, None, list(SUITES), 3),
    ("A1^5", None, None, list(SUITES), 4),
])
def test_resource_guard_admits_working_configs(args):
    family, rank, ambient, suites, degree = args
    RunConfig(family, rank, ambient, suites, max_degree=degree)


def test_module_entry_point_runs_without_warnings():
    src = str(Path(dunkl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "dunkl.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: verify" in proc.stdout


@pytest.mark.parametrize("suite", SUITES)
def test_the_pin_cocycle_table_is_built_by_its_readers(monkeypatch, suite):
    # `vogan` reads sigma through the admissible classes of its rho_omega
    config = RunConfig("A1^2", None, None, [suite], max_degree=2)
    ctx = cli.Context(config)
    monkeypatch.setattr(cli, "Context", lambda _config: ctx)
    _rep, code = run_config(config)
    assert code == 0
    pin = ctx.alg.pin
    if suite in ("admissible", "vogan"):
        assert len(pin._sigma) == pin.n ** 2
    else:
        assert pin._sigma is None


# the benchmark's two algebra workloads, with their memo sizes (ycomm,
# straighten, term_mul) after one run
_MEMO_WORKLOADS = {
    "specialised-b2": ("--family B --rank 2 --suite all --specialize "
                       "s=2,c1=1/3,c2=1/5 --max-degree 10", (132, 55, 795)),
    "symbolic-a1x4": ("--family A1^4 --suite osp --suite relations "
                      "--suite vogan --suite filtration", (71, 174, 1995)),
}


@pytest.mark.parametrize("workload", list(_MEMO_WORKLOADS))
def test_memos_hold_one_object_per_value(monkeypatch, workload):
    argv, sizes = _MEMO_WORKLOADS[workload]
    config = config_from_args(build_parser().parse_args(argv.split()))
    ctx = cli.Context(config)
    monkeypatch.setattr(cli, "Context", lambda _config: ctx)
    _rep, code = run_config(config)
    assert code == 0
    h = ctx.alg.h
    results = [out for row in h._term_memo.values() for out in row.values()]
    assert (len(h._ycomm_memo), len(h._straighten_memo),
            len(results)) == sizes
    memos = {
        "ycomm": [v for out in h._ycomm_memo.values() for v in out.values()],
        "straighten": [v for out in h._straighten_memo.values()
                       for v in out.values()],
        "term_mul": [v for out in results for _k, v in out],
    }
    # the three share one table, and `one` is the field's own object
    memos["algebra"] = [v for values in list(memos.values()) for v in values]
    assert any(v is ctx.alg.field.one for v in memos["straighten"])
    if "rep" in vars(ctx):
        memos["word"] = [v for out in ctx.rep._words.values()
                         for v in out.values()]
        # the word values live in the algebra's table too
        assert all(h._shared.get(v) is v for v in memos["word"])
    # the keys: every PBW key (a, b, g), ycomm key (e, g) and term_mul
    # term (key, q) stored, and every exponent tuple inside them
    keys = {
        "ycomm keys": [k for out in h._ycomm_memo.values() for k in out],
        "straighten keys": [k for out in h._straighten_memo.values()
                            for k in out],
        "term_mul rows": list(h._term_memo)
        + [k2 for row in h._term_memo.values() for k2 in row],
        "term_mul results": [k for out in results for k, _q in out],
        "term_mul terms": [term for out in results for term in out],
    }
    exps = [c for _i, c in h._ycomm_memo]
    exps += [e for yx in h._straighten_memo for e in yx]
    exps += [e for name in ("ycomm keys", "straighten keys",
                            "term_mul rows", "term_mul results")
             for k in keys[name] for e in k[:-1]]
    keys["exponents"] = exps
    if "rep" in vars(ctx):
        keys["word keys"] = [e for yx in ctx.rep._words for e in yx]
        keys["word keys"] += [e for out in ctx.rep._words.values()
                              for e in out]
        # the word memo shares its exponent tuples with the algebra's
        keys["exponents"] += keys["word keys"]
    for name, values in list(memos.items()) + list(keys.items()):
        assert values, name
        assert len({id(v) for v in values}) == len(set(values)), name


def test_no_memo_stores_a_zero_when_a_coupling_is_specialised_to_0(
        monkeypatch):
    # c1 = 0 makes every reflection factor -c_alpha alpha_i u of its orbit
    # zero, and ycomm must drop them, not store them
    argv = ("--family B --rank 2 --suite all --max-degree 3 "
            "--specialize s=2,c1=0,c2=1/5")
    config = config_from_args(build_parser().parse_args(argv.split()))
    ctx = cli.Context(config)
    monkeypatch.setattr(cli, "Context", lambda _config: ctx)
    _rep, code = run_config(config)
    assert code == 0
    h = ctx.alg.h
    memos = {
        "ycomm": h._ycomm_memo.values(),
        "straighten": h._straighten_memo.values(),
        "term_mul": [dict(out) for row in h._term_memo.values()
                     for out in row.values()],
        "word": ctx.rep._words.values(),
    }
    for name, outs in memos.items():
        values = [v for out in outs for v in out.values()]
        assert values, name
        assert all(values), name


@pytest.mark.parametrize("rank, holds, first_failure", [
    (2, True, []), (3, False, [(1, 2, 3)])])
def test_the_literal_r22_variant_holds_on_a_rank_2(rank, holds,
                                                   first_failure):
    rep, code = run_config(RunConfig("A", rank, None, ["relations"]))
    assert code == 0
    detail, = [rec["detail"] for rec in rep["checks"]
               if rec["check"] == "r22-shared-literal"]
    assert detail["variant_holds"] is holds
    assert detail["failing_tuples"][:1] == first_failure
