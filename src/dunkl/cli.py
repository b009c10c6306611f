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
import contextlib
import functools
import json
import random
import sys
import time
from itertools import combinations
from math import comb, isqrt

from .groups import (RootDatum, parse_family, order_exceeds, AMBIENT_CAP,
                     UnsupportedFamilyError, GroupBoundExceededError,
                     AmbientBoundExceededError)
from .cherednik import filtration_check
from .hc import HCAlgebra
from .osp import OspRealisation
from .tama import Tama
from .admissible import CoverAlgebra, linearly_independent, \
    sn_partition_predictions
from .polyspinor import (SpinorRep, HermitianForm, cohomology_dims,
                         spinor_matrices, kernel_basis_coeff, _identity,
                         _mat_mul_coeff, _mat_sum)
from .scalars import C_R

SCHEMA_VERSION = 1
SUITES = ("osp", "relations", "centre", "vogan", "admissible",
          "cohomology", "filtration")


# Limits checked before anything is allocated.  The multiplication table
# is a dense |W| x |W| list of ints (and the pin cocycle, once read, a
# table of |W| x |W| bytes); the cohomology suite builds dense matrices of
# the spinor dimension C(d+k-1, k) * 2^(d//2) at the top degree k.  The
# ambient dimension d is refused over `AMBIENT_CAP` by `RootDatum` itself.
MUL_TABLE_CAP = 1_000_000
SPINOR_DIM_CAP = 512


class ConfigError(ValueError):
    pass


def spinor_dim(d, degree):
    """Dimension of the degree-`degree` polynomial spinors on C^d."""
    return comb(d + degree - 1, degree) * 2 ** (d // 2)


class RunConfig:
    def __init__(self, family, rank, ambient, suites, single_c=False,
                 specialize=None, max_degree=4, out=None):
        fam, a1_rank = parse_family(family)
        if fam == "A1":
            if a1_rank is not None:
                if rank not in (None, a1_rank):
                    raise ConfigError(f"--rank {rank} contradicts {family}")
                rank = a1_rank
            if rank is None:
                raise ConfigError("A1 product needs a rank (A1^d or --rank)")
            if ambient not in (None, rank):
                raise ConfigError(f"--ambient {ambient} differs from the "
                                  f"rank {rank} of an A1 product")
            ambient = rank
        if rank is None:
            raise ConfigError("--rank is required")
        if ambient is None:
            ambient = rank + 1 if fam == "A" else rank
        if rank <= 0 or ambient <= 0:
            raise ConfigError("rank and ambient dimension must be positive")
        if max_degree < 0:
            raise ConfigError("--max-degree must be nonnegative")
        for s in suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}")
        # |W|^2 > cap iff |W| > isqrt(cap); the order is never printed
        if order_exceeds(fam, rank, isqrt(MUL_TABLE_CAP)):
            raise ConfigError(
                f"the |W| x |W| multiplication table of {fam} rank {rank} is "
                f"over the limit of {MUL_TABLE_CAP} entries")
        # builds the roots and reflections only; the elements are lazy
        try:
            self.rd = RootDatum(fam, rank, ambient, single_c=single_c)
        except AmbientBoundExceededError as exc:
            raise ConfigError(str(exc)) from None
        if "cohomology" in suites:
            dim = spinor_dim(ambient, max_degree)
            if dim > SPINOR_DIM_CAP:
                raise ConfigError(
                    f"--max-degree {max_degree} on dimension {ambient} gives "
                    f"spinor matrices of size {dim}, over the limit of "
                    f"{SPINOR_DIM_CAP}")
        names = ["s"] + [f"c{k + 1}" for k in range(self.rd.num_orbits)]
        for name in sorted(specialize or ()):
            if name not in names:
                raise ConfigError(f"unknown parameter {name!r}: this run's "
                                  f"parameters are {', '.join(names)}")
        self.family = fam
        self.rank = rank
        self.ambient = ambient
        self.suites = tuple(dict.fromkeys(suites))      # each suite once
        self.single_c = bool(single_c)
        self.specialize = specialize
        self.max_degree = max_degree
        self.out = out

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
        }


def parse_specialize(text):
    """Parse "s=2,c1=1/3,..." into {name: Fraction}."""
    from fractions import Fraction
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad specialization entry {part!r}")
        name, _, val = part.partition("=")
        name = name.strip()
        if name in out:
            raise ConfigError(f"parameter {name!r} given twice")
        try:
            out[name] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad rational value {val!r} for {name}")
    if not out:
        raise ConfigError(f"--specialize {text!r} names no parameter")
    if "s" in out and out["s"] <= 0:
        raise ConfigError("s must be positive")
    return out


class Context:
    """Lazily built algebra stack for one configuration."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.rd = config.rd
        self._rho_omega = {}

    @functools.cached_property
    def alg(self):
        return HCAlgebra(self.rd, specialize=self.config.specialize)

    @functools.cached_property
    def osp(self):
        return OspRealisation(self.alg)

    @functools.cached_property
    def tama(self):
        return Tama(self.alg, self.osp)

    @functools.cached_property
    def cover(self):
        return CoverAlgebra(self.rd, self.alg.pin)

    @functools.cached_property
    def rep(self):
        return SpinorRep(self.alg)

    def rho_omega(self, entry):
        """rho_omega of an admissible class (an `_admissible_entries`
        entry), built once per class."""
        out = self._rho_omega.get(entry["rep"])
        if out is None:
            out = self.cover.to_hc(self.alg, entry["adjusted"])
            self._rho_omega[entry["rep"]] = out
        return out


def _verdict(result):
    """(status, witness text or None, detail) of one check result."""
    if isinstance(result, bool):
        result = ("pass" if result else "fail"), None, None
    elif not isinstance(result, tuple):
        result = ("pass", None, None) if result.is_zero() else \
            ("fail", result, None)
    status, witness, detail = result
    return status, (None if witness is None else str(witness)), detail


def first_failure(items, detail=None):
    """Verdict over lazily computed (label, result) items.

    The first result that fails fails the check; its label, followed by
    the result's own witness if it has one, is the witness.  The items
    after it are never computed.  `detail` is recorded either way.
    """
    for label, result in items:
        status, witness, _ = _verdict(result)
        if status == "fail":
            return "fail", (label if witness is None
                            else f"{label}: {witness}"), detail
    return "pass", None, detail


class Runner:
    """Makes every record of a run.

    `check` is the one place where a check is timed, trapped and
    recorded; its `fn` does all of the check's work and returns one
    result.  A (status, witness, detail) triple is taken as it is, a bool
    is a pass or a fail, and an element passes when it is zero (it is its
    own witness).  A list of (check id, anchor, result) entries is a table
    computed once: each entry is one record, and the table's time is
    shared among them.  An exception raised by `fn` fails one record
    under `check_id`, with an `exception:` witness, and the run goes on.
    """

    def __init__(self):
        self.records = []

    def check(self, suite, check_id, anchor, fn):
        """Run fn, record its result; returns the first record made."""
        start = time.monotonic()
        try:
            result = fn()
            if not isinstance(result, list):
                result = [(check_id, anchor, result)]
            entries = [(cid, anc, _verdict(r)) for cid, anc, r in result]
        except Exception as exc:        # a crashed check is a failed check
            entries = [(check_id, anchor,
                        ("fail", f"exception: {exc!r}", None))]
        share, extra = divmod(int((time.monotonic() - start) * 1000),
                              len(entries))
        for cid, anc, (status, witness, detail) in entries:
            rec = {
                "suite": suite,
                "check": cid,
                "anchor": anc,
                "status": status,
                "elapsed_ms": share + extra,
            }
            extra = 0               # the first record takes the remainder
            if witness is not None:
                rec["witness"] = (witness if len(witness) <= 400
                                  else witness[:400] + "...")
            if detail is not None:
                rec["detail"] = detail
            self.records.append(rec)
        return self.records[-len(entries)]

    def skip(self, suite, check_id, anchor, reason):
        return self.check(suite, check_id, anchor,
                          lambda: ("skipped", None, {"reason": reason}))


# -- suites ------------------------------------------------------------------

def suite_osp(ctx: Context, run: Runner):
    F = ctx.alg.field
    run.check("osp", "bracket-00", "osp12 defining relations", lambda: [
        (f"bracket-{idx:02d}", f"osp12-relation {name}", ok)
        for idx, (name, ok)
        in enumerate(ctx.osp.bracket_table_check().items())])
    run.check("osp", "scasimir-square", "scasimir squares to casimir + 1/4",
              lambda: ctx.osp.scasimir * ctx.osp.scasimir
              - ctx.osp.Omega_quarter)
    run.check("osp", "scasimir-gamma",
              "scasimir times pseudo-scalar equals scaled top generator",
              lambda: ctx.tama.sgamma_residual())
    run.check("osp", "scasimir-square-expansion",
              "scasimir square as generator sum",
              lambda: ctx.tama.ssquare_expansion_residual())
    run.check("osp", "projection-scasimir",
              "P(scasimir) = -2(casimir + 1/4)",
              lambda: ctx.osp.project(ctx.osp.scasimir)
              + ctx.osp.Omega_quarter.scale(F.rational(2)))
    run.check("osp", "projection-sl2-casimir",
              "P(sl2 casimir) = 3 casimir",
              lambda: ctx.osp.project(ctx.osp.Omega_sl2)
              - ctx.osp.Omega_osp.scale(F.rational(3)))
    for size in (1, 2, 3):
        cid = f"projection-generators-{size}"
        anchor = f"-(t/2) P(e_A) = O_A, |A| = {size}"
        if size > ctx.rd.dim:
            run.skip("osp", cid, anchor, "arity exceeds dimension")
            continue
        run.check("osp", cid, anchor, lambda size=size: first_failure(
            (f"A={tup}", ctx.tama.project_O(tup) - ctx.tama.O(tup))
            for tup in combinations(range(1, ctx.rd.dim + 1), size)))


def suite_relations(ctx: Context, run: Runner):
    for name, blocks in Tama.RELATIONS.items():
        if sum(blocks) > ctx.rd.dim:
            run.skip("relations", name, f"generator relation {name}",
                     "arity exceeds dimension")
            continue
        if name == "r22-shared-literal":
            # recorded variant of r22-shared with the alternative middle
            # commutator, reported for transparency, not as a defining
            # relation: it holds on A r2, and on A r3, D r4, B r3 and A1^3
            # it first fails at (1, 2, 3)
            def literal():
                orbit = ctx.tama.relation_orbits(name)
                bad = {tup for tup, first in orbit.items() if tup == first
                       and not ctx.tama.relation_residual(name, tup).is_zero()}
                return "pass", None, {
                    "variant_holds": not bad,
                    "failing_tuples": [tup for tup, first in orbit.items()
                                       if first in bad][:5],
                    "tuples": len(orbit)}
            run.check("relations", name,
                      "alternative middle-commutator reading (recorded)",
                      literal)
            continue

        # one residual per orbit (`Tama.relation_orbits`): the first
        # failing orbit's first tuple is the first failing tuple
        def relation(name=name):
            orbit = ctx.tama.relation_orbits(name)
            return first_failure(
                ((f"indices {tup}", ctx.tama.relation_residual(name, tup))
                 for tup, first in orbit.items() if tup == first),
                {"tuples": len(orbit)})
        run.check("relations", name, f"generator relation {name}", relation)
    # antisymmetrised reconstruction identities, taken at s = sqrt2 (t = 1)
    for n in Tama.RECONSTRUCTIONS:
        cid = f"reconstruction-{n}index"
        anchor = f"{n}-index generator from antisymmetrised products at t = 1"
        if ctx.rd.dim < n:
            run.skip("relations", cid, anchor, "arity exceeds dimension")
            continue
        if ctx.config.specialize is not None:
            run.skip("relations", cid, anchor,
                     "reconstruction identities hold only at t = 1")
            continue
        run.check("relations", cid, anchor,
                  lambda n=n: ctx.tama.reconstruction_residual(
                      range(1, n + 1)).map_scalars(
                          lambda sc: sc.substitute_s(C_R)))


def _failing(fails, what):
    """Verdict on a list of failing items: a pass when it is empty."""
    if fails:
        return "fail", f"{what} {fails[:5]}", None
    return "pass", None, None


def suite_centre(ctx: Context, run: Runner):
    def member(z):
        return (z.gbracket(ctx.osp.F_plus).is_zero()
                and z.gbracket(ctx.osp.F_minus).is_zero())

    run.check("centre", "casimir-membership",
              "casimir graded-commutes with the osp realisation",
              lambda: member(ctx.osp.Omega_osp))
    run.check("centre", "casimir-central",
              "casimir graded-central against cover lifts and generators",
              lambda: _failing(ctx.tama.graded_central_in_tama(
                  ctx.osp.Omega_osp), "non-central against"))
    if not ctx.rd.contains_minus_identity()[0]:
        run.skip("centre", "square-root-branch",
                 "central square root when -1 is in the group",
                 "group does not contain -identity")
        return

    def branch_check():
        detail = {}
        winners = []
        for label, z in ctx.tama.centre_candidates()[1:]:
            ok_m = member(z)
            central = ok_m and not ctx.tama.graded_central_in_tama(z)
            detail[label] = {"member": ok_m, "central": central}
            if central and label.startswith("S"):
                winners.append(label)
        detail["passing_scasimir_candidates"] = winners
        return ("pass" if winners else "fail"), None, detail
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
    alg = ctx.alg
    run.check("vogan", "epsilon-commutation",
              "dirac element commutes with cover lifts up to epsilon",
              lambda: _failing(ctx.tama.epsilon_commutation_residuals(),
                               "failing lifts"))

    def deformations():
        entries = _admissible_entries(ctx)
        if not entries:
            return "skipped", None, {
                "reason": "no admissible elements for this configuration"}
        out = []
        for entry in entries:
            label = entry["label"]
            results = ctx.tama.dirac_checks(ctx.rho_omega(entry),
                                            alg.pin.epsilon(entry["rep"]))
            out += [(f"{key}-{label}",
                     f"dirac identity {key} for admissible class {label}", ok)
                    for key, ok in results.items()]
        return out
    run.check("vogan", "dirac-deformation",
              "deformed dirac identities per admissible element",
              deformations)


def suite_admissible(ctx: Context, run: Runner):
    def oracle():
        cover = ctx.cover
        brute, _consistency = cover.brute_force_epsilon_centre()
        cat_vecs = [v for _rep, v in cover.epsilon_centre_basis()]
        _, rank_b = linearly_independent(brute)
        _, rank_c = linearly_independent(cat_vecs)
        _, rank_u = linearly_independent(brute + cat_vecs)
        return (("pass" if rank_b == rank_c == rank_u else "fail"), None,
                {"brute_dim": rank_b, "catalog_dim": rank_c,
                 "union_rank": rank_u})
    run.check("admissible", "epsilon-centre-oracle",
              "catalogued epsilon-centre equals the brute-force solution",
              oracle)

    def class_flags():
        flags = [{
            "class": entry["label"],
            "parity": int(entry["parity"]),
            "splits": bool(entry["splits"]),
            "nonzero": entry["nonzero"],
            "bullet_fixed_literal": entry["bullet_fixed"],
            "admissible_literal": entry["admissible"],
            "admissible_adjusted": entry["admissible_adjusted"],
        } for entry in ctx.cover.admissible_basis()]
        return "pass", None, {"classes": flags}
    run.check("admissible", "class-flags",
              "per-class admissibility certificates", class_flags)
    if ctx.rd.family == "A":
        def criterion():
            d_odd = ctx.rd.dim % 2 == 1
            n_perm = ctx.rd.rank + 1
            preds = dict(sn_partition_predictions(n_perm, d_odd))
            extra_fixed = ctx.rd.dim - n_perm
            mismatches = []
            for entry in ctx.cover.admissible_basis():
                # a class with no prediction is a mismatch
                predicted = preds.get(_parse_partition_label(
                    entry["label"], strip_ones=extra_fixed))
                actual = entry["admissible_adjusted"]
                if predicted != actual:
                    mismatches.append({"class": entry["label"],
                                       "predicted": predicted,
                                       "brute_force": actual})
            detail = {"d_parity": "odd" if d_odd else "even",
                      "discrepancies": mismatches}
            # known parity-odd discrepancies are surfaced, not hidden
            if mismatches and not d_odd:
                return "fail", f"{len(mismatches)} mismatches", detail
            return "pass", None, detail
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
    alg = ctx.alg
    F = alg.field
    d = ctx.rd.dim
    max_deg = ctx.config.max_degree
    deg0 = min(2, max_deg)
    # values shared by several checks, built by the first check that needs
    # them; an exception while building one fails every check that needs it
    form = functools.cache(lambda: HermitianForm(ctx.rep))
    adjoint = functools.cache(lambda: form().adjointness_check(deg0))
    signs = functools.cache(lambda: [
        form().leading_minor_signs(k, C_R, [0] * (F.nvars - 1))
        for k in range(deg0 + 1)])

    def positive():
        return all(s == 1 for per_deg in signs() for s in per_deg)

    def clifford_relations():
        mats = spinor_matrices(d)
        ident = _identity(len(mats[0]))
        for a in range(d):
            yield f"e_{a+1}^2 != 1", _mat_mul_coeff(mats[a], mats[a]) == ident
            for b in range(a + 1, d):
                p = _mat_mul_coeff(mats[a], mats[b])
                q = _mat_mul_coeff(mats[b], mats[a])
                yield (f"e_{a+1} e_{b+1} not anticommuting",
                       not any(_mat_sum(p, q)))
    run.check("cohomology", "spinor-clifford-relations",
              "spinor matrices satisfy the clifford relations",
              lambda: first_failure(clifford_relations()))

    def products():
        rep = ctx.rep
        last = -1 % len(ctx.rd.positive_roots)
        for a, b in [(alg.e(1), alg.group(ctx.rd.reflection_index(0))),
                     (ctx.osp.scasimir, ctx.osp.scasimir),
                     (alg.rho((ctx.rd.reflection_index(0), 1)),
                      alg.rho((ctx.rd.reflection_index(last), 1)))]:
            Ma, _ = rep.matrix_of(a, deg0)
            Mb, _ = rep.matrix_of(b, deg0)
            Mab, _ = rep.matrix_of(a * b, deg0)
            yield ("matrix_of(a b) != matrix_of(a) matrix_of(b)",
                   _mat_mul_coeff(Ma, Mb) == Mab)
    run.check("cohomology", "representation-property",
              "matrix assembly is multiplicative on degree-preserving elements",
              lambda: first_failure(products()))

    def dirac_square(k):
        rep = ctx.rep
        MD, _ = rep.matrix_of(ctx.tama.dirac(), k)
        MO, _ = rep.matrix_of(ctx.osp.Omega_quarter, k)
        return first_failure([(f"degree {k} matrix identity fails",
                               _mat_mul_coeff(MD, MD) == MO)])
    for k in range(max_deg + 1):
        run.check("cohomology", f"dirac-square-degree-{k}",
                  "matrix of D squared equals matrix of casimir + 1/4",
                  lambda k=k: dirac_square(k))

    def reflections():
        rep = ctx.rep
        MD, _ = rep.matrix_of(ctx.tama.dirac(), deg0)
        for r_idx in range(len(ctx.rd.positive_roots)):
            g = ctx.rd.reflection_index(r_idx)
            Mr, _ = rep.matrix_of(alg.rho((g, 1)), deg0)
            lhs = _mat_mul_coeff(MD, Mr)
            rhs = _mat_mul_coeff(Mr, MD)
            if alg.pin.epsilon(g) < 0:
                yield f"reflection {r_idx}", not any(_mat_sum(lhs, rhs))
            else:
                yield f"reflection {r_idx}", lhs == rhs
    run.check("cohomology", "cover-equivariance",
              "matrix of D commutes with reflection lifts up to epsilon",
              lambda: first_failure(reflections()))

    def adjointness():
        out = []
        for name, ok in adjoint().items():
            if name.startswith("e"):
                witness = ("no spinor form makes all generators skew-adjoint "
                           "in odd dimension")
            else:
                witness = "adjointness identity fails"
            out.append((f"hermitian-adjoint-{name}",
                        f"bullet-adjointness of generator {name} under the "
                        "pairing",
                        ("pass", None, None) if ok else ("fail", witness, None)))
        return out
    run.check("cohomology", "hermitian-adjoint-gram_hermitian",
              "bullet-adjointness of the generators under the pairing",
              adjointness)
    # the point at which `signs` reads the Gram matrix: each specialised
    # value, then c = 0 for the free c_k and t = 1 for a free s
    spec = ctx.config.specialize or {}
    free_c = [f"c{k}" for k in range(1, F.nvars) if f"c{k}" not in spec]
    point = [f"{p} = {v}" for p, v in spec.items()]
    point += (["c = 0"] if len(free_c) == F.nvars - 1
              else [f"{c} = 0" for c in free_c])
    if "s" not in spec:
        point.append("t = 1")
    run.check("cohomology", "hermitian-minors",
              f"leading principal minor signs at {', '.join(sorted(point))}",
              lambda: ("pass", None,
                       {"signs": signs(), "positive_definite": positive()}))

    if not alg.h.rational:
        run.skip("cohomology", "cohomology-table",
                 "per-degree kernel and cohomology dimensions",
                 "requires a rational specialization")
        run.skip("cohomology", "kernel-rescaling-scan",
                 "nonzero kernel under rescaled admissible deformation",
                 "requires a rational specialization")
        return

    def table():
        entries = _admissible_entries(ctx)
        d_omega, omega_label = ctx.tama.dirac(), None
        if entries:
            d_omega = d_omega + ctx.rho_omega(entries[0])
            omega_label = entries[0]["label"]
        tab = cohomology_dims(ctx.rep, d_omega, range(max_deg + 1))
        # a positive-definite bullet-Hermitian form forces ker and im apart
        ok = (not (all(adjoint().values()) and positive())
              or all(row["ker_cap_im"] == 0 for row in tab))
        return ("pass" if ok else "fail"), None, {"omega_class": omega_label,
                                                  "rows": tab}
    run.check("cohomology", "cohomology-table",
              "per-degree kernel and cohomology dimensions", table)

    def rescan():
        entries = _admissible_entries(ctx)
        if not entries:
            return "pass", None, {"found": None,
                                  "reason": "no admissible elements"}
        rho_w = ctx.rho_omega(entries[0])
        found = []
        from fractions import Fraction
        lams = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3)]
        for lam in lams:
            dw = ctx.tama.dirac() + rho_w.scale(F.rational(lam))
            for k in range(deg0 + 1):
                mat, _ = ctx.rep.matrix_of_coeff(dw, k)
                if kernel_basis_coeff(mat):
                    found.append({"lambda": str(lam), "degree": k})
        return "pass", None, {"found": bool(found), "instances": found[:5]}
    run.check("cohomology", "kernel-rescaling-scan",
              "nonzero kernel under rescaled admissible deformation", rescan)


def suite_filtration(ctx: Context, run: Runner):
    pairs = 100
    max_deg = 3
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

    def failing_pairs():             # a witness is formatted only on failure
        for n in range(pairs):
            xi, eta = random_monomial(), random_monomial()
            if not filtration_check(h, xi, eta):
                yield f"pair {n}: {xi} , {eta}", False
    run.check("filtration", "commutator-leading-term",
              "deformed commutator drops degree and carries the deformation "
              "parameter", lambda: first_failure(failing_pairs(),
                                                 {"pairs": pairs}))


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
                   help=f"ambient dimension, at most {AMBIENT_CAP} "
                   "(defaults: rank+1 for A, rank otherwise)")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name or 'all'; repeatable")
    p.add_argument("--single-c", action="store_true",
                   help="collapse all root orbits to one coupling parameter")
    p.add_argument("--specialize", default=None, metavar="s=RAT,c1=RAT,...",
                   help="rational parameter values")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--out", default=None, help="write the JSON report here")
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
                     max_degree=args.max_degree, out=args.out)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = config_from_args(args)
        # opened before any suite runs, so an unwritable path costs nothing
        sink = (open(config.out, "w", encoding="ascii") if config.out
                else contextlib.nullcontext(sys.stdout))
    except (ConfigError, UnsupportedFamilyError, GroupBoundExceededError,
            OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    with sink as fh:
        report, code = run_config(config)
        print(canonical_report_bytes(report).decode(), file=fh)
    summary = report["summary"]
    print(f"pass {summary['pass']}  fail {summary['fail']}  "
          f"skipped {summary['skipped']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
