"""Specialisation oracle at element level.

A context built at a rational point runs the Coeff-only path (every
packed exponent 0); a symbolic context runs the packed-exponent, Scalar
and substitution paths.  Each element below, built in both, must agree
once the symbolic one is evaluated at the point: by `substitute` at
(s, c_1, .., c_m), and by `substitute_s` followed by `substitute` of the
c_k.  An error in either path, such as an exponent carried into the
wrong slot or a wrong convention for t, shows as a disagreement.
"""

import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from conftest import stack
from dunkl.cli import Context, RunConfig, Runner, suite_relations
from dunkl.hc import HCElement
from dunkl.scalars import C_R, Coeff, Scalar

# two fixed points (s, c_1, .., c_m) per group
_POINTS = {
    "B2": (("B", 2, 2), [(Q(2), Q(1, 3), Q(1, 5)),
                         (Q(3, 2), Q(-2, 7), Q(5, 3))]),
    "A1^3": (("A1", 3, 3), [(Q(2), Q(1, 3), Q(1, 5), Q(3, 4)),
                            (Q(1, 2), Q(2), Q(-1, 3), Q(5, 7))]),
    "A r3": (("A", 3, 4), [(Q(2), Q(1, 3)), (Q(5, 3), Q(-3, 2))]),
}

_CASES = [(name, k) for name in _POINTS for k in range(2)]


def _specialised(group, point):
    spec = {"s": point[0]}
    spec.update((f"c{k + 1}", v) for k, v in enumerate(point[1:]))
    return Context(RunConfig(*group, [], specialize=spec))


def _seeded(ctx, rng):
    """A sum of four monomials x^a y^b w e_A, each with a coefficient
    q, q s, q t, q c_k or q / s of the context's own parameters."""
    alg = ctx.alg
    h = alg.h
    F = alg.field
    params = [F.one, h.s, h.t, h.s.inv()] + list(h.c_orbit)
    d = alg.dim
    terms = {}
    for _ in range(4):
        a, b = [0] * d, [0] * d
        for _ in range(rng.randint(0, 3)):
            (a if rng.random() < 0.5 else b)[rng.randrange(d)] += 1
        key = (tuple(a), tuple(b), rng.randrange(len(alg.rd.elements)),
               rng.randrange(1 << d))
        q = F.rational(Q(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
        terms[key] = q * rng.choice(params)
    return HCElement(alg, terms)


def _elements(ctx, seed):
    """{name: element} of the checked elements of one context."""
    osp, tama = ctx.osp, ctx.tama
    d = ctx.alg.dim
    out = {"F+": osp.F_plus, "F-": osp.F_minus, "E+": osp.E_plus,
           "E-": osp.E_minus, "S": osp.scasimir,
           "Omega+1/4": osp.Omega_quarter, "D": tama.dirac()}
    for j in range(1, d + 1):
        out[f"Ocheck_{j}"] = tama.ocheck(j)
    for n in range(2, d + 1):
        for idxs in combinations(range(1, d + 1), n):
            out[f"O_{idxs}"] = tama.O(idxs)
    rng = random.Random(seed)
    a, b = _seeded(ctx, rng), _seeded(ctx, rng)
    out["a b"] = a * b
    out["[[a, b]]"] = a.gbracket(b)
    return out


def _disagreements(name, k, seed=5):
    """The names of the elements whose symbolic values, evaluated at the
    k-th point of group `name` either way, differ from the specialised."""
    group, points = _POINTS[name]
    point = points[k]
    spec = _elements(_specialised(group, point), seed)
    sym = _elements(stack(*group), seed)
    s_value = Coeff(point[0])
    bad = []
    for key, elem in sym.items():
        want = spec[key].scalars()
        direct = elem.map_scalars(lambda sc: sc.substitute(point))
        in_s_first = elem.map_scalars(
            lambda sc: sc.substitute_s(s_value).substitute(point))
        if direct.scalars() != want or in_s_first.scalars() != want:
            bad.append(key)
    return bad


@pytest.mark.parametrize("name,k", _CASES,
                         ids=[f"{n}-point{k}" for n, k in _CASES])
def test_specialised_elements_are_the_evaluated_symbolic_ones(name, k):
    assert _disagreements(name, k) == []


def test_oracle_sees_substitute_s_taking_t_as_s_squared(monkeypatch):
    # s -> sqrt2 s turns t = s^2/2 into s^2
    substitute_s = Scalar.substitute_s

    def t_is_s_squared(self, cf):
        return substitute_s(self, cf * C_R)

    monkeypatch.setattr(Scalar, "substitute_s", t_is_s_squared)
    assert _disagreements("B2", 0)


def _relation_statuses(ctx):
    """{check: status} of the `relations` suite on `ctx`, skips left out."""
    run = Runner()
    suite_relations(ctx, run)
    return {rec["check"]: rec["status"] for rec in run.records
            if rec["status"] != "skipped"}


@pytest.mark.parametrize("cs,keeps_swaps", [
    ((Q(1, 3),) * 4, True), ((Q(1, 3), Q(1, 5), Q(2, 7), Q(3, 4)), False)],
    ids=["equal-c", "distinct-c"])
def test_specialised_relations_keep_the_symbolic_statuses(cs, keeps_swaps):
    ctx = _specialised(("A1", 4, 4), (Q(2),) + cs)
    got = _relation_statuses(ctx)
    swaps = [j for j, _ in ctx.rd.coordinate_swaps]
    assert ctx.tama.orbit_swaps == (swaps if keeps_swaps else [])
    want = _relation_statuses(stack("A1", 4, 4))
    # only reconstruction-4index is left out when specialised
    assert set(want) - set(got) == {"reconstruction-4index"}
    assert got == {check: want[check] for check in got}
