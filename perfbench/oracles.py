"""Checks of `verify` outputs against computations made apart from it.

Import with `src` on `sys.path` (child.py and selftest.py set it).

Each workload's oracle takes the built context, the JSON report and a
seeded `random.Random`, and returns a list of failure messages (empty
when every check holds).  The pure checks below take plain data so that
`selftest.py` can feed them wrong answers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from dunkl.cherednik import dunkl_commutator
from dunkl.cli import _admissible_entries
from dunkl.hc import HCElement

# -- symbolic-a1x4 -------------------------------------------------------------


def commutator_closed_form(h, i, a):
    """[y_i, x^a] for A1^d: t a_i x^(a-e_i) - c_i (1-(-1)^a_i) x^(a-e_i) s_i.

    Built from the field's own s and c_i, not from the algebra's cached
    t and per-root parameters.  Returns {(xexp, yexp, g_idx): Scalar}.
    """
    F = h.field
    if not a[i - 1]:
        return {}
    t = F.s * F.s * F.rational(Fraction(1, 2))
    lower = tuple(k - (j == i - 1) for j, k in enumerate(a))
    out = {(lower, h.zero_exp, h.id_idx): t * F.rational(a[i - 1])}
    if a[i - 1] % 2:
        s_i = h.rd.reflection_index(i - 1)
        out[(lower, h.zero_exp, s_i)] = -(F.cs[i - 1] * F.rational(2))
    return out


def commutator_failure(h, i, a, got):
    """Compare the terms `got` of [y_i, x^a] with the closed form."""
    want = commutator_closed_form(h, i, a)
    got = {k: v for k, v in got.items() if not v.is_zero()}
    if set(got) != set(want):
        return f"[y_{i}, x^{a}]: terms {sorted(got)} != {sorted(want)}"
    for k, v in want.items():
        if not (got[k] - v).is_zero():
            return f"[y_{i}, x^{a}] at {k}: {got[k]} != {v}"
    return None


def random_hc_monomial(alg, rng, max_deg=2):
    """A PBW (x) Clifford monomial x^a y^b w e_A with seeded exponents."""
    d = alg.dim

    def exps():
        e = [0] * d
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(d)] += 1
        return tuple(e)
    key = (exps(), exps(), rng.randrange(len(alg.rd.elements)),
           rng.randrange(1 << d))
    coeff = alg.field.rational(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    return HCElement(alg, {key: coeff})


def check_symbolic_a1x4(ctx, report, rng, samples=16, triples=6):
    h = ctx.alg.h
    d = ctx.rd.dim
    fails = []
    for _ in range(samples):
        i = rng.randint(1, d)
        a = tuple(rng.randint(0, 4) for _ in range(d))
        msg = commutator_failure(h, i, a, dunkl_commutator(h, i, a).terms)
        if msg:
            fails.append(msg)
    for n in range(triples):
        a, b, c = (random_hc_monomial(ctx.alg, rng) for _ in range(3))
        if not ((a * b) * c - a * (b * c)).is_zero():
            fails.append(f"associativity fails on triple {n}: {a}, {b}, {c}")
    return fails


# -- specialised-b2 ------------------------------------------------------------


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_1_mod_8(rng):
    """A seeded prime p = 1 (mod 8) between 2^30 and 2^31."""
    n = rng.randrange(1 << 30, 1 << 31) // 8 * 8 + 1
    while not is_prime(n):
        n += 8
    return n


def roots_i_sqrt2(p):
    """(i, sqrt2) mod p from a primitive 8th root of unity z:
    i = z^2 and sqrt2 = z + z^-1."""
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    z = pow(g, (p - 1) // 8, p)
    i, r = z * z % p, (z + pow(z, -1, p)) % p
    if i * i % p != p - 1 or r * r % p != 2:
        raise ArithmeticError(f"no i, sqrt2 mod {p}")
    return i, r


def coeff_mod_p(cf, p, i, r):
    """Image of a + b i + c r + d i r in F_p."""
    def q(x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, p) % p
    return (q(cf.a) + q(cf.b) * i + q(cf.c) * r + q(cf.d) * i * r) % p


def nullity_mod_p(rows, p):
    """Dimension of the right kernel of an F_p matrix."""
    if not rows:
        return 0
    m = [list(row) for row in rows]
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return ncols - rank


def cohomology_row_failures(row, d, ker_mod_p):
    """One cohomology-table row against its dimension, the inequalities
    0 <= ker_cap_im <= ker <= dim, H = ker - ker_cap_im, and the kernel
    mod p, which bounds the true kernel from above."""
    k = row["degree"]
    want_dim = comb(d + k - 1, k) * 2 ** (d // 2)
    fails = []
    if row["dim"] != want_dim:
        fails.append(f"degree {k}: dim {row['dim']} != {want_dim}")
    if not 0 <= row["ker_cap_im"] <= row["ker"] <= row["dim"]:
        fails.append(f"degree {k}: not 0 <= ker_cap_im <= ker <= dim: {row}")
    if row["cohomology"] != row["ker"] - row["ker_cap_im"]:
        fails.append(f"degree {k}: cohomology != ker - ker_cap_im: {row}")
    if row["ker"] > ker_mod_p:
        fails.append(f"degree {k}: ker {row['ker']} exceeds the kernel "
                     f"mod p, {ker_mod_p}")
    return fails


def check_specialised_b2(ctx, report, rng):
    rows = _detail(report, "cohomology", "cohomology-table")["rows"]
    entries = _admissible_entries(ctx)
    d_omega = ctx.tama.dirac()
    if entries:
        d_omega = d_omega + ctx.cover.to_hc(ctx.alg, entries[0]["adjusted"])
    p = prime_1_mod_8(rng)
    i, r = roots_i_sqrt2(p)
    fails = []
    if [row["degree"] for row in rows] != list(range(ctx.config.max_degree + 1)):
        fails.append(f"cohomology table degrees: {[row['degree'] for row in rows]}")
    for row in rows:
        mat, _ = ctx.rep.matrix_of_coeff(d_omega, row["degree"])
        ker_p = nullity_mod_p([[coeff_mod_p(v, p, i, r) for v in line]
                               for line in mat], p)
        fails += cohomology_row_failures(row, ctx.rd.dim, ker_p)
    return fails


# -- cover-s5 ------------------------------------------------------------------


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, largest), 0, -1)
            for rest in partitions(n - k, k)]


def split_classes(n):
    """Classes of S_n that split in its double cover (Schur): all parts
    odd, or distinct parts forming an odd permutation."""
    return sum(1 for lam in partitions(n)
               if all(k % 2 for k in lam)
               or (len(set(lam)) == len(lam) and (n - len(lam)) % 2))


def cover_failures(n, order, classes, brute_dim):
    """|S_n|, its class count and the epsilon-centre dimension, for odd d."""
    fails = []
    if order != factorial(n):
        fails.append(f"|W| = {order}, expected {n}! = {factorial(n)}")
    if classes != len(partitions(n)):
        fails.append(f"{classes} classes, expected p({n}) = "
                     f"{len(partitions(n))}")
    if brute_dim != split_classes(n):
        fails.append(f"epsilon-centre dimension {brute_dim}, expected "
                     f"{split_classes(n)} split classes")
    return fails


def mat_product(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def check_cover_s5(ctx, report, rng, pairs=200):
    rd = ctx.rd
    n = rd.rank + 1
    detail = _detail(report, "admissible", "epsilon-centre-oracle")
    flags = _detail(report, "admissible", "class-flags")["classes"]
    fails = cover_failures(n, len(rd.elements), len(flags),
                           detail["brute_dim"])
    els, tbl = rd.elements, rd.mul_table
    for _ in range(pairs):
        g, h = rng.randrange(len(els)), rng.randrange(len(els))
        if els[tbl[g][h]].mat != mat_product(els[g].mat, els[h].mat):
            fails.append(f"mul_table[{g}][{h}] is not the matrix product")
    return fails


def _detail(report, suite, check):
    for rec in report["checks"]:
        if rec["suite"] == suite and rec["check"] == check:
            return rec["detail"]
    raise KeyError(f"no {suite}/{check} record in the report")


ORACLES = {
    "symbolic-a1x4": check_symbolic_a1x4,
    "specialised-b2": check_specialised_b2,
    "cover-s5": check_cover_s5,
}
