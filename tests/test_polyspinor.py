import inspect
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import dense_scalars
from dunkl import polyspinor
from dunkl.cherednik import HAlgebra
from dunkl.groups import RootDatum
from dunkl.hc import HCAlgebra
from dunkl.osp import OspRealisation
from dunkl.tama import Tama
from dunkl.polyspinor import (spinor_matrices, monomial_basis, SpinorRep,
                              HermitianForm, cohomology_dims,
                              rank_coeff, kernel_basis_coeff,
                              image_basis_coeff, intersection_dim,
                              _mat_mul_coeff, _conj_t, _rref)
from dunkl.scalars import C_ONE, C_ZERO, C_R, Coeff
from dunkl.sparse import add_into


def _dense_coeffs(rows, ncols):
    """A constant matrix, rows {(col, 0): Coeff}, as dense Coeff lists."""
    dense = [[C_ZERO] * ncols for _ in rows]
    for line, row in zip(dense, rows):
        for (c, e), v in row.items():
            assert e == 0
            line[c] = v
    return dense


def _dense_coeff_product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), C_ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def test_spinor_matrix_clifford_relations():
    for d in range(1, 7):
        mats = spinor_matrices(d)
        n = len(mats[0])
        assert n == 1 << (d // 2)
        ident = [{(i, 0): C_ONE} for i in range(n)]
        dense_ident = [[C_ONE if i == j else C_ZERO for j in range(n)]
                       for i in range(n)]
        dense = [_dense_coeffs(m, n) for m in mats]
        for a in range(d):
            assert _mat_mul_coeff(mats[a], mats[a]) == ident
            assert _dense_coeff_product(dense[a], dense[a]) == dense_ident
            for b in range(a + 1, d):
                p = _mat_mul_coeff(mats[a], mats[b])
                q = _mat_mul_coeff(mats[b], mats[a])
                s = [add_into(dict(r1), r2.items()) for r1, r2 in zip(p, q)]
                assert not any(s)
                p = _dense_coeff_product(dense[a], dense[b])
                q = _dense_coeff_product(dense[b], dense[a])
                s = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(p, q)]
                assert all(v.is_zero() for row in s for v in row)


def test_monomial_basis_dimensions():
    # C(k+d-1, d-1) monomials of degree k in d variables
    import math
    for d in (2, 3, 4):
        for k in range(5):
            assert len(monomial_basis(d, k)) == math.comb(k + d - 1, d - 1)


def _dense_view(rep, mat, degree):
    """The dense Scalar view of a matrix of `rep` on source degree
    `degree`."""
    return dense_scalars(mat, rep.dim(degree), rep.alg.field.nvars)


def _matmul(F, a, b):
    """The dense reference product of Scalar matrices."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F.zero)
             for j in range(len(b[0]))] for i in range(len(a))]


@pytest.fixture(scope="module")
def rep_a13(request):
    rd = RootDatum("A1", 3, 3)
    alg = HCAlgebra(rd)
    return SpinorRep(alg)


def test_euler_operator_is_diagonal_at_c_zero(rep_a13):
    # x_1 y_1 acts diagonally with entry t*k_1 plus c-dependent terms; at
    # c = 0 the matrix is exactly diagonal
    alg = rep_a13.alg
    elem = alg.x(1) * alg.y(1)
    mat, out = rep_a13.matrix_of(elem, 2)
    assert out == 2
    mat = _dense_view(rep_a13, mat, 2)
    basis = rep_a13.basis(2)
    sd = rep_a13.spin_dim
    t = alg.h.t
    for ci, mono in enumerate(basis):
        for si in range(sd):
            col = ci * sd + si
            diag = mat[col][col]
            expect = t * alg.field.rational(mono[0])
            # kill the deformation parameters
            point = (Fraction(1),) + (Fraction(0),) * (alg.field.nvars - 1)
            assert diag.substitute(point) == expect.substitute(point)


def test_matrix_of_rejects_inhomogeneous(rep_a13):
    alg = rep_a13.alg
    with pytest.raises(ValueError):
        rep_a13.matrix_of(alg.x(1) + alg.y(1), 2)


def test_representation_property(rep_a13):
    alg = rep_a13.alg
    F = alg.field
    g0 = alg.rd.reflection_index(0)
    pairs = [(alg.y(2), alg.x(1)),
             (alg.group(g0), alg.e(3)),
             (alg.e(1) * alg.group(g0), alg.x(1) * alg.e(2))]
    for a, b in pairs:
        shift_b = (sum(next(iter(b.terms))[0])
                   - sum(next(iter(b.terms))[1]))
        Ma, _ = rep_a13.matrix_of(a, 2 + shift_b)
        Mb, _ = rep_a13.matrix_of(b, 2)
        Mab, _ = rep_a13.matrix_of(a * b, 2)
        assert _mat_mul_coeff(Ma, Mb) == Mab
        assert _matmul(F, _dense_view(rep_a13, Ma, 2 + shift_b),
                       _dense_view(rep_a13, Mb, 2)) == _dense_view(rep_a13, Mab, 2)


def test_dirac_square_matrix_identity_low_degree(rep_a13):
    alg = rep_a13.alg
    F = alg.field
    tm = Tama(alg, OspRealisation(alg))
    D = tm.dirac()
    Om = tm.osp.Omega_osp + alg.scalar(F.rational(Fraction(1, 4)))
    for k in (0, 1, 2):
        MD, _ = rep_a13.matrix_of(D, k)
        MO, _ = rep_a13.matrix_of(Om, k)
        assert _mat_mul_coeff(MD, MD) == MO
        MD, MO = _dense_view(rep_a13, MD, k), _dense_view(rep_a13, MO, k)
        assert _matmul(F, MD, MD) == MO


SPECIALISED = {
    "B2": (("B", 2, 2), {"s": Fraction(2), "c1": Fraction(1, 3),
                         "c2": Fraction(1, 5)}),
    "A1^3": (("A1", 3, 3), {"s": Fraction(2), "c1": Fraction(1, 3),
                            "c2": Fraction(1, 5), "c3": Fraction(1, 7)}),
}


def _probe_elements(alg):
    osp = OspRealisation(alg)
    d = alg.dim
    elems = [Tama(alg, osp).dirac(), osp.Omega_osp, alg.rho_reflection(0)]
    elems += [alg.x(i) for i in range(1, d + 1)]
    elems += [alg.y(i) for i in range(1, d + 1)]
    elems += [alg.e(j) for j in range(1, d + 1)]
    return elems


@pytest.mark.parametrize("name", sorted(SPECIALISED))
def test_matrix_of_coeff_matches_matrix_of(name):
    # a rational context's matrices and Gram matrices are the symbolic
    # context's evaluated at the specialised point
    rd_args, spec = SPECIALISED[name]
    sym = SpinorRep(HCAlgebra(RootDatum(*rd_args)))
    rat = SpinorRep(HCAlgebra(RootDatum(*rd_args), specialize=spec))
    point = tuple(spec[v] for v in ["s"] + [f"c{k}" for k in range(
        1, sym.alg.field.nvars)])

    def at_point(mat):
        return [[v.substitute(point).constant_value() for v in row]
                for row in mat]
    for s_elem, r_elem in zip(_probe_elements(sym.alg),
                              _probe_elements(rat.alg)):
        for k in range(4):
            mat, out = sym.matrix_of(s_elem, k)
            cmat, cout = rat.matrix_of_coeff(r_elem, k)
            assert cout == out
            assert cmat == at_point(_dense_view(sym, mat, k))
            assert cmat == _dense_coeffs(rat.matrix_of(r_elem, k)[0],
                                         rat.dim(k))
    sym_form, rat_form = HermitianForm(sym), HermitianForm(rat)
    for k in range(3):
        assert _dense_coeffs(rat_form.gram(k), rat.dim(k)) \
            == at_point(_dense_view(sym, sym_form.gram(k), k))


_WORD_CASES = {
    "B2-rational": (("B", 2, 2), SPECIALISED["B2"][1]),
    "A2-symbolic": (("A", 2, 3), None),
    "A1^3-symbolic": (("A1", 3, 3), None),
}


def _exponents(d, top):
    return [e for k in range(top + 1) for e in monomial_basis(d, k)]


def _word_scalars(rep, yexp, xexp):
    """y^yexp x^xexp acting on 1 as {monomial: Scalar}, read off its PBW
    form x^a y^b w: a term with b nonzero kills 1, and w fixes it."""
    return add_into({}, ((a, v) for (a, b, _g), v
                         in rep.alg.h.straighten(yexp, xexp).items()
                         if not any(b)))


def _word_oracle(rep, yexp, xexp):
    """`_word_scalars` flat, as {(monomial, e): Coeff}."""
    return {(a, e): c for a, v in _word_scalars(rep, yexp, xexp).items()
            for e, c in v.terms.items()}


@pytest.mark.parametrize("name", sorted(_WORD_CASES))
def test_word_matches_straightening(name):
    rd_args, spec = _WORD_CASES[name]
    rep = SpinorRep(HCAlgebra(RootDatum(*rd_args), specialize=spec))
    form = HermitianForm(rep)
    zero = (0,) * rep.d
    for b in _exponents(rep.d, 2):
        for e in _exponents(rep.d, 3):
            expect = _word_oracle(rep, b, e)
            assert rep.word(b, e) == expect
            assert form._pair(b, e) == {ex: c for (m, ex), c in expect.items()
                                        if m == zero}


@pytest.mark.parametrize("name", sorted(SPECIALISED))
def test_repeated_matrix_of_reads_the_memos(name, monkeypatch):
    rd_args, spec = SPECIALISED[name]
    rep = SpinorRep(HCAlgebra(RootDatum(*rd_args), specialize=spec))
    elems = _probe_elements(rep.alg)
    first = [rep.matrix_of(elem, k) for elem in elems for k in range(3)]
    words, spins = len(rep._words), len(rep._spin)
    assert words and spins
    calls = []
    ycomm = HAlgebra.ycomm

    def counting(self, i, cexp):
        calls.append((i, cexp))
        return ycomm(self, i, cexp)
    monkeypatch.setattr(HAlgebra, "ycomm", counting)
    assert [rep.matrix_of(elem, k) for elem in elems
            for k in range(3)] == first
    assert not calls
    assert (len(rep._words), len(rep._spin)) == (words, spins)


def _ref_matrix_of(rep, elem, degree):
    """`SpinorRep.matrix_of` one term at a time, as a dense Scalar
    matrix: each term of each source monomial applies its polynomial part
    through the straightening (`_word_scalars`), multiplies by its Scalar
    and by each spinor entry, and adds into one {(row, col): Scalar}
    map."""
    F = rep.alg.field
    terms = elem.scalars()
    shift, = {sum(a) - sum(b) for (a, b, _g, _m) in terms}
    out_degree = max(degree + shift, 0)
    src, dst = rep.basis(degree), rep.basis(out_degree)
    dst_index = {m: i for i, m in enumerate(dst)}
    sd = rep.spin_dim
    acc = {}
    for (a, b, g, mask), coeff in terms.items():
        spin = rep._spin_entries(mask)
        for ci, mono in enumerate(src):
            img, sgn = rep.alg.h._elems[g].apply_exp(mono)
            for e, v in _word_scalars(rep, b, img).items():
                ri = dst_index[tuple(p + q for p, q in zip(e, a))]
                cv = coeff * (-v if sgn < 0 else v)
                add_into(acc, (((ri * sd + si, ci * sd + sj),
                                cv * F.i_power(k))
                               for si, sj, k in spin))
    mat = [[F.zero] * (len(src) * sd) for _ in range(len(dst) * sd)]
    for (r, c), v in acc.items():
        mat[r][c] = v
    return mat, out_degree


def _seeded_rep_element(alg, rng):
    """A degree-preserving element with random coefficients on x_i y_j w
    and w keys; one key carries e_1 + i e_2 (two masks whose spinor
    entries cancel at one position, and +-i entries), and two reflections
    under one mask cancel on constants."""
    F = alg.field
    d = alg.dim
    g1, g2 = (alg.rd.reflection_index(r) for r in (0, 1))
    elem = alg.zero()
    for _ in range(4):
        part = alg.group(rng.randrange(len(alg.rd.elements)))
        if rng.random() < 0.7:
            part = alg.x(rng.randint(1, d)) * alg.y(rng.randint(1, d)) * part
        mask = rng.randrange(1 << d)
        cliff = alg.e_set([j + 1 for j in range(d) if mask >> j & 1])
        cf = F.rational(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        elem = elem + (part * cliff).scale(cf * rng.choice([F.one, F.i,
                                                            F.r]))
    key = alg.x(1) * alg.y(2) * alg.group(g1)
    elem = elem + key * (alg.e(1) + alg.e(2).scale(F.i)).scale(F.rational(3))
    return elem + (alg.group(g1) - alg.group(g2)) * alg.e(d)


_ASSEMBLY_CASES = {
    "B2-rational": (("B", 2, 2), SPECIALISED["B2"][1]),
    "A2-symbolic": (("A", 2, 3), None),
    "A1^3-rational": SPECIALISED["A1^3"],
    "A1^3-symbolic": (("A1", 3, 3), None),
}


@pytest.mark.parametrize("name", sorted(_ASSEMBLY_CASES))
def test_grouped_assembly_matches_the_per_term_loop(name):
    rd_args, spec = _ASSEMBLY_CASES[name]
    alg = HCAlgebra(RootDatum(*rd_args), specialize=spec)
    rep = SpinorRep(alg)
    osp = OspRealisation(alg)
    seeded = _seeded_rep_element(alg, random.Random(24))
    keys = [k[:3] for k in seeded.scalars()]
    assert len(keys) > len(set(keys))     # two masks on one (a, b, g)
    elems = [Tama(alg, osp).dirac(), osp.Omega_quarter,
             alg.rho_reflection(0), seeded]
    for elem in elems:
        for k in range(3):
            mat, out = rep.matrix_of(elem, k)
            assert (_dense_view(rep, mat, k), out) == _ref_matrix_of(rep, elem, k)
    # the cancelling reflections leave zeros, which are not stored
    mat, _ = rep.matrix_of(alg.group(alg.rd.reflection_index(0))
                           - alg.group(alg.rd.reflection_index(1)), 0)
    assert len(mat) == rep.dim(0) and not any(mat)


def _assembly_matrices(name):
    """The rep of an `_ASSEMBLY_CASES` context and the degree-2 matrices
    of D, Omega + 1/4, a reflection lift and the seeded element."""
    rd_args, spec = _ASSEMBLY_CASES[name]
    alg = HCAlgebra(RootDatum(*rd_args), specialize=spec)
    rep = SpinorRep(alg)
    osp = OspRealisation(alg)
    elems = [Tama(alg, osp).dirac(), osp.Omega_quarter,
             alg.rho_reflection(0),
             _seeded_rep_element(alg, random.Random(24))]
    return rep, [rep.matrix_of(elem, 2)[0] for elem in elems]


def _agrees_with_dense(product, rep, mats):
    """Whether `product` of every ordered pair of `mats` (square, on
    degree 2) equals the dense Scalar product entry by entry."""
    F = rep.alg.field
    dense = [_dense_view(rep, m, 2) for m in mats]
    return all(_dense_view(rep, product(a, b), 2) == _matmul(F, da, db)
               for a, da in zip(mats, dense) for b, db in zip(mats, dense))


@pytest.mark.parametrize("name", sorted(_ASSEMBLY_CASES))
def test_flat_product_and_transpose_match_the_dense_ones(name):
    rep, mats = _assembly_matrices(name)
    assert _agrees_with_dense(_mat_mul_coeff, rep, mats)
    n = rep.dim(2)
    for m in mats:
        dense = _dense_view(rep, m, 2)
        assert _dense_view(rep, _conj_t(m, n), 2) == [
            [dense[j][i].conjugate() for j in range(n)] for i in range(n)]


def _mutant(fn, old, new):
    """The module function `fn` recompiled from its source with `old`
    replaced by `new`."""
    src = inspect.getsource(fn)
    assert old in src
    namespace = dict(vars(polyspinor))
    exec(src.replace(old, new), namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize("name", ["A1^3-symbolic", "A2-symbolic"])
def test_a_dropped_exponent_shift_fails_the_dense_comparison(name):
    rep, mats = _assembly_matrices(name)
    for old, new in (("(j, e1 + e2)", "(j, e2)"), ("(j, e1 + e2)", "(j, e1)")):
        mutant = _mutant(_mat_mul_coeff, old, new)
        assert not _agrees_with_dense(mutant, rep, mats)


@pytest.mark.parametrize("spec", [None, {"s": Fraction(2), "c1": Fraction(
    1, 3), "c2": Fraction(1, 5)}])
def test_a_dropped_conjugation_fails_the_adjointness_check(spec,
                                                           monkeypatch):
    form = HermitianForm(SpinorRep(HCAlgebra(RootDatum("A1", 2, 2),
                                             specialize=spec)))
    assert all(form.adjointness_check(1).values())
    monkeypatch.setattr(polyspinor, "_conj_t",
                        _mutant(_conj_t, "v.conj_i()", "v"))
    assert not all(form.adjointness_check(1).values())


def test_matrix_form_is_one_in_every_context():
    # rows {(col, e): Coeff} everywhere; e = 0 when every parameter is
    # rational, and only then is there a dense Coeff view
    rd = RootDatum("A1", 2, 2)
    rational = SpinorRep(HCAlgebra(rd, specialize={
        "s": Fraction(2), "c1": Fraction(1, 3), "c2": Fraction(1, 5)}))
    assert rational.alg.h.rational
    mat, _ = rational.matrix_of(rational.alg.x(1) * rational.alg.y(1), 1)
    assert type(mat) is list and any(mat)
    assert all(type(v) is Coeff and e == 0
               for row in mat for (_c, e), v in row.items())
    # s alone rational leaves the context symbolic in the c_k
    for spec in (None, {"s": Fraction(1)}):
        rep = SpinorRep(HCAlgebra(rd, specialize=spec))
        assert not rep.alg.h.rational
        mat, _ = rep.matrix_of(rep.alg.x(1) * rep.alg.y(1), 1)
        assert all(type(v) is Coeff for row in mat for v in row.values())
        assert any(e for row in mat for (_c, e) in row)
        with pytest.raises(ValueError, match="not a constant scalar"):
            rep.matrix_of_coeff(rep.alg.e(1), 0)


def test_hermitian_spinor_signs():
    # Z^(x)k is diagonal with sign (-1)^popcount(index); odd d takes +1
    for rd_args, signs in ((("A1", 2, 2), [1, -1]),
                           (("A1", 3, 3), [1, 1]),
                           (("A1", 4, 4), [1, -1, -1, 1])):
        hf = HermitianForm(SpinorRep(HCAlgebra(RootDatum(*rd_args))))
        assert hf.spin_signs == signs


_small_coeffs = st.builds(Coeff, st.integers(-2, 2), st.integers(-1, 1))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_small_coeffs, min_size=n, max_size=n), min_size=1,
    max_size=4)))
@settings(max_examples=60, deadline=None)
def test_elimination_helpers_agree(mat):
    # rank-nullity, kernel vectors annihilated, image of the right size
    ncols = len(mat[0])
    rank = rank_coeff(mat)
    ker = kernel_basis_coeff(mat)
    assert rank + len(ker) == ncols
    for vec in ker:
        for row in mat:
            acc = C_ZERO
            for a, b in zip(row, vec):
                acc = acc + a * b
            assert acc.is_zero()
    im = image_basis_coeff(mat)
    cols = list(map(list, zip(*mat)))
    assert len(im) == rank == rank_coeff(cols)
    # im spans the column space: adding the columns raises no rank
    assert rank_coeff(im + cols) == rank
    assert intersection_dim(im, im) == rank


def leibniz_det(m):
    """Reference determinant: the signed sum over all permutations."""
    n = len(m)
    total = C_ZERO
    for perm in permutations(range(n)):
        term = C_ONE
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


# zero-heavy entries, so that leading pivots vanish, rows must be
# swapped and matrices are often singular
_rational_entries = st.one_of(
    st.just(C_ZERO), st.just(C_ZERO),
    st.builds(lambda p, q: Coeff(Fraction(p, q)),
              st.integers(-3, 3), st.integers(1, 3)))
_field_entries = st.one_of(
    st.just(C_ZERO), st.just(C_ZERO),
    st.builds(Coeff, st.integers(-2, 2), st.integers(-1, 1),
              st.integers(-1, 1), st.integers(-1, 1)))


def _square(entries):
    return st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def _dense(rows):
    return [[Coeff(v) for v in row] for row in rows]


_SWAP = _dense([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
_CYCLE = _dense([[0, 0, 2], [3, 0, 0], [0, 5, 0]])
_ZERO_LEAD = _dense([[0, 2, 1], [4, 1, 0], [1, 0, 3]])
_SINGULAR = _dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]])


@given(_square(_rational_entries))
@example(_SWAP)
@example(_CYCLE)
@example(_ZERO_LEAD)
@example(_SINGULAR)
@settings(max_examples=80, deadline=None)
def test_rref_determinant_matches_leibniz_rational(mat):
    assert _rref(mat)[1] == leibniz_det(mat)


@given(_square(_field_entries))
@settings(max_examples=60, deadline=None)
def test_rref_determinant_matches_leibniz_field(mat):
    det = leibniz_det(mat)
    assert _rref(mat)[1] == det
    sparse = [{c: v for c, v in enumerate(row) if v} for row in mat]
    assert _rref(sparse)[1] == det


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(_field_entries, min_size=n, max_size=n), min_size=0,
    max_size=5)))
@settings(max_examples=60, deadline=None)
def test_rank_of_dict_rows_equals_rank_of_dense_rows(mat):
    sparse = [{c: v for c, v in enumerate(row) if v} for row in mat]
    assert rank_coeff(sparse) == rank_coeff(mat)
    assert _rref(sparse)[0] == _rref(mat)[0]


def test_exact_linear_algebra_helpers():
    one, two = Coeff(1), Coeff(2)
    zero = Coeff(0)
    mat = [[one, two, zero], [two, Coeff(4), zero]]
    assert rank_coeff(mat) == 1
    ker = kernel_basis_coeff(mat)
    assert len(ker) == 2
    im = image_basis_coeff(mat)
    assert len(im) == 1
    assert intersection_dim([[one, zero]], [[two, zero]]) == 1
    assert intersection_dim([[one, zero]], [[zero, one]]) == 0


@pytest.fixture(scope="module")
def rational_a13():
    rd = RootDatum("A1", 3, 3)
    spec = {"s": Fraction(2), "c1": Fraction(1, 3), "c2": Fraction(1, 5),
            "c3": Fraction(1, 7)}
    return HCAlgebra(rd, specialize=spec)


def test_cohomology_table_rational(rational_a13):
    alg = rational_a13
    rep = SpinorRep(alg)
    tm = Tama(alg, OspRealisation(alg))
    tab = cohomology_dims(rep, tm.dirac(), range(3))
    for row in tab:
        assert row["ker"] - row["ker_cap_im"] == row["cohomology"]
        assert 0 <= row["ker"] <= row["dim"]
    # D is invertible here (generic parameters): trivial cohomology
    assert all(row["cohomology"] == 0 for row in tab)


def test_hermitian_form_odd_dimension(rep_a13):
    hf = HermitianForm(rep_a13)
    res = hf.adjointness_check(1)
    assert res["gram_hermitian"]
    assert all(res[f"x{i}"] for i in (1, 2, 3))
    assert all(res[f"s_{r}"] for r in range(3))
    # no spinor form can make the generators skew-adjoint in odd dimension
    assert not any(res[f"e{j}"] for j in (1, 2, 3))


def test_hermitian_form_even_dimension():
    rd = RootDatum("A1", 2, 2)
    rep = SpinorRep(HCAlgebra(rd))
    hf = HermitianForm(rep)
    res = hf.adjointness_check(1)
    assert all(res.values())


def test_positivity_at_unit_t_zero_coupling(rep_a13):
    hf = HermitianForm(rep_a13)
    for k in (0, 1, 2):
        signs = hf.leading_minor_signs(k, C_R, [0, 0, 0])
        assert all(s == 1 for s in signs)


def test_even_dimension_spinor_form_indefinite():
    rd = RootDatum("A1", 2, 2)
    rep = SpinorRep(HCAlgebra(rd))
    hf = HermitianForm(rep)
    signs = hf.leading_minor_signs(0, C_R, [0, 0])
    assert -1 in signs


def test_leading_minor_signs_report_zero_minors():
    # <x, x> = t - 2c vanishes at t = 1, c = 1/2
    rep = SpinorRep(HCAlgebra(RootDatum("A1", 1, 1)))
    assert HermitianForm(rep).leading_minor_signs(1, C_R, [Fraction(1, 2)]) \
        == [0]
    # zero leading minors ahead of a nonzero one: the elimination must
    # swap past a vanishing leading pivot
    rep = SpinorRep(HCAlgebra(RootDatum("B", 2, 2)))
    assert HermitianForm(rep).leading_minor_signs(2, C_R, [1, 1]) \
        == [0, 0, 0, 0, 0, -1]


def test_spinor_entries_make_no_field_products(coeff_products):
    # the e_j of B2 act by the Pauli matrices X and Y, whose entries are
    # 1 and +-i: applying them multiplies nothing
    rep = SpinorRep(HCAlgebra(RootDatum("B", 2, 2), specialize={
        "s": Fraction(2), "c1": Fraction(1, 3), "c2": Fraction(1, 5)}))
    alg = rep.alg
    sd, n = rep.spin_dim, len(rep.basis(1))
    for j, spin in ((1, spinor_matrices(2)[0]), (2, spinor_matrices(2)[1])):
        with coeff_products() as made:
            mat, out = rep.matrix_of(alg.e(j), 1)
        assert made == [] and out == 1
        assert mat == [{((r // sd) * sd + c, e): v
                        for (c, e), v in spin[r % sd].items()}
                       for r in range(n * sd)]
