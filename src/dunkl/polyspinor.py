"""Degree-truncated polynomial-spinor representation of H_{t,c} (x) C(V).

The module X = C[V] (x) S carries: x_i by multiplication, y_i by the Dunkl
operator, w by (signed) substitution, and e_j by exact spinor matrices of
size 2^{floor(d/2)} built from the standard tensor-product construction
(two anticommuting real involutions and their i-scaled product; odd d adds
the i^k-scaled product of all even-dimension generators).

Every matrix has one form, in rational and symbolic contexts alike, the
flat form of `hc`: a list with one dict per row, {(col, e): Coeff}, e
the packed exponent (`scalars.pack`) of a monomial in s, c_1..c_m, so
e = 0 in a rational context.  Rows and columns are indexed by
(monomial, spinor) pairs, monomials in graded-lex order.  No zero is
stored, so matrices are equal exactly when their lists of rows are.
`_mat_mul_coeff` is the one product: two entries meet at the sum of
their exponents and their Coeffs multiply through `mul_coeff`.
`_conj_t` swaps row and column and applies `conj_i`, which fixes s and
the c_k.  `matrix_of_coeff` is the dense Coeff view of a rational
context's matrix, which the elimination reads; Scalar appears only
where `HermitianForm.leading_minor_signs` evaluates a symbolic Gram
entry.

One sparse assembly, `matrix_of`, builds the matrices from two per-rep
memos.  It groups an element's flat terms by their polynomial part
x^a y^b w and, per group and source monomial, reads `SpinorRep.word`
once: the Dunkl word y^b x^e acting on 1, computed once per (b, e) and
shared with the Gram matrices of `HermitianForm`; it is the one place a
Dunkl word is applied, and it sums the commutator's terms over w before
the rest of the word acts, since each w acts on 1 as 1.  Its keys and
entries are stored through the algebra's `_shared`, one object per
distinct value.  Each (mask, e, Coeff) of the group adds its multiple
of that word into the mask's own {(row, col, e): Coeff} map through
`sparse.add_into`.  The spinor matrix of each Clifford mask is monomial
(one unit i^k per row); its entries are kept once per mask as the
powers k, and applied once per mask as the rows are filled, with no
field product: +-i swaps real and i parts with a sign (`mul_i_power`).

One exact elimination, `_rref`, a sparse Gauss-Jordan reduction on
{col: Coeff} rows, serves `rank_coeff`, `kernel_basis_coeff`,
`image_basis_coeff`, `intersection_dim`, the leading minors of
`HermitianForm.leading_minor_signs` through the determinant it returns,
and through `rank_coeff` the rank check of
`admissible.linearly_independent`, which passes its sparse vectors as
they are.
"""

from __future__ import annotations

from .scalars import Scalar, C_ONE, C_ZERO, C_I, _i_power, mul_coeff
from .sparse import add_into
from .hc import HCAlgebra, HCElement

_X = ({(1, 0): C_ONE}, {(0, 0): C_ONE})
_Y = ({(1, 0): -C_I}, {(0, 0): C_I})
_Z = ({(0, 0): C_ONE}, {(1, 0): -C_ONE})
_I2 = ({(0, 0): C_ONE}, {(1, 0): C_ONE})


# the power k of each unit i**k
_UNIT_POWER = {_i_power(k): k for k in range(4)}


def _identity(n):
    return [{(i, 0): C_ONE} for i in range(n)]


def _kron(a, b):
    """Kronecker product of two constant matrices."""
    nb = len(b)
    return [{(ca * nb + cb, 0): mul_coeff(u, v)
             for (ca, _), u in ra.items() for (cb, _), v in rb.items()}
            for ra in a for rb in b]


def _mat_mul_coeff(a, b):
    """The product of two matrices: an entry v at (k, e1) of a row of `a`
    and an entry u at (j, e2) of row k of `b` add mul_coeff(v, u) at
    (j, e1 + e2)."""
    out = []
    for row in a:
        acc = {}
        for (k, e1), v in row.items():
            add_into(acc, (((j, e1 + e2), mul_coeff(v, u))
                           for (j, e2), u in b[k].items()))
        out.append(acc)
    return out


def _mat_sum(a, b):
    return [add_into(dict(ra), rb.items()) for ra, rb in zip(a, b)]


def _conj_t(rows, ncols):
    """The conjugate transpose of a matrix with `ncols` columns: the entry
    at (col, e) of row r moves to (r, e) of row col, conjugated."""
    out = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for (c, e), v in row.items():
            out[c][r, e] = v.conj_i()
    return out


def spinor_matrices(d):
    """Exact matrices for e_1..e_d of size 2^{floor(d/2)} over Q(i)."""
    k = d // 2
    mats = []
    for i in range(k):
        for pauli in (_X, _Y):
            m = _identity(1)
            for f in [_Z] * i + [pauli] + [_I2] * (k - i - 1):
                m = _kron(m, f)
            mats.append(m)
    if d % 2 == 1:
        prod = _identity(1 << k)
        for m in mats:
            prod = _mat_mul_coeff(prod, m)
        mats.append([{key: v.mul_i_power(k) for key, v in row.items()}
                     for row in prod])
    return mats


def monomial_basis(d, degree):
    """Exponent tuples of total degree `degree`, graded-lex descending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], degree, d)
    return out


class SpinorRep:
    """Representation context for one HCAlgebra: its bases, its spinor
    matrices and the memos of `word` and `_spin_entries`."""

    def __init__(self, alg: HCAlgebra):
        self.alg = alg
        self.d = alg.dim
        self.spin = spinor_matrices(self.d)
        self.spin_dim = 1 << (self.d // 2)
        self._bases = {}
        self._words = {}
        self._spin = {}

    def basis(self, degree):
        b = self._bases.get(degree)
        if b is None:
            b = monomial_basis(self.d, degree)
            self._bases[degree] = b
        return b

    def dim(self, degree):
        return len(self.basis(degree)) * self.spin_dim

    def _spin_entries(self, mask):
        """Nonzero entries (row, col, k) of the spinor matrix of e_mask,
        each entry being i**k; memoised per mask.

        A product of the e_j matrices is monomial: one unit i^k per row,
        which `matrix_of` applies without a field product.
        """
        out = self._spin.get(mask)
        if out is not None:
            return out
        m = _identity(self.spin_dim)
        for j in range(self.d):
            if mask & (1 << j):
                m = _mat_mul_coeff(m, self.spin[j])
        out = [(si, sj, _UNIT_POWER[v])
               for si, row in enumerate(m) for (sj, _e), v in row.items()]
        self._spin[mask] = out
        return out

    def word(self, yexp, xexp):
        """y^yexp x^xexp acting on 1, as {(monomial, e): Coeff}.

        Memoised per rep; callers must not mutate the result.  As in
        `HAlgebra.straighten`, y_i of the first nonzero slot i acts first,
        through the commutator [y_i, x^xexp], whose terms are summed over
        w because each w acts on 1 as 1; the rest of the word then acts
        on each resulting monomial, so all of y_1 acts before y_2.
        """
        out = self._words.get((yexp, xexp))
        if out is not None:
            return out
        share = self.alg.h._shared.setdefault
        yexp, xexp = share(yexp, yexp), share(xexp, xexp)
        if not any(yexp):
            out = {(xexp, 0): C_ONE}
        else:
            i = next(k for k, v in enumerate(yexp) if v)
            rest = yexp[:i] + (yexp[i] - 1,) + yexp[i + 1:]
            first = {}
            for (m, _g), u in self.alg.h.ycomm(i, xexp).items():
                add_into(first, (((m, e), c) for e, c in u.terms.items()))
            out = {}
            for (m, e1), u in first.items():
                add_into(out, (((m2, e1 + e2), mul_coeff(u, v))
                               for (m2, e2), v in self.word(rest, m).items()))
        out = {share(k, k): share(v, v) for k, v in out.items()}
        self._words[yexp, xexp] = out
        return out

    def matrix_of(self, elem: HCElement, degree):
        """Matrix of `elem` from C[V]_degree (x) S to the shifted degree.

        All terms must shift the polynomial degree by the same amount;
        raises ValueError otherwise.  Returns (rows, out_degree).

        The terms are grouped by their polynomial part x^a y^b w.  For
        each group and source monomial x^c, w substitutes, the Dunkl word
        y^b acts (one `word` read) and x^a multiplies; each (mask, e,
        Coeff) of the group then adds its multiple of the result into
        that mask's sparse {(row, col, e): Coeff} map.  Each mask's
        spinor entries i^k are applied once, as the rows are filled.
        """
        groups = self._groups(elem)
        shifts = {sum(a) - sum(b) for (a, b, _g) in groups}
        if len(shifts) > 1:
            raise ValueError(f"degree-inhomogeneous element: shifts {sorted(shifts)}")
        shift = shifts.pop() if shifts else 0
        out_degree = degree + shift
        if out_degree < 0:
            out_degree = 0
        src = self.basis(degree)
        dst = self.basis(out_degree)
        dst_index = {m: i for i, m in enumerate(dst)}
        elems = self.alg.h._elems
        accs = {}
        for (a, b, g), masks in groups.items():
            ge = elems[g]
            for ci, mono in enumerate(src):
                img, sgn = ge.apply_exp(mono)
                rows = []
                for (m, e), v in self.word(b, img).items():
                    ri = dst_index.get(tuple(p + q for p, q in zip(m, a)))
                    if ri is None:
                        raise AssertionError("degree bookkeeping failure")
                    rows.append((ri, e, v))
                for mask, e1, coeff in masks:
                    if sgn < 0:
                        coeff = -coeff
                    add_into(accs.setdefault(mask, {}),
                             (((ri, ci, e1 + e2), mul_coeff(coeff, v))
                              for ri, e2, v in rows))
        sd = self.spin_dim
        fill = [[] for _ in range(len(dst) * sd)]
        for mask, acc in accs.items():
            spin = self._spin_entries(mask)
            for (r, c, e), v in acc.items():
                r *= sd
                c *= sd
                for si, sj, k in spin:
                    fill[r + si].append(((c + sj, e), v.mul_i_power(k)))
        return [add_into({}, pairs) for pairs in fill], out_degree

    def _groups(self, elem):
        """The flat terms of an HCElement as {(a, b, g): [(mask, e,
        Coeff)]}."""
        out = {}
        for (a, b, g, mask, e), c in elem.terms.items():
            out.setdefault((a, b, g), []).append((mask, e, c))
        return out

    def matrix_of_coeff(self, elem, degree):
        """`matrix_of` as dense rows of Coeff, in a rational context.

        Raises ValueError("not a constant scalar") in any other context.
        """
        if not self.alg.h.rational:
            raise ValueError("not a constant scalar")
        rows, out_degree = self.matrix_of(elem, degree)
        if any(e for row in rows for _c, e in row):
            raise ValueError("not a constant scalar")
        dense = [[C_ZERO] * self.dim(degree) for _ in rows]
        for line, row in zip(dense, rows):
            for (c, _e), v in row.items():
                line[c] = v
        return dense, out_degree


# -- exact linear algebra over Coeff ----------------------------------------

def _rref(rows):
    """Sparse Gauss-Jordan elimination of Coeff rows, dense or {col: Coeff}.

    The reduced rows are built one input row at a time.  Each row is
    reduced against the pivot rows so far, which have a 1 in their own
    pivot column and zeros in the others; a nonzero remainder takes its
    first column as a new pivot, is normalised, and is eliminated from
    the earlier pivot rows.  Returns (pivots, det): `pivots` maps each
    pivot column to its row {col: Coeff} of the reduced row echelon
    form, and `det`, for a square matrix, is its determinant: the sign
    of the permutation row -> pivot column times the product of the
    pivots taken before normalisation, or zero when a row reduces to
    zero.
    """
    pivots = {}
    det = C_ONE
    for row in rows:
        if not isinstance(row, dict):
            row = {c: v for c, v in enumerate(row) if not v.is_zero()}
        r = dict(row)
        for p, f in row.items():
            prow = pivots.get(p)
            if prow is not None:
                f = -f
                add_into(r, ((c, f * v) for c, v in prow.items()))
        if not r:
            det = C_ZERO
            continue
        col = min(r)
        piv = r[col]
        det = det * piv
        if sum(q > col for q in pivots) % 2:
            det = -det
        inv = piv.inv()
        r = {c: v * inv for c, v in r.items()}
        for prow in pivots.values():
            f = prow.get(col)
            if f is not None:
                f = -f
                add_into(prow, ((c, f * v) for c, v in r.items()))
        pivots[col] = r
    return pivots, det


def rank_coeff(rows):
    """Rank of Coeff rows, dense lists or {col: Coeff} dicts."""
    return len(_rref(rows)[0])


def kernel_basis_coeff(mat):
    """Basis of the right kernel of a Coeff matrix (rows x cols)."""
    if not mat:
        return []
    pivots = _rref(mat)[0]
    ncols = len(mat[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [C_ZERO] * ncols
        vec[fc] = C_ONE
        for pc, row in pivots.items():
            vec[pc] = -row.get(fc, C_ZERO)
        basis.append(vec)
    return basis


def image_basis_coeff(mat):
    """Basis of the column space, as {row index: Coeff} vectors."""
    # the nonzero rows of the row-reduced transpose
    pivots = _rref(zip(*mat))[0]
    return [pivots[c] for c in sorted(pivots)]


def intersection_dim(basis_a, basis_b):
    """dim(span A intersect span B) over Q(i, sqrt2), for bases A and B."""
    if not basis_a or not basis_b:
        return 0
    return len(basis_a) + len(basis_b) - rank_coeff(basis_a + basis_b)


def cohomology_dims(rep: SpinorRep, d_omega: HCElement, degrees):
    """Per-degree (dim X_k, dim ker, dim ker∩im, dim H) for D_omega.

    Requires a rational context (Coeff matrix entries); D_omega must
    preserve each degree.
    """
    out = []
    for k in degrees:
        mat, out_deg = rep.matrix_of_coeff(d_omega, k)
        if out_deg != k:
            raise ValueError("operator does not preserve the degree")
        ker = kernel_basis_coeff(mat)
        both = 0
        if ker:
            both = intersection_dim(ker, image_basis_coeff(mat))
        out.append({
            "degree": k,
            "dim": rep.dim(k),
            "ker": len(ker),
            "ker_cap_im": both,
            "cohomology": len(ker) - both,
        })
    return out


# -- bullet-Hermitian form ---------------------------------------------------

class HermitianForm:
    """Fischer-type pairing on C[V] tensored with a spinor form.

    <x^a, x^b> is the constant term of the Dunkl operator word y^a applied
    to x^b (zero unless a = b at c = 0; generally supported on equal
    degrees).  The spinor factor is diagonal: the identity for odd d, and
    for even d = 2k the chirality matrix Z^{(x)k}, whose sign at spinor
    index i is (-1)^popcount(i); it makes every e_j exactly
    skew-adjoint.  For odd d no such matrix exists and the e_j checks are
    reported as failing.  Gram matrices have the flat form of every
    matrix here.
    """

    def __init__(self, rep: SpinorRep):
        self.rep = rep
        even = rep.d % 2 == 0
        self.spin_signs = [-1 if even and i.bit_count() % 2 else 1
                           for i in range(rep.spin_dim)]

    def gram(self, degree):
        """Gram matrix on C[V]_degree (x) S, built on each call."""
        rep = self.rep
        basis = rep.basis(degree)
        sd = rep.spin_dim
        rows = []
        for a in basis:
            pairs = [self._pair(a, b) for b in basis]
            for si, sign in enumerate(self.spin_signs):
                rows.append({(j * sd + si, e): v if sign > 0 else -v
                             for j, pair in enumerate(pairs)
                             for e, v in pair.items()})
        return rows

    def _pair(self, aexp, bexp):
        """Constant term of the Dunkl word y^a applied to x^b, as
        {e: Coeff}."""
        zero = self.rep.alg.h.zero_exp
        return {e: v for (m, e), v in self.rep.word(aexp, bexp).items()
                if m == zero}

    def adjointness_check(self, degree):
        """Per-generator report of G pi(eta) = pi(eta_bullet)^{conj T} G.

        Degree-shifting generators x_i, y_i are checked between degrees
        `degree` and `degree`+1.
        """
        rep = self.rep
        alg = rep.alg
        n = rep.dim(degree)
        res = {}
        Gk = self.gram(degree)
        Gk1 = self.gram(degree + 1)
        # Hermitianity of the Gram matrix itself (makes the y_i condition
        # the conjugate transpose of the x_i condition)
        res["gram_hermitian"] = (_conj_t(Gk, n) == Gk
                                 and _conj_t(Gk1, rep.dim(degree + 1)) == Gk1)
        for i in range(1, rep.d + 1):
            Px, _ = rep.matrix_of(alg.x(i), degree)
            Py, _ = rep.matrix_of(alg.y(i), degree + 1)
            # <x_i u, v> = <u, y_i v>: conj(Px)^T G_{k+1} = G_k Py
            lhs = _mat_mul_coeff(_conj_t(Px, n), Gk1)
            res[f"x{i}"] = lhs == _mat_mul_coeff(Gk, Py)
        for r_idx in range(len(alg.rd.positive_roots)):
            g = alg.group(alg.rd.reflection_index(r_idx))
            Pg, _ = rep.matrix_of(g, degree)
            lhs = _mat_mul_coeff(_conj_t(Pg, n), Gk)
            # s_alpha bullet = s_alpha^{-1} = s_alpha
            res[f"s_{r_idx}"] = lhs == _mat_mul_coeff(Gk, Pg)
        for j in range(1, rep.d + 1):
            Pe, _ = rep.matrix_of(alg.e(j), degree)
            lhs = _mat_mul_coeff(_conj_t(Pe, n), Gk)
            # e_j bullet = -e_j
            res[f"e{j}"] = not any(_mat_sum(lhs, _mat_mul_coeff(Gk, Pe)))
        return res

    def leading_minor_signs(self, degree, s_value, c_values):
        """Signs of leading principal minors of G at a specialisation point.

        `s_value` is a Coeff (e.g. sqrt2, giving t = 1) and `c_values` the
        rational orbit parameters; they are substituted into each term of
        a symbolic Gram matrix, read as a Scalar.  In a rational context
        the Gram matrix is already constant and the signs are those at
        the context's own parameters.  Gram entries depend on s only
        through t = s^2/2, so the result must be rational; a non-rational
        entry raises.
        """
        alg = self.rep.alg
        nvars = alg.field.nvars
        rational = alg.h.rational
        if not rational:
            from fractions import Fraction
            point = (Fraction(0),) + tuple(Fraction(v) for v in c_values)
            if len(point) != nvars:
                raise ValueError("wrong number of orbit parameters")

        def value(e, v):
            sc = Scalar({e: v}, nvars)
            if not rational:
                sc = sc.substitute_s(s_value).substitute(point)
            return sc.constant_value()
        G = [add_into({}, ((c, value(e, v)) for (c, e), v in row.items()))
             for row in self.gram(degree)]
        if not all(v.is_rational() for row in G for v in row.values()):
            raise ValueError("non-rational Gram entry at this point")
        signs = []
        for k in range(1, len(G) + 1):
            det = _rref([{c: v for c, v in r.items() if c < k}
                         for r in G[:k]])[1].a
            signs.append(0 if det == 0 else (1 if det > 0 else -1))
        return signs
