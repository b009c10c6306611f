"""Degree-truncated polynomial-spinor representation of H_{t,c} (x) C(V).

The module X = C[V] (x) S carries: x_i by multiplication, y_i by the Dunkl
operator, w by (signed) substitution, and e_j by exact spinor matrices of
size 2^{floor(d/2)} built from the standard tensor-product construction
(two anticommuting real involutions and their i-scaled product; odd d adds
the i^k-scaled product of all even-dimension generators).

Matrices are returned dense as lists of lists, row-major, acting on
column vectors indexed by (monomial, spinor) pairs with monomials in
graded-lex order.  One sparse assembly builds them: the spinor matrix of
each Clifford mask is monomial (one unit i^k per row), so only its
nonzero entries are visited, and entries accumulate through
`sparse.add_into` in a {(row, col): value} map that is densified once.
`matrix_of` assembles over Scalar; `matrix_of_coeff` runs the same
assembly over Coeff for rational specialisations, converting each
scalar of the algebra with `constant_value()`, and never builds a
Scalar matrix.  One exact row
reduction, `_rref`, serves `rank_coeff`, `kernel_basis_coeff` and
`image_basis_coeff`, and through `rank_coeff` the rank check of
`admissible.linearly_independent`; it skips zero entries in its row
operations.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, C_ONE, C_ZERO, C_I, _i_power
from .sparse import add_into
from .hc import HCAlgebra, HCElement

_X = ((C_ZERO, C_ONE), (C_ONE, C_ZERO))
_Y = ((C_ZERO, -C_I), (C_I, C_ZERO))
_Z = ((C_ONE, C_ZERO), (C_ZERO, -C_ONE))
_I2 = ((C_ONE, C_ZERO), (C_ZERO, C_ONE))


def _kron(a, b):
    na, nb = len(a), len(b)
    return tuple(
        tuple(a[i // nb][j // nb] * b[i % nb][j % nb]
              for j in range(na * nb))
        for i in range(na * nb)
    )


def _mat_mul_coeff(a, b):
    n = len(a)
    return tuple(
        tuple(_sum_c(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_mul_scalar(a, b, zero):
    """Dense product of Scalar matrices; zero factors are skipped."""
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for k, v in enumerate(row):
            if v.is_zero():
                continue
            for j, u in enumerate(b[k]):
                if not u.is_zero():
                    acc[j] = acc[j] + v * u
        out.append(acc)
    return out


def _sum_c(it):
    acc = C_ZERO
    for v in it:
        acc = acc + v
    return acc


def spinor_matrices(d):
    """Exact matrices for e_1..e_d of size 2^{floor(d/2)} over Q(i)."""
    k = d // 2
    size_factors = [_I2] * k
    mats = []
    for i in range(k):
        for pauli in (_X, _Y):
            fac = [_Z] * i + [pauli] + [_I2] * (k - i - 1)
            m = fac[0]
            for f in fac[1:]:
                m = _kron(m, f)
            mats.append(m)
    if d % 2 == 1:
        if k == 0:
            mats.append(((C_ONE,),))
        else:
            prod = mats[0]
            for m in mats[1:]:
                prod = _mat_mul_coeff(prod, m)
            phase = _i_power(k)
            mats.append(tuple(tuple(phase * v for v in row) for row in prod))
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
    """Representation context for one HCAlgebra."""

    def __init__(self, alg: HCAlgebra):
        self.alg = alg
        self.d = alg.dim
        self.spin = spinor_matrices(self.d)
        self.spin_dim = 1 << (self.d // 2)
        self._bases = {}

    def basis(self, degree):
        b = self._bases.get(degree)
        if b is None:
            b = monomial_basis(self.d, degree)
            self._bases[degree] = b
        return b

    def dim(self, degree):
        return len(self.basis(degree)) * self.spin_dim

    def _spin_entries(self, mask):
        """Nonzero entries (row, col, i^k) of the spinor matrix of e_mask.

        A product of the e_j matrices is monomial: one unit i^k per row.
        """
        m = None
        for j in range(self.d):
            if mask & (1 << j):
                m = self.spin[j] if m is None else _mat_mul_coeff(m, self.spin[j])
        if m is None:
            return [(i, i, C_ONE) for i in range(self.spin_dim)]
        return [(si, sj, v) for si, row in enumerate(m)
                for sj, v in enumerate(row) if not v.is_zero()]

    def _apply_poly_part(self, xexp, yexp, g_idx, mono, one, value):
        """Action of x^a y^b w on the monomial x^mono.

        Returns {result_monomial: entry}, entries in the ring of `one`
        (see `_assemble`); w substitutes, y^b applies Dunkl operators, x^a
        multiplies.
        """
        img, sgn = self.alg.h._elems[g_idx].apply_exp(mono)
        polys = _dunkl_word(self.alg.h, yexp,
                           {img: one if sgn > 0 else -one}, value)
        if any(xexp):
            polys = {tuple(a + b for a, b in zip(e, xexp)): v
                     for e, v in polys.items()}
        return polys

    def _assemble(self, elem, degree, lift, value):
        """Matrix of `elem` with entries in one ring: Scalar or Coeff.

        `lift` embeds a Coeff (a spinor entry) into that ring and `value`
        maps a Scalar of the algebra into it.  Entries are accumulated
        sparsely, visiting only the nonzero spinor entries, and the
        matrix is densified once.
        """
        shifts = {sum(a) - sum(b) for (a, b, _g, _m) in elem.terms}
        if len(shifts) > 1:
            raise ValueError(f"degree-inhomogeneous element: shifts {sorted(shifts)}")
        shift = shifts.pop() if shifts else 0
        out_degree = degree + shift
        if out_degree < 0:
            out_degree = 0
        src = self.basis(degree)
        dst = self.basis(out_degree)
        dst_index = {m: i for i, m in enumerate(dst)}
        sd = self.spin_dim
        one = lift(C_ONE)
        acc = {}
        for (a, b, g, mask), coeff in elem.terms.items():
            coeff = value(coeff)
            spin = [(si, sj, lift(v)) for si, sj, v in self._spin_entries(mask)]
            for ci, mono in enumerate(src):
                for e, v in self._apply_poly_part(a, b, g, mono, one,
                                                  value).items():
                    ri = dst_index.get(e)
                    if ri is None:
                        raise AssertionError("degree bookkeeping failure")
                    cv = coeff * v
                    add_into(acc, (((ri * sd + si, ci * sd + sj), cv * u)
                                   for si, sj, u in spin))
        zero = lift(C_ZERO)
        mat = [[zero] * (len(src) * sd) for _ in range(len(dst) * sd)]
        for (r, c), v in acc.items():
            mat[r][c] = v
        return mat, out_degree

    def matrix_of(self, elem: HCElement, degree):
        """Matrix of `elem` from C[V]_degree (x) S to the shifted degree.

        All terms must shift the polynomial degree by the same amount;
        raises ValueError otherwise.  Returns (matrix, out_degree) with
        Scalar entries.
        """
        nvars = self.alg.field.nvars
        return self._assemble(elem, degree,
                              lambda cf: Scalar.from_coeff(cf, nvars), _same)

    def matrix_of_coeff(self, elem, degree):
        """matrix_of with Coeff entries; every scalar must be constant."""
        return self._assemble(elem, degree, _same, Scalar.constant_value)


def _same(v):
    return v


def _dunkl_word(h, yexp, polys, value=_same):
    """Apply the Dunkl operators y^yexp to the polynomial {xexp: entry}.

    Each y_i acts through the memoised commutator [y_i, x^e] of `h`;
    `value` maps its Scalar coefficients into the ring of the entries.
    """
    for i in range(h.dim):
        for _ in range(yexp[i]):
            polys = add_into({}, ((e2, v * value(u))
                                  for e, v in polys.items()
                                  for (e2, _g), u in h.ycomm(i, e).items()))
            if not polys:
                return polys
    return polys


# -- exact linear algebra over Coeff ----------------------------------------

def _rref(rows):
    """Reduced row echelon form of a Coeff matrix, on a copy.

    Returns (rows, pivots): pivot row r has a 1 in column pivots[r] and
    zeros in the other pivot columns; the rows after len(pivots) are zero.
    """
    m = [list(r) for r in rows]
    if not m:
        return m, []
    pivots = []
    for col in range(len(m[0])):
        rank = len(pivots)
        piv = None
        for r in range(rank, len(m)):
            if not m[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col].inv()
        m[rank] = [v * inv if v else v for v in m[rank]]
        for r in range(len(m)):
            if r != rank and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [a - f * b if b else a for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots


def rank_coeff(rows):
    """Rank of a list-of-lists Coeff matrix."""
    return len(_rref(rows)[1])


def kernel_basis_coeff(mat):
    """Basis of the right kernel of a Coeff matrix (rows x cols)."""
    if not mat:
        return []
    m, pivots = _rref(mat)
    ncols = len(mat[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [C_ZERO] * ncols
        vec[fc] = C_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def image_basis_coeff(mat):
    """Basis of the column space (as vectors)."""
    if not mat:
        return []
    # the nonzero rows of the row-reduced transpose
    m, pivots = _rref(list(map(list, zip(*mat))))
    return m[:len(pivots)]


def intersection_dim(basis_a, basis_b):
    """dim(span A intersect span B) over Q(i, sqrt2), for bases A and B."""
    if not basis_a or not basis_b:
        return 0
    return len(basis_a) + len(basis_b) - rank_coeff(basis_a + basis_b)


def cohomology_dims(rep: SpinorRep, d_omega: HCElement, degrees):
    """Per-degree (dim X_k, dim ker, dim ker∩im, dim H) for D_omega.

    Requires a rational specialisation (constant matrix entries); D_omega
    must preserve each degree.
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
    degrees).  The spinor factor is the identity for odd d and the
    chirality matrix Z^{(x)k} for even d = 2k, which makes every e_j
    exactly skew-adjoint; for odd d no such matrix exists and the e_j
    checks are reported as failing.
    """

    def __init__(self, rep: SpinorRep):
        self.rep = rep
        d = rep.d
        if d % 2 == 0 and d > 0:
            fac = [_Z] * (d // 2)
            m = fac[0] if fac else ((C_ONE,),)
            for f in fac[1:]:
                m = _kron(m, f)
            self.spin_form = m
        else:
            n = rep.spin_dim
            self.spin_form = tuple(
                tuple(C_ONE if i == j else C_ZERO for j in range(n))
                for i in range(n))
        self._gram = {}

    def gram(self, degree):
        """Gram matrix on C[V]_degree (x) S over Scalar entries."""
        g = self._gram.get(degree)
        if g is not None:
            return g
        rep = self.rep
        alg = rep.alg
        F = alg.field
        basis = rep.basis(degree)
        n = len(basis)
        poly_g = [[F.zero] * n for _ in range(n)]
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                poly_g[i][j] = self._pair(a, b)
        sd = rep.spin_dim
        out = [[F.zero] * (n * sd) for _ in range(n * sd)]
        for i in range(n):
            for j in range(n):
                v = poly_g[i][j]
                if v.is_zero():
                    continue
                for si in range(sd):
                    for sj in range(sd):
                        sf = self.spin_form[si][sj]
                        if sf.is_zero():
                            continue
                        out[i * sd + si][j * sd + sj] = (
                            v * Scalar.from_coeff(sf, F.nvars))
        self._gram[degree] = out
        return out

    def _pair(self, aexp, bexp):
        """Constant term of the Dunkl word y^a applied to x^b."""
        F = self.rep.alg.field
        polys = _dunkl_word(self.rep.alg.h, aexp, {tuple(bexp): F.one})
        return polys.get((0,) * self.rep.d, F.zero)

    def adjointness_check(self, degree):
        """Per-generator report of G pi(eta) = pi(eta_bullet)^{conj T} G.

        Degree-shifting generators x_i, y_i are checked between degrees
        `degree` and `degree`+1.
        """
        rep = self.rep
        alg = rep.alg
        F = alg.field
        res = {}

        def conj_t(mat):
            if not mat:
                return []
            return [[mat[j][i].conjugate() for j in range(len(mat))]
                    for i in range(len(mat[0]))]

        def mm(a, b):
            return _mat_mul_scalar(a, b, F.zero)

        Gk = self.gram(degree)
        Gk1 = self.gram(degree + 1)
        # Hermitianity of the Gram matrix itself (makes the y_i condition
        # the conjugate transpose of the x_i condition)
        res["gram_hermitian"] = conj_t(Gk) == Gk and conj_t(Gk1) == Gk1
        for i in range(1, rep.d + 1):
            Px, _ = rep.matrix_of(alg.x(i), degree)
            Py, _ = rep.matrix_of(alg.y(i), degree + 1)
            # <x_i u, v> = <u, y_i v>: conj(Px)^T G_{k+1} = G_k Py
            lhs = mm(conj_t(Px), Gk1)
            rhs = mm(Gk, Py)
            res[f"x{i}"] = lhs == rhs
        for r_idx in range(len(alg.rd.positive_roots)):
            g = alg.group(alg.rd.reflection_index(r_idx))
            Pg, _ = rep.matrix_of(g, degree)
            lhs = mm(conj_t(Pg), Gk)
            rhs = mm(Gk, Pg)     # s_alpha bullet = s_alpha^{-1} = s_alpha
            res[f"s_{r_idx}"] = lhs == rhs
        for j in range(1, rep.d + 1):
            Pe, _ = rep.matrix_of(alg.e(j), degree)
            lhs = mm(conj_t(Pe), Gk)
            rhs = mm(Gk, [[-v for v in row] for row in Pe])  # e_j bullet = -e_j
            res[f"e{j}"] = lhs == rhs
        return res

    def leading_minor_signs(self, degree, s_value, c_values):
        """Signs of leading principal minors of G at a specialisation point.

        `s_value` is a Coeff (e.g. sqrt2, giving t = 1) and `c_values` the
        rational orbit parameters.  Gram entries depend on s only through
        t = s^2/2, so the result must be rational; a non-rational entry
        raises.
        """
        G = self.gram(degree)
        n = len(G)
        nv = self.rep.alg.field.nvars
        point = (Fraction(0),) + tuple(Fraction(v) for v in c_values)
        if len(point) != nv:
            raise ValueError("wrong number of orbit parameters")
        num = []
        for row in G:
            rr = []
            for v in row:
                cv = v.substitute_s(s_value).substitute(point).constant_value()
                if not (cv.b == 0 and cv.c == 0 and cv.d == 0):
                    raise ValueError("non-rational Gram entry at this point")
                rr.append(cv.a)
            num.append(rr)
        signs = []
        for k in range(1, n + 1):
            det = _det_fraction([r[:k] for r in num[:k]])
            signs.append(0 if det == 0 else (1 if det > 0 else -1))
        return signs


def _det_fraction(m):
    """Exact determinant of a Fraction matrix by fraction-free elimination."""
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det
