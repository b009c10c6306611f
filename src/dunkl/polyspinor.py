"""Degree-truncated polynomial-spinor representation of H_{t,c} (x) C(V).

The module X = C[V] (x) S carries: x_i by multiplication, y_i by the Dunkl
operator, w by (signed) substitution, and e_j by exact spinor matrices of
size 2^{floor(d/2)} built from the standard tensor-product construction
(two anticommuting real involutions and their i-scaled product; odd d adds
the i^k-scaled product of all even-dimension generators).

Matrices are returned dense as lists of lists, row-major, acting on
column vectors indexed by (monomial, spinor) pairs with monomials in
graded-lex order.  `SpinorRep` fixes their entry ring once per context:
Coeff when every parameter is rational, Scalar otherwise.  One sparse
assembly, `matrix_of`, builds them from two per-rep memos.  It groups an
element's terms by their polynomial part x^a y^b w and, per group and
source monomial, reads `SpinorRep.word` once: the Dunkl word y^b x^e
acting on 1, computed once per (b, e) and shared with the Gram matrices
of `HermitianForm`; it is the one place a Dunkl word is applied, and it
sums the commutator's terms over w before the rest of the word acts,
since each w acts on 1 as 1.  Its entries, exponent tuples, keys and
monomials are stored through the algebra's `_shared`, one object per
distinct value (the words of a run take few values, as `HAlgebra`'s
memos do).  Each (mask, entry) of the group adds its multiple of that
word into the mask's own {(row, col): value} map through
`sparse.add_into`.  The spinor matrix of each Clifford mask is monomial (one unit i^k per row); its nonzero entries are kept once per
mask as the powers k, and are applied once per mask as the dense matrix
is filled.  No spinor entry makes a field product: 1 and -1 keep or
negate the value they meet, and +-i swaps its real and i parts with a
sign (`mul_i_power`).  An element's terms are read flat, as Coeffs, in
a rational context, and grouped into Scalars (`HCElement.scalars`)
otherwise.  `matrix_of_coeff` is `matrix_of` guarded to rational
contexts.  `_mat_mul_coeff` is the one matrix product, over Coeff or
Scalar, and skips zero factors.

One exact elimination, `_rref`, a sparse Gauss-Jordan reduction on
{col: Coeff} rows, serves `rank_coeff`, `kernel_basis_coeff`,
`image_basis_coeff`, `intersection_dim`, the leading minors of
`HermitianForm.leading_minor_signs` through the determinant it returns,
and through `rank_coeff` the rank check of
`admissible.linearly_independent`, which passes its sparse vectors as
they are.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .scalars import Scalar, C_ONE, C_ZERO, C_I, _i_power, mul_coeff
from .sparse import add_into
from .hc import HCAlgebra, HCElement

_X = ((C_ZERO, C_ONE), (C_ONE, C_ZERO))
_Y = ((C_ZERO, -C_I), (C_I, C_ZERO))
_Z = ((C_ONE, C_ZERO), (C_ZERO, -C_ONE))
_I2 = ((C_ONE, C_ZERO), (C_ZERO, C_ONE))


# the power k of each unit i**k
_UNIT_POWER = {_i_power(k): k for k in range(4)}


def _kron(a, b):
    na, nb = len(a), len(b)
    return tuple(
        tuple(a[i // nb][j // nb] * b[i % nb][j % nb]
              for j in range(na * nb))
        for i in range(na * nb)
    )


def _mat_mul_coeff(a, b, zero=C_ZERO):
    """Dense product of Coeff or Scalar matrices as list rows.

    Zero factors are skipped; `zero` is the zero of the entries' ring
    (`F.zero` for Scalar matrices).
    """
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


def spinor_matrices(d):
    """Exact matrices for e_1..e_d of size 2^{floor(d/2)} over Q(i)."""
    k = d // 2
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
    """Representation context for one HCAlgebra.

    The entry ring of every matrix is decided here, once: Coeff when s
    and every c_k are rational (`HAlgebra.rational`), Scalar otherwise.
    `value` maps a Scalar of the algebra into that ring; `zero` and
    `one` are its units, and `mul` its product, which makes no field
    product for a factor 1 or -1.
    """

    def __init__(self, alg: HCAlgebra):
        self.alg = alg
        self.d = alg.dim
        self.spin = spinor_matrices(self.d)
        self.spin_dim = 1 << (self.d // 2)
        self._bases = {}
        self._words = {}
        self._spin = {}
        if alg.h.rational:
            self.value, self.mul = Scalar.constant_value, mul_coeff
            self.zero, self.one = C_ZERO, C_ONE
        else:
            self.value, self.mul = _same, operator.mul
            self.zero, self.one = alg.field.zero, alg.field.one

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
        m = None
        for j in range(self.d):
            if mask & (1 << j):
                m = self.spin[j] if m is None else _mat_mul_coeff(m, self.spin[j])
        if m is None:
            out = [(i, i, 0) for i in range(self.spin_dim)]
        else:
            out = [(si, sj, _UNIT_POWER[v])
                   for si, row in enumerate(m)
                   for sj, v in enumerate(row) if not v.is_zero()]
        self._spin[mask] = out
        return out

    def word(self, yexp, xexp):
        """y^yexp x^xexp acting on 1, as {monomial: entry} in the rep's ring.

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
            out = {xexp: self.one}
        else:
            i = next(k for k, v in enumerate(yexp) if v)
            rest = yexp[:i] + (yexp[i] - 1,) + yexp[i + 1:]
            value = self.value
            first = add_into({}, ((e, value(u)) for (e, _g), u
                                  in self.alg.h.ycomm(i, xexp).items()))
            out = {}
            mul = self.mul
            for e, u in first.items():
                add_into(out, ((e2, mul(u, v))
                               for e2, v in self.word(rest, e).items()))
        out = {share(e, e): share(v, v) for e, v in out.items()}
        self._words[yexp, xexp] = out
        return out

    def matrix_of(self, elem: HCElement, degree):
        """Matrix of `elem` from C[V]_degree (x) S to the shifted degree.

        All terms must shift the polynomial degree by the same amount;
        raises ValueError otherwise.  Returns (matrix, out_degree) with
        entries in the rep's ring.

        The terms are grouped by their polynomial part x^a y^b w.  For
        each group and source monomial x^c, w substitutes, the Dunkl word
        y^b acts (one `word` read) and x^a multiplies; each (mask, entry)
        of the group then adds its multiple of the result into that
        mask's sparse {(row, col): value} map.  Each mask's spinor
        entries i^k are applied once, as the dense matrix is filled.
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
        mul = self.mul
        accs = {}
        for (a, b, g), masks in groups.items():
            ge = elems[g]
            for ci, mono in enumerate(src):
                img, sgn = ge.apply_exp(mono)
                rows = []
                for e, v in self.word(b, img).items():
                    ri = dst_index.get(tuple(p + q for p, q in zip(e, a)))
                    if ri is None:
                        raise AssertionError("degree bookkeeping failure")
                    rows.append((ri, v))
                for mask, coeff in masks:
                    if sgn < 0:
                        coeff = -coeff
                    add_into(accs.setdefault(mask, {}),
                             (((ri, ci), mul(coeff, v)) for ri, v in rows))
        sd = self.spin_dim
        zero = self.zero
        mat = [[zero] * (len(src) * sd) for _ in range(len(dst) * sd)]
        for mask, acc in accs.items():
            spin = self._spin_entries(mask)
            for (r, c), v in acc.items():
                r *= sd
                c *= sd
                for si, sj, k in spin:
                    row = mat[r + si]
                    w = v.mul_i_power(k) if k else v
                    cur = row[c + sj]
                    row[c + sj] = w if cur is zero else cur + w
        return mat, out_degree

    def _groups(self, elem):
        """The terms of an HCElement as {(a, b, g): [(mask, entry)]} with
        entries in the rep's ring: its flat Coeffs in a rational context,
        where every exponent must be 0, and its grouped Scalars
        otherwise."""
        out = {}
        if self.alg.h.rational:
            if any(k[4] for k in elem.terms):
                raise ValueError("not a constant scalar")
            terms = ((k[:4], c) for k, c in elem.terms.items())
        else:
            terms = elem.scalars().items()
        for (a, b, g, mask), v in terms:
            out.setdefault((a, b, g), []).append((mask, v))
        return out

    def matrix_of_coeff(self, elem, degree):
        """`matrix_of`, whose entries are Coeff in a rational context.

        Raises ValueError("not a constant scalar") in any other context.
        """
        if not self.alg.h.rational:
            raise ValueError("not a constant scalar")
        return self.matrix_of(elem, degree)


def _same(v):
    return v


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
    reported as failing.  Gram matrices have entries in the rep's ring.
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
        out = [[rep.zero] * (len(basis) * sd) for _ in range(len(basis) * sd)]
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                v = self._pair(a, b)
                if v.is_zero():
                    continue
                for si, sign in enumerate(self.spin_signs):
                    out[i * sd + si][j * sd + si] = v if sign > 0 else -v
        return out

    def _pair(self, aexp, bexp):
        """Constant term of the Dunkl word y^a applied to x^b."""
        rep = self.rep
        return rep.word(aexp, bexp).get(rep.alg.h.zero_exp, rep.zero)

    def adjointness_check(self, degree):
        """Per-generator report of G pi(eta) = pi(eta_bullet)^{conj T} G.

        Degree-shifting generators x_i, y_i are checked between degrees
        `degree` and `degree`+1.
        """
        rep = self.rep
        alg = rep.alg
        res = {}

        def conj_t(mat):
            if not mat:
                return []
            return [[mat[j][i].conjugate() for j in range(len(mat))]
                    for i in range(len(mat[0]))]

        def mm(a, b):
            return _mat_mul_coeff(a, b, rep.zero)

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
        rational orbit parameters; they are substituted into a symbolic
        Gram matrix.  In a rational context the Gram matrix is already
        constant and the signs are those at the context's own parameters.
        Gram entries depend on s only through t = s^2/2, so the result
        must be rational; a non-rational entry raises.
        """
        G = self.gram(degree)
        if not self.rep.alg.h.rational:
            point = (Fraction(0),) + tuple(Fraction(v) for v in c_values)
            if len(point) != self.rep.alg.field.nvars:
                raise ValueError("wrong number of orbit parameters")
            G = [[v.substitute_s(s_value).substitute(point).constant_value()
                  for v in row] for row in G]
        if not all(v.is_rational() for row in G for v in row):
            raise ValueError("non-rational Gram entry at this point")
        signs = []
        for k in range(1, len(G) + 1):
            det = _rref([r[:k] for r in G[:k]])[1].a
            signs.append(0 if det == 0 else (1 if det > 0 else -1))
        return signs
