import random
from fractions import Fraction

import pytest

from dunkl.groups import GroupElement, RootDatum
from dunkl.cherednik import (DividedDifferenceError, HAlgebra, HElement,
                             dunkl_commutator, filtration_check, _bump)
from dunkl.scalars import C_ONE, Coeff, Scalar, mul_coeff, unit_sign
from dunkl.sparse import add_into
from dunkl.hc import HCAlgebra
from dunkl.polyspinor import monomial_basis


# basis elements of H, written by their keys (a, b, g)
def _x(h, j):
    return h.monomial(h._unit_exp(j), h.zero_exp, h.id_idx)


def _y(h, j):
    return h.monomial(h.zero_exp, h._unit_exp(j), h.id_idx)


def _g(h, g_idx):
    return h.monomial(h.zero_exp, h.zero_exp, g_idx)


def _sc(h, sc):
    return HElement(h, {(h.zero_exp, h.zero_exp, h.id_idx): sc})


def test_rank_one_commutator():
    # single sign flip on one coordinate: [y, x] = t - 2 c s
    rd = RootDatum("A1", 1, 1)
    h = HAlgebra(rd)
    res = _y(h, 1) * _x(h, 1) - _x(h, 1) * _y(h, 1)
    s_idx = rd.reflection_index(0)
    expect = (_sc(h, h.t)
              - _g(h, s_idx).scale(h.c_root[0] * h.field.rational(2)))
    assert res == expect


def test_dunkl_commutator_degree_two():
    # [y, x^2] = t*2x - c*( (x^2 - s(x^2))/alpha ) * ... ; oracle by hand
    # for the rank-one flip: (x^2 - x^2)/x = 0, so [y, x^2] = 2 t x exactly
    rd = RootDatum("A1", 1, 1)
    h = HAlgebra(rd)
    res = dunkl_commutator(h, 1, (2,))
    expect = _x(h, 1).scale(h.t * h.field.rational(2))
    assert res == expect


def test_dunkl_commutator_type_a():
    # [y_1, x_1 x_2] in the 2-coordinate transposition group:
    # t x_2 - c (x_1 x_2 - x_2 x_1)/(x_1 - x_2) s = t x_2 (division gives 0)
    rd = RootDatum("A", 1, 2)
    h = HAlgebra(rd)
    res = dunkl_commutator(h, 1, (1, 1))
    assert res == _x(h, 2).scale(h.t)
    # [y_1, x_1^2]: divided difference (x_1^2 - x_2^2)/(x_1 - x_2) = x_1 + x_2
    res2 = dunkl_commutator(h, 1, (2, 0))
    c = h.c_root[0]
    expect = (_x(h, 1).scale(h.t * h.field.rational(2))
              - (_x(h, 1) + _x(h, 2)).scale(c)
              * _g(h, rd.reflection_index(0)))
    assert res2 == expect


def test_pbw_associativity_spot():
    rd = RootDatum("A", 2, 3)
    h = HAlgebra(rd)
    rng = random.Random(7)
    gens = [_x(h, 1), _x(h, 2), _y(h, 1), _y(h, 3),
            _g(h, rd.reflection_index(0)),
            _g(h, rd.reflection_index(2))]
    for _ in range(15):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_group_relations_inside_h():
    rd = RootDatum("B", 2, 2)
    h = HAlgebra(rd)
    for r_idx in range(len(rd.positive_roots)):
        g = _g(h, rd.reflection_index(r_idx))
        assert g * g == _g(h, h.id_idx)


def test_group_conjugates_x_to_linear_combination():
    rd = RootDatum("A", 1, 2)
    h = HAlgebra(rd)
    g = _g(h, rd.reflection_index(0))       # swaps coordinates 1, 2
    assert g * _x(h, 1) == _x(h, 2) * g
    assert g * _y(h, 2) == _y(h, 1) * g


def test_star_is_anti_involution():
    rd = RootDatum("A1", 2, 2)
    h = HAlgebra(rd)
    a = _x(h, 1) * _y(h, 2) + _g(h, rd.reflection_index(0)).scale(h.field.i)
    b = _y(h, 1) * _x(h, 1) + _x(h, 2)
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a
    # conjugate-linear: (i a)^* = -i a^*
    assert a.scale(h.field.i).star() == a.star().scale(-h.field.i)


def test_star_swaps_x_and_y():
    rd = RootDatum("A1", 1, 1)
    h = HAlgebra(rd)
    assert _x(h, 1).star() == _y(h, 1)
    assert _y(h, 1).star() == _x(h, 1)


def test_specialized_algebra_matches_substitution():
    rd = RootDatum("A1", 2, 2)
    spec = {"s": Fraction(2), "c1": Fraction(1, 3), "c2": Fraction(1, 5)}
    hs = HAlgebra(rd, specialize=spec)
    h = HAlgebra(rd)
    sym = _y(h, 1) * _x(h, 1)
    num = _y(hs, 1) * _x(hs, 1)
    point = (spec["s"], spec["c1"], spec["c2"])
    for key, v in sym.terms.items():
        assert num.terms[key] == v.substitute(point)


def test_filtration_check_examples():
    rd = RootDatum("A", 2, 3)
    h = HAlgebra(rd)
    xi = h.monomial((1, 1, 0), (0, 0, 0), h.id_idx)
    eta = h.monomial((0, 0, 0), (1, 0, 1), h.id_idx)
    assert filtration_check(h, xi, eta)


def test_filtration_random_pairs():
    rd = RootDatum("A1", 3, 3)
    h = HAlgebra(rd)
    rng = random.Random(11)
    for _ in range(25):
        def mono():
            xe = [0] * 3
            ye = [0] * 3
            for _ in range(rng.randint(0, 3)):
                (xe if rng.random() < 0.5 else ye)[rng.randrange(3)] += 1
            return h.monomial(tuple(xe), tuple(ye), h.id_idx)
        assert filtration_check(h, mono(), mono())


def _plant_commutator(monkeypatch, h, terms):
    """Make every HElement commutator the element {x^a: Scalar} given."""
    z = h.zero_exp
    planted = HElement(h, {(a, z, h.id_idx): v for a, v in terms.items()})
    monkeypatch.setattr(HElement, "commutator", lambda self, o: planted)


def test_filtration_check_fails_on_a_c_term_above_the_bound(monkeypatch):
    h = HAlgebra(RootDatum("A1", 2, 2))
    F = h.field
    s, c1 = F.s, F.cs[0]
    xi, eta = _x(h, 1), _y(h, 2)             # the degree bound is 1 + 1 - 2
    assert filtration_check(h, xi, eta)
    for terms, ok in (({(0, 0): c1 * s, (1, 0): s}, True),
                      ({(1, 0): s + c1}, False),
                      ({(0, 0): c1, (0, 1): c1 * F.cs[1] / s}, False)):
        _plant_commutator(monkeypatch, h, terms)
        assert filtration_check(h, xi, eta) is ok, terms


def test_filtration_check_refuses_c_in_a_denominator(monkeypatch):
    # setting c = 0 would divide by zero: no verdict, even beside a term
    # that fails the degree bound
    h = HAlgebra(RootDatum("A1", 2, 2))
    F = h.field
    c1 = F.cs[0]
    for terms in ({(0, 0): F.one / c1},
                  {(1, 0): c1, (0, 0): F.s + F.cs[1] / (F.s * c1)}):
        _plant_commutator(monkeypatch, h, terms)
        with pytest.raises(ZeroDivisionError):
            filtration_check(h, _x(h, 1), _y(h, 2))


# -- the term_mul memo ----------------------------------------------------------

_SPEC_B2 = {"s": Fraction(2), "c1": Fraction(1, 3), "c2": Fraction(1, 5)}
_MEMO_CASES = [(("B", 2, 2), None), (("A1", 2, 2), None),
               (("B", 2, 2), _SPEC_B2)]


def _pbw_keys(h, seed, count=8):
    """A seeded set of PBW monomial keys (xexp, yexp, g) of degree <= 3."""
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        xe, ye = [0] * h.dim, [0] * h.dim
        for _ in range(rng.randint(0, 3)):
            (xe if rng.random() < 0.5 else ye)[rng.randrange(h.dim)] += 1
        keys.add((tuple(xe), tuple(ye), rng.randrange(len(h.rd.elements))))
    return sorted(keys)


def _term_memo(h):
    """The `term_mul` memo as {(key1, key2): result}."""
    return {(k1, k2): out for k1, row in h._term_memo.items()
            for k2, out in row.items()}


@pytest.mark.parametrize("group,spec", _MEMO_CASES,
                         ids=["B2", "A1^2", "B2-rational"])
def test_term_mul_memo_matches_a_fresh_algebra(group, spec):
    rd = RootDatum(*group)
    h = HAlgebra(rd, specialize=spec)
    keys = _pbw_keys(h, seed=3)
    for k1 in keys:
        for k2 in keys:
            first = h.term_mul(k1, k2)
            # callers only iterate the shared result, so it is immutable
            assert type(first) is tuple
            assert HAlgebra(rd, specialize=spec).term_mul(k1, k2) == first
            assert h.term_mul(k1, k2) is first
    assert len(_term_memo(h)) == len(keys) ** 2


def test_term_mul_memo_is_per_algebra():
    rd = RootDatum("B", 2, 2)
    sym, num = HAlgebra(rd), HAlgebra(rd, specialize=_SPEC_B2)
    keys = _pbw_keys(sym, seed=5)
    for k1 in keys:
        for k2 in keys:
            sym.term_mul(k1, k2)
            num.term_mul(k1, k2)
    sym_memo, num_memo = _term_memo(sym), _term_memo(num)
    assert sym_memo.keys() == num_memo.keys()
    shared = {id(v) for v in sym_memo.values()} & \
        {id(v) for v in num_memo.values()}
    assert not shared
    assert all(cf.is_constant() for out in num_memo.values()
               for _k, cf in out)
    assert not all(cf.is_constant() for out in sym_memo.values()
                   for _k, cf in out)


def _h_pair(h):
    g = h.rd.reflection_index(0)
    a = (_x(h, 1) * _y(h, 2) + _g(h, g).scale(h.field.i)
         + _y(h, 1).scale(h.c_root[0]))
    b = _y(h, 1) * _x(h, 1) * _g(h, g) - _x(h, 2).scale(h.t)
    return a, b


def _hc_pair(hc):
    g = hc.rd.reflection_index(0)
    a = hc.x(1) * hc.e(2) + hc.y(2) * hc.group(g) + hc.e(1).scale(hc.field.s)
    b = hc.y(1) * hc.e(1) * hc.x(2) - hc.group(g) * hc.e(2)
    return a, b


@pytest.mark.parametrize("make,pair", [(HAlgebra, _h_pair),
                                       (HCAlgebra, _hc_pair)],
                         ids=["H", "HxC"])
@pytest.mark.parametrize("group", [("B", 2, 2), ("A1", 2, 2)],
                         ids=["B2", "A1^2"])
def test_memoised_products_repeat_exactly(group, make, pair):
    rd = RootDatum(*group)
    alg = make(rd)
    h = getattr(alg, "h", alg)
    a, b = pair(alg)
    first = a * b
    size = len(_term_memo(h))
    assert a * b == first
    assert len(_term_memo(h)) == size      # the repeat made no new entry
    fa, fb = pair(make(rd))
    assert (fa * fb).terms == first.terms


def _times_linear(p, form):
    """The product of {exponent: Coeff} and {coordinate: Fraction}."""
    return add_into({}, ((_bump(e, j), v * Coeff(a))
                         for e, v in p.items() for j, a in form.items()))


@pytest.mark.parametrize("group", [("B", 3, 3), ("D", 4, 4), ("A", 3, 4),
                                   ("A1", 3, 3)],
                         ids=["B3", "D4", "A3", "A1^3"])
def test_divided_difference_times_root_is_the_difference(group):
    # alpha * (x^c - s_alpha x^c)/alpha == x^c - (s_alpha x)^c, with the
    # coordinates of s_alpha x = x - 2 <alpha, x>/<alpha, alpha> alpha
    # expanded from the root alone
    rd = RootDatum(*group)
    h = HAlgebra(rd)
    d = rd.dim
    for alpha, s in zip(rd.positive_roots, rd.reflections):
        norm = sum(a * a for a in alpha)
        lin = {j: a for j, a in enumerate(alpha) if a}
        image = []
        for j in range(d):
            row = {k: Fraction((j == k) * norm - 2 * alpha[j] * alpha[k],
                               norm) for k in range(d)}
            image.append({k: a for k, a in row.items() if a})
        for c in (c for k in range(4) for c in monomial_basis(d, k)):
            dd = h._divided_difference(c, alpha, s)
            assert all(type(v) is Coeff for v in dd.values())
            reflected = {(0,) * d: C_ONE}
            for form, k in zip(image, c):
                for _ in range(k):
                    reflected = _times_linear(reflected, form)
            expect = add_into({c: C_ONE},
                              ((e, -v) for e, v in reflected.items()))
            assert _times_linear(dd, lin) == expect


@pytest.mark.parametrize("group", [("B", 2, 2), ("D", 4, 4)],
                         ids=["B2", "D4"])
def test_divided_differences_by_unit_led_roots_invert_nothing(
        group, monkeypatch):
    # every root of B and D leads with 1 or -1, its own inverse
    rd = RootDatum(*group)
    h = HAlgebra(rd)
    calls = []
    inv = Coeff.inv

    def counting_inv(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(Coeff, "inv", counting_inv)
    made = 0
    for alpha, s in zip(rd.positive_roots, rd.reflections):
        for c in (c for k in range(4) for c in monomial_basis(rd.dim, k)):
            made += bool(h._divided_difference(c, alpha, s))
    assert made
    assert calls == []


def test_division_by_a_unit_linear_form_makes_no_field_products(
        coeff_products):
    # (x1^3 - x2^3) / (x1 - x2) = x1^2 + x1 x2 + x2^2: every term of the
    # closed form is 1 or -1, so it multiplies nothing
    rd = RootDatum("A", 1, 2)
    h = HAlgebra(rd)
    with coeff_products() as made:
        quo = h._divided_difference((3, 0), rd.positive_roots[0],
                                    rd.reflections[0])
    assert made == []
    assert quo == {(2, 0): C_ONE, (1, 1): C_ONE, (0, 2): C_ONE}


def _long_division(num, lin):
    """Divide an x-polynomial by a linear form, requiring zero remainder:
    the reference for the closed form.  Values are Coeff."""
    # leading variable of the linear form under lex order
    lead = max(lin)
    lc = lin[lead]
    lc_inv = lc if unit_sign(lc) else lc.inv()
    # the form's other terms, negated: each step subtracts f x^de times
    # the form from rem
    rest = [(le, -lv) for le, lv in lin.items() if le != lead]
    rem = dict(num)
    quo = {}
    while rem:
        e = max(rem, key=lambda t: (sum(t), t))
        v = rem.pop(e)
        de = tuple(p - q for p, q in zip(e, lead))
        assert all(p >= 0 for p in de), "divided difference is not a polynomial"
        # the leading monomial e falls at every step, so de is new to quo
        f = quo[de] = mul_coeff(v, lc_inv)
        # and the lead term of the linear form cancels e exactly
        add_into(rem, ((tuple(p + q for p, q in zip(de, le)),
                        mul_coeff(f, lv)) for le, lv in rest))
    return quo


def _divided_difference_by_division(cexp, alpha, s):
    img, sgn = s.apply_exp(cexp)
    if img == cexp:
        if sgn == 1:
            return {}
        num = {cexp: Coeff(2)}
    else:
        num = {cexp: C_ONE, img: Coeff(-sgn)}
    d = len(alpha)
    lin = {_bump((0,) * d, j): Coeff(a) for j, a in enumerate(alpha) if a}
    return _long_division(num, lin)


@pytest.mark.parametrize("group", [("B", 2, 2), ("B", 3, 3), ("D", 4, 4),
                                   ("A", 3, 4), ("A1", 3, 3)],
                         ids=["B2", "B3", "D4", "A3", "A1^3"])
def test_closed_form_divided_difference_matches_long_division(group):
    rd = RootDatum(*group)
    h = HAlgebra(rd)
    for alpha, s in zip(rd.positive_roots, rd.reflections):
        for c in (c for k in range(7) for c in monomial_basis(rd.dim, k)):
            expect = _divided_difference_by_division(c, alpha, s)
            got = h._divided_difference(c, alpha, s)
            # the same terms, met in the same order by the sums built on
            # them
            assert list(got.items()) == list(expect.items()), (alpha, c)


@pytest.mark.parametrize("alpha", [(2, 0), (1, 1, 1)])
def test_divided_difference_rejects_other_root_shapes(alpha):
    h = HAlgebra(RootDatum("A1", len(alpha), len(alpha)))
    with pytest.raises(DividedDifferenceError):
        h._divided_difference((1,) * len(alpha), alpha, None)


def _ycomm_by_scalar_products(h, i, c):
    """[y_{i+1}, x^c] with each factor formed as a Scalar product."""
    F = h.field
    out = {}
    if c[i]:
        out[(_bump(c, i, -1), h.id_idx)] = h.t * F.rational(c[i])
    for r, (alpha, s) in enumerate(zip(h.rd.positive_roots,
                                       h.rd.reflections)):
        if alpha[i]:
            factor = -(h.c_root[r] * F.rational(alpha[i]))
            g = h.rd.reflection_index(r)
            add_into(out, (((e, g), Scalar.from_coeff(v, F.nvars) * factor)
                           for e, v in h._divided_difference(
                               c, alpha, s).items()))
    return out


@pytest.mark.parametrize("group", [("B", 2, 2), ("A1", 3, 3)],
                         ids=["B2", "A1^3"])
@pytest.mark.parametrize("spec", [None, _SPEC_B2], ids=["symbolic",
                                                        "rational"])
def test_ycomm_builds_no_fraction_after_its_first_call(group, spec,
                                                       fractions_made):
    rd = RootDatum(*group)
    if spec is not None:
        spec = {**spec, **{f"c{k + 1}": Fraction(1, 3 + k)
                           for k in range(rd.num_orbits)}}
    h = HAlgebra(rd, specialize=spec)
    # one call per coordinate meets every root
    for i in range(rd.dim):
        h.ycomm(i, (1,) * rd.dim)
    cases = [(i, c) for i in range(rd.dim)
             for c in (c for k in range(5) for c in monomial_basis(rd.dim, k))
             if (i, c) not in h._ycomm_memo]
    with fractions_made() as made:
        got = [h.ycomm(i, c) for i, c in cases]
    assert made == []
    assert got == [_ycomm_by_scalar_products(h, i, c) for i, c in cases]


def test_ycomm_makes_no_field_product_on_a_miss(coeff_products):
    # t = s^2/2 = 2 and c = 1/3, 1/5 are constants: each t k and
    # -c alpha_i u factor scales the numerators of t or c by an int
    rd = RootDatum("B", 2, 2)
    h = HAlgebra(rd, specialize=_SPEC_B2)
    cases = [(i, c) for i in range(rd.dim)
             for c in (c for k in range(5) for c in monomial_basis(rd.dim, k))]
    with coeff_products() as made:
        got = [h.ycomm(i, c) for i, c in cases]
    assert made == []
    assert got == [_ycomm_by_scalar_products(h, i, c) for i, c in cases]


# -- an oracle from the Dunkl operators, sharing no code with the layer -------
#
# The polynomial representation of H_{t,c} on C[V] is faithful for t != 0:
# x_i acts by multiplication, w by substitution and y_i by the Dunkl operator
# T_i = t d_i - sum_{alpha>0} c_alpha alpha_i (1 - s_alpha)/alpha (Dunkl,
# Trans. AMS 311, 1989).  The oracle builds s_alpha from the root, divides
# by `_long_division`, takes c_alpha from the root's orbit by its length
# (B) or its coordinate (A1^n), and w from its matrix; a PBW monomial
# x^a y^b w then acts as f -> x^a T^b (w f).  Polynomials are
# {exponent: Scalar}.  It takes from the package only the field, the
# group's roots and matrices, and `sparse.add_into`; from `cherednik` it
# reads nothing but the `term_mul` products it checks.

class _DunklOracle:

    def __init__(self, h):
        rd = h.rd
        F = h.field
        self.d = d = rd.dim
        self.F = F
        self.roots = []
        for alpha in rd.positive_roots:
            norm = sum(a * a for a in alpha)
            if rd.family == "B":
                orbit = 0 if norm == 2 else 1
            elif rd.family == "A1":
                orbit = next(j for j, a in enumerate(alpha) if a)
            else:
                orbit = 0
            # s_alpha x_j = x_j - 2 alpha_j <alpha, x> / |alpha|^2
            image = [{k: Fraction((j == k) * norm - 2 * alpha[j] * alpha[k],
                                  norm) for k in range(d)} for j in range(d)]
            lin = {_shift((0,) * d, j): Coeff(a)
                   for j, a in enumerate(alpha) if a}
            self.roots.append((alpha, F.cs[orbit], _images(image), lin))
        # w x_j = sum_i w_ij x_i, read off the matrix of w
        self.group = [_images([{i: Fraction(m[i][j]) for i in range(d)}
                               for j in range(d)])
                      for m in (g.mat for g in rd.elements)]
        self._subst = {}
        self._dunkl = {}
        self._acts = {}

    def substitute(self, images, e):
        """x^e with each x_j replaced by the linear form images[j], over
        Coeff."""
        key = (id(images), e)
        out = self._subst.get(key)
        if out is None:
            out = {(0,) * self.d: C_ONE}
            for form, k in zip(images, e):
                for _ in range(k):
                    out = add_into({}, ((_shift(m, j), v * a)
                                        for m, v in out.items()
                                        for j, a in form.items()))
            self._subst[key] = out
        return out

    def dunkl(self, i, e):
        """T_i x^e."""
        key = (i, e)
        out = self._dunkl.get(key)
        if out is not None:
            return out
        F = self.F
        out = {}
        if e[i]:
            out[_shift(e, i, -1)] = F.t * F.rational(e[i])
        for alpha, c, images, lin in self.roots:
            if not alpha[i]:
                continue
            num = add_into({e: C_ONE}, ((m, -v) for m, v in
                                         self.substitute(images, e).items()))
            factor = c * F.rational(-alpha[i])
            add_into(out, ((m, Scalar.from_coeff(v, F.nvars) * factor)
                           for m, v in _long_division(num, lin).items()))
        self._dunkl[key] = out
        return out

    def act_monomial(self, key, e):
        """x^a y^b w acting on x^e."""
        memo = (key, e)
        out = self._acts.get(memo)
        if out is not None:
            return out
        a, b, g = key
        F = self.F
        out = {m: Scalar.from_coeff(v, F.nvars)
               for m, v in self.substitute(self.group[g], e).items()}
        for i, k in enumerate(b):
            for _ in range(k):
                out = self.apply(lambda m, i=i: self.dunkl(i, m), out)
        out = {tuple(p + q for p, q in zip(m, a)): v for m, v in out.items()}
        self._acts[memo] = out
        return out

    @staticmethod
    def apply(op, poly):
        """The linear operator op (monomial -> polynomial) on a polynomial."""
        return add_into({}, ((m2, v * u) for m, v in poly.items()
                             for m2, u in op(m).items()))


def _shift(e, j, by=1):
    """The exponent e with slot j moved by `by`."""
    return tuple(k + by * (i == j) for i, k in enumerate(e))


def _images(rows):
    """Linear forms {k: Coeff} from rows {k: Fraction}, zeros dropped."""
    return tuple({k: Coeff(v) for k, v in row.items() if v} for row in rows)


def _term_mul_mismatches(h, keys, degree=2):
    """The (k1, k2, x^e) at which term_mul(k1, k2) does not act on x^e, of
    degree at most `degree`, as the composed operators k1 k2."""
    oracle = _DunklOracle(h)
    bad = []
    for k1 in keys:
        for k2 in keys:
            prod = h.term_mul(k1, k2)
            for e in (e for n in range(degree + 1)
                      for e in monomial_basis(h.dim, n)):
                lhs = add_into({}, ((m, q * v) for key, q in prod
                                    for m, v in oracle.act_monomial(
                                        key, e).items()))
                rhs = oracle.apply(lambda m: oracle.act_monomial(k1, m),
                                   oracle.act_monomial(k2, e))
                if lhs != rhs:
                    bad.append((k1, k2, e))
    return bad


_ORACLE_GROUPS = {"A1": ("A1", 1, 1), "A r2": ("A", 2, 3), "A r3": ("A", 3, 4),
                  "B2": ("B", 2, 2), "B3": ("B", 3, 3), "D4": ("D", 4, 4),
                  "A1^3": ("A1", 3, 3)}


@pytest.mark.parametrize("name", list(_ORACLE_GROUPS))
def test_dunkl_operators_commute(name):
    rd = RootDatum(*_ORACLE_GROUPS[name])
    oracle = _DunklOracle(HAlgebra(rd))
    d = rd.dim
    for e in (e for n in range(4) for e in monomial_basis(d, n)):
        for i in range(d):
            for j in range(i):
                ti_tj = oracle.apply(lambda m: oracle.dunkl(i, m),
                                     oracle.dunkl(j, e))
                tj_ti = oracle.apply(lambda m: oracle.dunkl(j, m),
                                     oracle.dunkl(i, e))
                assert ti_tj == tj_ti, (i, j, e)


@pytest.mark.parametrize("name", list(_ORACLE_GROUPS))
def test_term_mul_acts_as_the_composed_dunkl_operators(name):
    h = HAlgebra(RootDatum(*_ORACLE_GROUPS[name]))
    assert _term_mul_mismatches(h, _pbw_keys(h, seed=17, count=12)) == []


def test_oracle_sees_a_flipped_divided_difference(monkeypatch):
    divided = HAlgebra._divided_difference

    def flipped(self, cexp, alpha, s):
        return {e: -v for e, v in divided(self, cexp, alpha, s).items()}

    monkeypatch.setattr(HAlgebra, "_divided_difference", flipped)
    h = HAlgebra(RootDatum("B", 2, 2))
    assert _term_mul_mismatches(h, _pbw_keys(h, seed=17))


def test_oracle_sees_a_c_from_the_wrong_orbit():
    rd = RootDatum("B", 2, 2)
    long_root = rd.root_norms_sq.index(2)
    rd.orbit_labels[long_root] = 1          # the short roots' c
    h = HAlgebra(rd)
    assert _term_mul_mismatches(h, _pbw_keys(h, seed=17))


def test_oracle_sees_term_mul_without_its_group_action_sign(monkeypatch):
    rd = RootDatum("B", 2, 2)
    h = HAlgebra(rd)
    oracle_keys = _pbw_keys(h, seed=17)
    apply_exp = GroupElement.apply_exp

    def unsigned(self, exps):
        return apply_exp(self, exps)[0], 1

    # the group is enumerated before the patch; straightening reads the
    # signs directly, so only term_mul loses them
    rd.mul_table
    monkeypatch.setattr(GroupElement, "apply_exp", unsigned)
    assert _term_mul_mismatches(h, oracle_keys)
