from itertools import combinations

import pytest

from dunkl.scalars import ScalarField
from dunkl.clifford import (CliffordElement, pseudo_scalar, mask_str,
                            sign_mask)

F = ScalarField(0)


def gen(d, j):
    return CliffordElement(d, {1 << (j - 1): F.one})


def one(d):
    return CliffordElement(d, {0: F.one})


def test_generator_relations():
    d = 5
    for i in range(1, d + 1):
        assert gen(d, i) * gen(d, i) == one(d)
        for j in range(i + 1, d + 1):
            assert gen(d, i) * gen(d, j) + gen(d, j) * gen(d, i) == \
                CliffordElement(d, {})


def test_basis_sign_oracle():
    # independent oracle: multiply generators one by one, so that only
    # products by a single generator are formed, and compare with the
    # one-shot blade product, whose sign comes from sign_mask
    for d in (4, 6):
        blades = []
        for mask in range(1 << d):
            e = one(d)
            for j in range(1, d + 1):
                if mask & (1 << (j - 1)):
                    e = e * gen(d, j)
            assert e.terms == {mask: F.one}
            blades.append(e)
        for amask, ea in enumerate(blades):
            for bmask in range(1 << d):
                prod = ea
                for j in range(1, d + 1):
                    if bmask & (1 << (j - 1)):
                        prod = prod * gen(d, j)
                assert set(prod.terms) == {amask ^ bmask}
                assert prod == ea * blades[bmask]


def shift_loop_sign(a, b):
    """Reference: parity of sum_{k>=1} |(A >> k) & B|, one shift at a time."""
    count = 0
    a >>= 1
    while a:
        count += (a & b).bit_count()
        a >>= 1
    return -1 if count % 2 else 1


def test_sign_mask_matches_the_shift_loop():
    for a in range(1 << 7):
        p = sign_mask(a)
        for b in range(1 << 7):
            expect = shift_loop_sign(a, b)
            assert (-1 if (p & b).bit_count() & 1 else 1) == expect


def test_star_is_conjugate_linear_anti_involution():
    d = 3
    x = gen(d, 1) * gen(d, 2) + gen(d, 3).scale(F.i)
    y = gen(d, 2) * gen(d, 3) + one(d).scale(F.r)
    assert (x * y).star() == y.star() * x.star()
    assert x.star().star() == x
    assert x.scale(F.i).star() == x.star().scale(-F.i)
    for j in range(1, d + 1):
        assert gen(d, j).star() == -gen(d, j)


def test_pseudo_scalar_squares_to_one():
    for d in range(1, 7):
        g = pseudo_scalar(d, F)
        assert g * g == one(d)


def test_pseudo_scalar_star_sign_depends_on_parity():
    # under the conjugate-linear star, Gamma is fixed exactly in even
    # dimension and negated in odd dimension
    for d in range(1, 7):
        g = pseudo_scalar(d, F)
        expect = g if d % 2 == 0 else -g
        assert g.star() == expect


def test_pseudo_scalar_commutation():
    # Gamma commutes with even elements always, and with everything in
    # odd dimension
    for d in (3, 4):
        g = pseudo_scalar(d, F)
        for i, j in combinations(range(1, d + 1), 2):
            eij = gen(d, i) * gen(d, j)
            assert g * eij == eij * g
        if d % 2 == 1:
            for j in range(1, d + 1):
                assert g * gen(d, j) == gen(d, j) * g


def test_mask_str():
    assert mask_str(0) == "1"
    assert mask_str(0b101) == "e{1,3}"
