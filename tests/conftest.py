from contextlib import contextmanager
from fractions import Fraction

import pytest

from dunkl.cli import Context, RunConfig
from dunkl.scalars import Coeff, C_ONE, Scalar


_STACKS = {}


def stack(family, rank, ambient, **kwargs):
    """The shared lazily-built `cli.Context` of one group configuration."""
    key = (family, rank, ambient, tuple(sorted(kwargs.items())))
    if key not in _STACKS:
        _STACKS[key] = Context(RunConfig(family, rank, ambient, [], **kwargs))
    return _STACKS[key]


def dense_scalars(rows, ncols, nvars):
    """A polyspinor matrix, rows {(col, e): Coeff}, as dense lists of
    Scalars in `nvars` variables: the form of the dense reference
    products."""
    dense = [[{} for _ in range(ncols)] for _ in rows]
    for line, row in zip(dense, rows):
        for (c, e), v in row.items():
            line[c][e] = v
    return [[Scalar(terms, nvars) for terms in line] for line in dense]


@pytest.fixture(scope="session")
def a13():
    return stack("A1", 3, 3)


@pytest.fixture(scope="session")
def a14():
    return stack("A1", 4, 4)


@pytest.fixture(scope="session")
def s3():
    return stack("A", 2, 3)


@pytest.fixture(scope="session")
def s4():
    return stack("A", 3, 4)


@pytest.fixture(scope="session")
def b3():
    return stack("B", 3, 3)


@pytest.fixture
def fractions_made():
    """Context manager yielding a list of every Fraction built inside it."""
    @contextmanager
    def counting():
        made = []
        original = Fraction.__dict__["__new__"]

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return original.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        try:
            Fraction(1)
            assert made, "Fraction construction is not being counted"
            made.clear()
            yield made
        finally:
            Fraction.__new__ = original
    return counting


@pytest.fixture
def coeff_products():
    """Context manager yielding a list that grows by one per Coeff product."""
    @contextmanager
    def counting():
        made = []
        original = Coeff.__mul__

        def counting_mul(self, other):
            made.append(1)
            return original(self, other)

        Coeff.__mul__ = counting_mul
        try:
            C_ONE * C_ONE
            assert made, "Coeff products are not being counted"
            made.clear()
            yield made
        finally:
            Coeff.__mul__ = original
    return counting
