from contextlib import contextmanager
from fractions import Fraction

import pytest

from dunkl.groups import RootDatum
from dunkl.hc import HCAlgebra
from dunkl.osp import OspRealisation
from dunkl.scalars import Coeff, C_ONE
from dunkl.tama import Tama


class Stack:
    """Shared lazily-built algebra stack per group configuration."""

    def __init__(self, *args, **kwargs):
        self.rd = RootDatum(*args, **kwargs)
        self._alg = None
        self._osp = None
        self._tama = None

    @property
    def alg(self):
        if self._alg is None:
            self._alg = HCAlgebra(self.rd)
        return self._alg

    @property
    def osp(self):
        if self._osp is None:
            self._osp = OspRealisation(self.alg)
        return self._osp

    @property
    def tama(self):
        if self._tama is None:
            self._tama = Tama(self.alg, self.osp)
        return self._tama


_STACKS = {}


def stack(*args, **kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    if key not in _STACKS:
        _STACKS[key] = Stack(*args, **kwargs)
    return _STACKS[key]


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
