"""Tests of the benchmark's own checks and tracer.

    python3 perfbench/selftest.py

Each independent output check must accept the right answer and reject a
wrong one: a perturbed cohomology row, a wrong commutator term, a wrong
epsilon-centre dimension.
"""

import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
from dunkl.cherednik import HAlgebra, dunkl_commutator  # noqa: E402
from dunkl.groups import RootDatum  # noqa: E402
from dunkl.scalars import Coeff  # noqa: E402


class CommutatorCheck(unittest.TestCase):
    def setUp(self):
        self.h = HAlgebra(RootDatum("A1", 2, 2))

    def terms(self, i, a):
        return dict(dunkl_commutator(self.h, i, a).terms)

    def test_accepts_program_output(self):
        for i, a in ((1, (3, 2)), (2, (3, 2)), (1, (0, 5)), (2, (1, 1))):
            self.assertIsNone(oracles.commutator_failure(
                self.h, i, a, self.terms(i, a)))

    def test_rejects_wrong_coefficient(self):
        got = self.terms(1, (3, 2))
        key = next(iter(got))
        got[key] = got[key] + self.h.field.one
        self.assertIsNotNone(oracles.commutator_failure(self.h, 1, (3, 2), got))

    def test_rejects_missing_reflection_term(self):
        got = self.terms(1, (3, 2))
        s_1 = self.h.rd.reflection_index(0)
        del got[((2, 2), self.h.zero_exp, s_1)]
        self.assertIsNotNone(oracles.commutator_failure(self.h, 1, (3, 2), got))

    def test_rejects_extra_reflection_term(self):
        # a_1 even: the reflection term cancels, so a present one is wrong
        got = self.terms(1, (2, 1))
        s_1 = self.h.rd.reflection_index(0)
        got[((1, 1), self.h.zero_exp, s_1)] = self.h.field.cs[0]
        self.assertIsNotNone(oracles.commutator_failure(self.h, 1, (2, 1), got))


class CohomologyRowCheck(unittest.TestCase):
    ROW = {"degree": 3, "dim": 8, "ker": 2, "ker_cap_im": 1, "cohomology": 1}

    def failures(self, ker_mod_p=2, **change):
        return oracles.cohomology_row_failures({**self.ROW, **change}, 2,
                                               ker_mod_p)

    def test_accepts_consistent_row(self):
        self.assertEqual(self.failures(), [])
        self.assertEqual(self.failures(ker_mod_p=5), [])

    def test_rejects_perturbed_rows(self):
        self.assertTrue(self.failures(dim=9))
        self.assertTrue(self.failures(cohomology=2))
        self.assertTrue(self.failures(ker_cap_im=3, cohomology=-1))
        self.assertTrue(self.failures(ker=3, cohomology=2))   # > ker mod p
        self.assertTrue(self.failures(ker=9, cohomology=8, ker_mod_p=9))

    def test_dimension_formula(self):
        # C(d+k-1, k) 2^floor(d/2): B2 degree k has 2(k+1) basis vectors
        for k in range(6):
            row = {"degree": k, "dim": 2 * (k + 1), "ker": 0,
                   "ker_cap_im": 0, "cohomology": 0}
            self.assertEqual(oracles.cohomology_row_failures(row, 2, 0), [])


class ModularArithmetic(unittest.TestCase):
    def test_prime_and_roots(self):
        for seed in range(5):
            p = oracles.prime_1_mod_8(random.Random(seed))
            self.assertEqual(p % 8, 1)
            self.assertTrue(oracles.is_prime(p))
            i, r = oracles.roots_i_sqrt2(p)
            self.assertEqual(i * i % p, p - 1)
            self.assertEqual(r * r % p, 2)

    def test_coeff_map_is_multiplicative(self):
        p = oracles.prime_1_mod_8(random.Random(1))
        i, r = oracles.roots_i_sqrt2(p)
        x = Coeff(Fraction(1, 3), 2, Fraction(-5, 7), 1)
        y = Coeff(4, Fraction(1, 2), 3, Fraction(-2, 9))
        img = lambda c: oracles.coeff_mod_p(c, p, i, r)  # noqa: E731
        self.assertEqual(img(x * y), img(x) * img(y) % p)
        self.assertEqual(img(x + y), (img(x) + img(y)) % p)

    def test_nullity(self):
        p = 17
        self.assertEqual(oracles.nullity_mod_p([[1, 2], [2, 4]], p), 1)
        self.assertEqual(oracles.nullity_mod_p([[1, 2], [3, 4]], p), 0)
        self.assertEqual(oracles.nullity_mod_p([[0, 0, 0]], p), 3)


class CoverCheck(unittest.TestCase):
    def test_s5(self):
        self.assertEqual(len(oracles.partitions(5)), 7)
        self.assertEqual(oracles.split_classes(5), 5)
        self.assertEqual(oracles.cover_failures(5, 120, 7, 5), [])

    def test_rejects_wrong_answers(self):
        self.assertTrue(oracles.cover_failures(5, 120, 7, 4))
        self.assertTrue(oracles.cover_failures(5, 120, 7, 6))
        self.assertTrue(oracles.cover_failures(5, 120, 6, 5))
        self.assertTrue(oracles.cover_failures(5, 119, 7, 5))


class TracerAccounting(unittest.TestCase):
    def test_self_times_cover_the_run(self):
        ticks = iter(range(1000))
        t = tracer.Tracer(0, clock=lambda: next(ticks))

        def leaf():
            return 1

        wrapped_leaf = t.wrap(leaf, "scalars", count="leaf")

        def middle():
            return wrapped_leaf() + wrapped_leaf()

        wrapped_middle = t.wrap(middle, "hc", metric="middle_s")

        def outer():
            return wrapped_middle() + wrapped_leaf()

        run = t.wrap(outer, "cli")
        self.assertEqual(run(), 3)
        end = t.clock()
        idle = t.finish(end)
        self.assertEqual(t.counts["leaf"], 3)
        self.assertTrue(all(v >= 0 for v in t.self_s.values()))
        self.assertEqual(sum(t.self_s.values()) + idle, end)
        self.assertGreater(t.inclusive["middle_s"], 0)

    def test_same_layer_nesting_opens_no_span(self):
        ticks = iter(range(1000))
        t = tracer.Tracer(0, clock=lambda: next(ticks))

        def fact(n):
            return 1 if n == 0 else n * wrapped(n - 1)
        wrapped = t.wrap(fact, "cherednik", count="calls", metric="fact_s")
        self.assertEqual(wrapped(5), 120)
        self.assertEqual(t.counts["calls"], 6)
        # one span: the recursion is charged to the outermost call only
        self.assertEqual(t.self_s["cherednik"], t.inclusive["fact_s"] - 2)


if __name__ == "__main__":
    unittest.main()
