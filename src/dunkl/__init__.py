"""Exact symbolic kernel for the total angular momentum algebra of a
rational Cherednik system, with verification suites and a CLI front end.

Layers, bottom up:

- sparse: the one accumulator `add_into` of sparse {key: value} sums, and
  `SparseElement`, the linear operations shared by the element types of
  clifford, cherednik and hc.
- scalars: the coefficient field Q(i, sqrt2)(s, c_1..c_m) with t = s^2/2;
  elements of Q(i, sqrt2) are four int numerators over one denominator,
  and a scalar is a sparse Laurent polynomial {exponent: Coeff} in s and
  the c_k.
- groups: real reflection groups (types A, B, D and A1 products), each
  element stored as a signed permutation (perm, sign) of the orthonormal
  basis, with roots, orbits and conjugacy classes.
- clifford: the Clifford algebra on orthonormal generators e_j^2 = 1.
- pin: the double cover of the reflection group inside the Clifford
  algebra, its cocycle and class-splitting data.
- cherednik: the rational Cherednik algebra in PBW normal form with
  memoized Dunkl-commutator straightening.
- hc: the tensor product of the Cherednik and Clifford algebras, its
  Z2-grading, graded bracket and conjugate-linear anti-involution.
- osp: the osp(1|2) realisation, its Casimir and Scasimir, and the
  projection onto the graded centraliser.
- tama: the total angular momentum subalgebra: generators, relations,
  the chirality Dirac element, and centre candidates.
- admissible: class sums, epsilon-centres and admissible elements of the
  group-algebra image of the cover.
- polyspinor: the degree-truncated polynomial-spinor representation,
  cohomology dimensions, the bullet-Hermitian form, and the one exact
  elimination over Q(i, sqrt2).
- cli: the `verify` command line and deterministic JSON reports.
"""

from .scalars import Coeff, Scalar, ScalarField
from .groups import RootDatum, GroupElement, parse_family
from .clifford import CliffordElement, pseudo_scalar
from .pin import PinCover
from .cherednik import HAlgebra, HElement, dunkl_commutator, filtration_check
from .hc import HCAlgebra, HCElement
from .osp import OspRealisation
from .tama import Tama
from .admissible import CoverAlgebra, sn_partition_predictions
from .polyspinor import SpinorRep, HermitianForm, cohomology_dims, \
    spinor_matrices

_CLI_NAMES = ("RunConfig", "run_config", "main")

__all__ = [
    "Coeff", "Scalar", "ScalarField",
    "RootDatum", "GroupElement", "parse_family",
    "CliffordElement", "pseudo_scalar",
    "PinCover",
    "HAlgebra", "HElement", "dunkl_commutator", "filtration_check",
    "HCAlgebra", "HCElement",
    "OspRealisation",
    "Tama",
    "CoverAlgebra", "sn_partition_predictions",
    "SpinorRep", "HermitianForm", "cohomology_dims", "spinor_matrices",
    "RunConfig", "run_config", "main",
]

__version__ = "0.1.0"


def __getattr__(name):
    # The CLI is imported on first use, not with the package, so that
    # `python -m dunkl.cli` runs a module not already in sys.modules.
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
