"""Runtime tracing of the `dunkl` layers for the traced benchmark run.

`install()` wraps the package's entry points in place (the source tree is
never edited).  Each wrapped call belongs to one layer.  A call whose
caller is already inside the same layer runs untimed, so recursion
(`straighten`) and nesting (`Coeff` inside `Scalar`, `cunit_mul` inside
`sigma`) count toward the outermost span only.  Spans are not kept one
by one: field operations alone number in the millions, so every layer
keeps its self time, its call counts and the inclusive time of a few
named entry points.

A layer's self time is the time of its spans minus the time of the spans
of other layers opened inside them.  The time no span covers (interpreter
start, imports, argument parsing, report writing) is `idle_s`; the self
times plus `idle_s` account for the whole traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "groups", "pin", "scalars", "cherednik", "hc", "osp",
          "tama", "admissible", "polyspinor")

# (owner, attributes, layer); owner is "module" or "module:Class".
# Cheap accessors (is_zero, index_of, constructors of single terms) are
# left unwrapped: their time counts toward the caller's span.
ENTRY_POINTS = (
    ("dunkl.scalars:Coeff", "__add__ __sub__ __mul__ __neg__ inv conj_i "
     "conj_r", "scalars"),
    ("dunkl.scalars:Scalar", "__add__ __sub__ __neg__ __mul__ __truediv__ "
     "inv conjugate substitute substitute_s constant_value from_coeff "
     "rational", "scalars"),
    ("dunkl.scalars", "_reduce poly_gcd", "scalars"),
    ("dunkl.groups:RootDatum", "conjugacy_classes contains_minus_identity "
     "cycle_type_label", "groups"),
    ("dunkl.clifford:CliffordElement", "__add__ __sub__ __mul__ scale star",
     "pin"),
    ("dunkl.clifford", "pseudo_scalar", "pin"),
    ("dunkl.pin", "cunit_mul unit_ratio_sign", "pin"),
    ("dunkl.pin:PinCover", "__init__ sigma mul inv conj conj_sign "
     "cover_classes class_splits split_class_report", "pin"),
    ("dunkl.cherednik:HAlgebra", "__init__ ycomm straighten term_mul",
     "cherednik"),
    ("dunkl.cherednik:HElement", "__add__ __sub__ __neg__ __mul__ scale "
     "commutator star map_scalars", "cherednik"),
    ("dunkl.cherednik", "dunkl_commutator filtration_check", "cherednik"),
    ("dunkl.hc:HCAlgebra", "__init__", "hc"),
    ("dunkl.hc:HCElement", "__add__ __sub__ __neg__ __mul__ __eq__ scale "
     "gbracket commutator anticommutator bullet even_part odd_part "
     "map_scalars", "hc"),
    ("dunkl.osp:OspRealisation", "__init__ bracket_table_check project",
     "osp"),
    ("dunkl.tama:Tama", "__init__ ocheck M O O_closed_form project_O "
     "reconstruction_residual antisymmetrize gamma_element dirac "
     "centre_candidates graded_central_in_tama relation_residual "
     "relation_index_tuples sgamma_residual ssquare_expansion_residual "
     "covariance_residual dirac_checks epsilon_commutation_residuals",
     "tama"),
    ("dunkl.admissible:CoverAlgebra", "__init__ mul bullet class_sum_T "
     "class_sum_T_minus is_epsilon_central brute_force_epsilon_centre "
     "epsilon_centre_basis admissible_candidate admissible_basis to_hc",
     "admissible"),
    ("dunkl.admissible", "linearly_independent sn_partition_predictions",
     "admissible"),
    ("dunkl.polyspinor:SpinorRep", "__init__ matrix_of matrix_of_coeff",
     "polyspinor"),
    ("dunkl.polyspinor:HermitianForm", "__init__ gram adjointness_check "
     "leading_minor_signs", "polyspinor"),
    ("dunkl.polyspinor", "spinor_matrices _mat_mul_coeff rank_coeff "
     "kernel_basis_coeff image_basis_coeff intersection_dim cohomology_dims",
     "polyspinor"),
)

# entry point -> counter incremented on every call, nested ones included
COUNTS = {
    "dunkl.scalars:Coeff.__mul__": "scalars.coeff_mul",
    "dunkl.scalars:Scalar.__add__": "scalars.scalar_ops",
    "dunkl.scalars:Scalar.__sub__": "scalars.scalar_ops",
    "dunkl.scalars:Scalar.__mul__": "scalars.scalar_ops",
    "dunkl.scalars:Scalar.__truediv__": "scalars.scalar_ops",
    "dunkl.scalars:Scalar.inv": "scalars.scalar_ops",
    "dunkl.scalars.poly_gcd": "scalars.poly_gcd",
    "dunkl.pin.cunit_mul": "pin.cunit_mul",
    "dunkl.cherednik:HAlgebra.term_mul": "cherednik.term_mul",
    "dunkl.hc:HCElement.__mul__": "hc.mul",
    "dunkl.tama:Tama.relation_residual": "tama.relation_residual",
    "dunkl.polyspinor:SpinorRep.matrix_of": "polyspinor.matrix_of",
}

# entry point -> inclusive-time metric; a call made while the same metric
# is already open adds nothing, so nested calls are not counted twice
INCLUSIVE = {
    "dunkl.osp:OspRealisation.__init__": "osp.build_s",
    "dunkl.tama:Tama.relation_residual": "tama.relation_s",
    "dunkl.tama:Tama.dirac_checks": "tama.dirac_checks_s",
    "dunkl.tama:Tama.graded_central_in_tama": "tama.centre_s",
    "dunkl.admissible:CoverAlgebra.brute_force_epsilon_centre":
        "admissible.brute_force_s",
    "dunkl.admissible:CoverAlgebra.epsilon_centre_basis":
        "admissible.catalog_s",
    "dunkl.admissible:CoverAlgebra.admissible_basis": "admissible.basis_s",
    "dunkl.admissible.linearly_independent": "admissible.rank_s",
    "dunkl.polyspinor:SpinorRep.matrix_of": "polyspinor.matrix_of_s",
    "dunkl.polyspinor.rank_coeff": "polyspinor.linalg_s",
    "dunkl.polyspinor.kernel_basis_coeff": "polyspinor.linalg_s",
    "dunkl.polyspinor.image_basis_coeff": "polyspinor.linalg_s",
    "dunkl.polyspinor.intersection_dim": "polyspinor.linalg_s",
    "dunkl.polyspinor:HermitianForm.gram": "polyspinor.hermitian_s",
    "dunkl.polyspinor:HermitianForm.adjointness_check":
        "polyspinor.hermitian_s",
    "dunkl.polyspinor:HermitianForm.leading_minor_signs":
        "polyspinor.hermitian_s",
}


def _hc_terms(result):
    return len(result.terms)


def _matrix_dim(result):
    mat, _degree = result
    return max(len(mat), len(mat[0]) if mat else 0)


# entry point -> (metric, size of a result); the metric keeps the maximum
MAXIMA = {
    "dunkl.hc:HCElement.__mul__": ("hc.max_terms", _hc_terms),
    "dunkl.polyspinor:SpinorRep.matrix_of": ("polyspinor.max_dim",
                                            _matrix_dim),
}


class Tracer:
    """Layer self times, counts, inclusive times and maxima of one run."""

    def __init__(self, start, clock=time.perf_counter):
        self.clock = clock
        self.stack = []             # open spans: [layer, time in child spans]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}
        self.inclusive = {}
        self.maxima = {}
        self.open_metrics = set()
        self.idle_s = 0.0
        self._idle_since = start

    def _open(self, layer):
        t = self.clock()
        if not self.stack:
            self.idle_s += t - self._idle_since
        frame = [layer, 0.0]
        self.stack.append(frame)
        return t, frame

    def _close(self, t, frame):
        end = self.clock()
        self.stack.pop()
        dur = end - t
        self.self_s[frame[0]] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        else:
            self._idle_since = end
        return dur

    def call(self, layer, fn, args, kwargs):
        """Run fn in a span of `layer`, charging its time to that layer."""
        t, frame = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(t, frame)

    @contextmanager
    def span(self, layer, metric):
        """Time a block of the benchmark's own code as a span of `layer`."""
        t, frame = self._open(layer)
        try:
            yield
        finally:
            dur = self._close(t, frame)
            self.inclusive[metric] = self.inclusive.get(metric, 0.0) + dur

    def finish(self, end):
        """Close the last idle interval at `end`; returns the idle time."""
        if self.stack:
            raise RuntimeError(f"spans left open: {self.stack}")
        self.idle_s += end - self._idle_since
        self._idle_since = end
        return self.idle_s

    def wrap(self, fn, layer, count=None, metric=None, maximum=None):
        stack = self.stack
        counts = self.counts
        call = self.call
        if count is not None:
            counts.setdefault(count, 0)

        def layered(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return call(layer, fn, args, kwargs)

        run = layered
        if metric is not None:
            self.inclusive.setdefault(metric, 0.0)
            run = self._timed(layered, metric)
        if maximum is not None:
            run = self._sized(run, *maximum)
        return functools.wraps(fn)(run)

    def _timed(self, fn, metric):
        open_metrics = self.open_metrics
        inclusive = self.inclusive
        clock = self.clock

        def timed(*args, **kwargs):
            if metric in open_metrics:
                return fn(*args, **kwargs)
            open_metrics.add(metric)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                inclusive[metric] += clock() - t
                open_metrics.discard(metric)
        return timed

    def _sized(self, fn, metric, size):
        maxima = self.maxima
        maxima.setdefault(metric, 0)

        def sized(*args, **kwargs):
            result = fn(*args, **kwargs)
            n = size(result)
            if n > maxima[metric]:
                maxima[metric] = n
            return result
        return sized


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else module)


def install(tracer, suite_funcs):
    """Wrap every entry point in ENTRY_POINTS and every suite function.

    A module-level function is replaced under every `dunkl` module that
    imported it by name (for example `cli` imports `kernel_basis_coeff`).
    """
    for owner, names, layer in ENTRY_POINTS:
        module, target = _resolve(owner)
        for name in names.split():
            key = f"{owner}.{name}"
            static = inspect.getattr_static(target, name)
            fn = static.__func__ if isinstance(static, staticmethod) else static
            if not callable(fn):
                raise TypeError(f"{key} is not a function")
            wrapped = tracer.wrap(fn, layer, COUNTS.get(key),
                                  INCLUSIVE.get(key), MAXIMA.get(key))
            if isinstance(static, staticmethod):
                setattr(target, name, staticmethod(wrapped))
            elif target is module:
                _replace_everywhere(fn, wrapped)
            else:
                setattr(target, name, wrapped)
    for suite, fn in list(suite_funcs.items()):
        wrapped = tracer.wrap(fn, "cli", metric=f"cli.{suite}_s")
        suite_funcs[suite] = wrapped
        _replace_everywhere(fn, wrapped)


def _replace_everywhere(fn, wrapped):
    for name, module in list(sys.modules.items()):
        if name != "dunkl" and not name.startswith("dunkl."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)
