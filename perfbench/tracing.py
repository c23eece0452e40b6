"""Span tracing at psdalign's layer boundaries, installed from outside.

The tracer replaces the module and class attributes through which one layer
calls another (for example ``psdalign.simkit.cho_factor``) with timing
wrappers, and puts the originals back when the ``installed()`` block ends.
The program's own files are never edited.

Every wrapped call inside an op records a span ``[name, start, end, parent,
op_id]``; spans stay in memory until ``write()``. Counters (calls, array
sizes, and FLOP and byte counts derived from array shapes) are recorded at
the same boundaries. Spans are kept on a single stack, so the traced program
must run its trials on one thread (``run.jobs: 1``).
"""

import contextlib
import importlib
import json
import math
import os
import time
from collections import defaultdict


def _numel(shape):
    return math.prod(int(n) for n in shape)


def _factor_counts(args, kwargs, result):
    # Cholesky of an n x n matrix: n^3/3 real FLOPs, 4x that for complex.
    # Bytes: the matrix read once and the factor written once.
    a = args[0]
    n = a.shape[0]
    complex_factor = 4 if a.dtype.kind == "c" else 1
    return {
        "flops_computed": complex_factor * n**3 / 3.0,
        "bytes_computed": 2.0 * a.size * a.itemsize,
    }


def _solve_counts(args, kwargs, result):
    # two triangular solves with an n x m right-hand side: 2 n^2 m real FLOPs,
    # 4x for complex; bytes: factor read, right-hand side read, result written
    (c, _lower), b = args[0], args[1]
    n = c.shape[0]
    m = _numel(b.shape[1:]) if b.ndim > 1 else 1
    complex_factor = 4 if (c.dtype.kind == "c" or b.dtype.kind == "c") else 1
    return {
        "flops_computed": complex_factor * 2.0 * n * n * m,
        "bytes_computed": float(c.size * c.itemsize + 2 * b.size * b.itemsize),
    }


def _draw_counts(args, kwargs, result):
    return {"draws": float(_numel(args[1]))}


def _node_counts(args, kwargs, result):
    return {"nodes": float(len(result[0]))}


def _point_counts(args, kwargs, result):
    return {"points": float(getattr(result, "size", 1))}


def _csv_counts(args, kwargs, result):
    return {"bytes": float(os.path.getsize(args[-1]))}


# (module, attribute path, span name, counter function). Each entry is the
# attribute a caller looks up at call time, so replacing it intercepts the
# call. Class attributes (``Class.method``) cover method calls.
BOUNDARIES = (
    ("psdalign.cli", "main", "cli.main", None),
    ("psdalign.cli", "load_config", "config.load_config", None),
    ("psdalign.simkit", "run_experiment", "simkit.run_experiment", None),
    ("psdalign.simkit", "write_mse_csv", "simkit.write_csv", _csv_counts),
    ("psdalign.simkit", "write_gain_csv", "simkit.write_csv", _csv_counts),
    ("psdalign.simkit", "write_dlse_csv", "simkit.write_csv", _csv_counts),
    ("psdalign.simkit", "write_aggregate_dat", "simkit.write_csv", _csv_counts),
    ("psdalign.simkit", "write_manifest", "simkit.write_csv", _csv_counts),
    ("psdalign.simkit", "cho_factor", "linalg.cho_factor", _factor_counts),
    ("psdalign.estimation", "cho_factor", "linalg.cho_factor", _factor_counts),
    ("psdalign.simkit", "cho_solve", "linalg.cho_solve", _solve_counts),
    ("psdalign.estimation", "cho_solve", "linalg.cho_solve", _solve_counts),
    ("psdalign.simkit", "circulant", "linalg.circulant", None),
    ("psdalign.simkit", "complex_normal", "fading.complex_normal", _draw_counts),
    ("psdalign.simkit", "build_covariance", "fading.build_covariance", None),
    ("psdalign.fading", "build_covariance", "fading.build_covariance", None),
    ("psdalign.fading", "ChannelCovariance.toeplitz", "fading.toeplitz", None),
    ("psdalign.fading", "DopplerSpectrum.synthesis_nodes", "fading.synthesis_nodes", _node_counts),
    ("psdalign.fading", "DopplerSpectrum.sample_eigenvalues", "fading.sample_eigenvalues", None),
    ("psdalign.fading", "oscillatory_nodes", "quadrature.oscillatory_nodes", None),
    ("psdalign.fading", "j0", "bessel.j0", _point_counts),
    ("psdalign.estimation", "error_covariance", "estimation.error_covariance", None),
    ("psdalign.estimation", "asymptotic_mse", "estimation.asymptotic_mse", None),
    ("psdalign.estimation", "adaptive_gl", "quadrature.adaptive_gl", None),
    ("psdalign.pilots", "plan_alignment", "pilots.plan_alignment", None),
    ("psdalign.pilots", "AlignmentPlan.validate", "pilots.validate", None),
    ("psdalign.pilots", "AlignmentPlan.pairwise_orthogonal", "pilots.validate", None),
    ("psdalign.pilots", "shift_orthogonal", "pilots.shift_orthogonal", None),
    ("psdalign.pilots", "orthogonality_residual", "pilots.orthogonality_residual", None),
    ("psdalign.pilots", "fft_pilot", "pilots.fft_pilot", None),
)

# called thousands of times per op: counted, but given no span of their own
COUNTED_ONLY = (("psdalign.quadrature", "fixed_gl", "quadrature.fixed_gl"),)

ROOT_SPAN = "bench.op"


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans and counters for the ops run inside ``op()`` blocks."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent_index, op_id]
        self.counters = defaultdict(lambda: defaultdict(float))  # op_id -> key -> value
        self._stack = []
        self._op_id = None

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, tracer._op_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            counters = tracer.counters[tracer._op_id]
            counters[name + ".calls"] += 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        return traced

    def _count_only(self, fn, name):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._op_id is not None:
                tracer.counters[tracer._op_id][name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Install every boundary wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, path, name, count in BOUNDARIES:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
            for module_name, path, name in COUNTED_ONLY:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._count_only(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self, op_id):
        """Trace one op: its root span and every boundary call made inside it."""
        self._op_id = op_id
        index = len(self.spans)
        self.spans.append([ROOT_SPAN, time.perf_counter(), None, None, op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
            self._op_id = None

    def op_summary(self, op_id):
        """Per-name inclusive time, self time and counters for one op.

        Self time is a span's duration minus the part of its interval that
        its child spans cover.
        """
        children = defaultdict(list)
        own = []
        for index, (name, start, end, parent, span_op) in enumerate(self.spans):
            if span_op != op_id:
                continue
            own.append(index)
            if parent is not None:
                children[parent].append((start, end))
        total = defaultdict(float)
        self_time = defaultdict(float)
        wall = None
        for index in own:
            name, start, end, _, _ = self.spans[index]
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children[index]):
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            total[name] += end - start
            self_time[name] += end - start - covered
            if name == ROOT_SPAN:
                wall = end - start
        return {
            "wall": wall,
            "total": dict(total),
            "self": dict(self_time),
            "counters": dict(self.counters[op_id]),
        }

    def write(self, path):
        """Write every recorded span as JSON (one list per span)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {"fields": ["name", "start", "end", "parent", "op_id"], "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)
