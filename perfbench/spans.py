"""In-memory span tracer for the etfforge benchmark.

Layers are measured from outside the program: each public function is
wrapped in the namespace where its caller looks it up.  certify.py does
`from .linalg import pseudoinverse`, so that layer is patched on
`etfforge.certify`, not on `etfforge.linalg`.  The package itself is
never edited.

A span is (name, start, end, parent span index, workload item id).  A
layer's self time is its span minus the time its child spans cover.
"""

import importlib
import os
import time
from contextlib import contextmanager

# (namespace the caller looks the function up in, attribute, span name).
# The span name is "<defining module>.<function>".
SPANNED = (
    ("etfforge.cli", "main", "cli.main"),
    ("etfforge.cli", "write_json", "serialize.write_json"),
    ("etfforge.certify", "certify", "certify.certify"),
    ("etfforge.certify", "secant_jacobian", "certify.secant_jacobian"),
    ("etfforge.certify", "f_eval_interval", "certify.f_eval_interval"),
    ("etfforge.certify", "iv_matmul", "rigor.iv_matmul"),
    ("etfforge.certify", "iv_norm_inf", "rigor.iv_norm_inf"),
    ("etfforge.certify", "pseudoinverse", "linalg.pseudoinverse"),
    ("etfforge.solver", "solve", "solver.solve"),
    ("etfforge.solver", "residual", "solver.residual"),
    ("etfforge.solver", "analytic_jacobian", "solver.analytic_jacobian"),
    ("etfforge.solver", "d4_uniqueness_experiment", "solver.d4_uniqueness_experiment"),
    ("etfforge.solver", "alternating_projections_gram", "solver.alternating_projections_gram"),
    ("etfforge.galois", "build_line_system", "galois.build_line_system"),
    ("etfforge.harmonic", "line_system_conference", "constructions.line_system_conference"),
    ("etfforge.harmonic", "double_signature", "constructions.double_signature"),
    ("etfforge.harmonic", "gram_of_signature", "frames.gram_of_signature"),
    ("etfforge.frames", "check_etf", "frames.check_etf"),
    ("etfforge.harmonic", "family_automorphism", "harmonic.family_automorphism"),
    ("etfforge.harmonic", "verify_automorphism", "harmonic.verify_automorphism"),
    ("etfforge.harmonic", "circulantize", "harmonic.circulantize"),
    ("etfforge.harmonic", "detect_harmonic_gram", "harmonic.detect_harmonic_gram"),
    ("etfforge.harmonic", "check_regular_representation", "harmonic.check_regular_representation"),
    ("etfforge.harmonic", "generators_from_blockgram", "harmonic.generators_from_blockgram"),
)

# Scalar interval operations are too small and too many for spans; they
# are only counted, under one name.
COUNTED = (
    ("etfforge.certify", "iv_add", "rigor.scalar_ops"),
    ("etfforge.certify", "iv_sub", "rigor.scalar_ops"),
    ("etfforge.certify", "iv_mul", "rigor.scalar_ops"),
    ("etfforge.certify", "iv_div", "rigor.scalar_ops"),
)

# Per-layer metrics reported by a traced run, name -> unit.  A name
# ending in .calls, .s or .self_s reads that column of the span named by
# the rest; any other name is a value the after-call hooks below record.
LAYER_METRICS = {
    "certify.f_eval_interval.calls": "count",
    "certify.f_eval_interval.s": "s",
    "certify.secant_jacobian.self_s": "s",
    "certify.secant_width_max": "1",
    "certify.certify.self_s": "s",
    "rigor.iv_matmul.s": "s",
    "rigor.iv_matmul.mflop": "Mflop",
    "rigor.iv_norm_inf.s": "s",
    "rigor.scalar_ops": "count",
    "linalg.pseudoinverse.s": "s",
    "solver.solve.calls": "count",
    "solver.solve.self_s": "s",
    "solver.lm_iterations": "count",
    "solver.converged_frac": "fraction",
    "solver.residual.calls": "count",
    "solver.analytic_jacobian.s": "s",
    "solver.alternating_projections_gram.s": "s",
    "solver.d4_uniqueness_experiment.self_s": "s",
    "galois.build_line_system.s": "s",
    "constructions.line_system_conference.s": "s",
    "constructions.double_signature.s": "s",
    "frames.gram_of_signature.s": "s",
    "frames.check_etf.s": "s",
    "harmonic.family_automorphism.self_s": "s",
    "harmonic.verify_automorphism.s": "s",
    "harmonic.circulantize.self_s": "s",
    "harmonic.detect_harmonic_gram.s": "s",
    "harmonic.check_regular_representation.s": "s",
    "harmonic.generators_from_blockgram.s": "s",
    "cli.main.self_s": "s",
    "serialize.write_json.s": "s",
    "serialize.write_json.bytes": "bytes",
}


class Tracer:
    """Collects spans and counters while its wrappers are installed.

    `item` names the workload operation in progress; every span opened
    meanwhile carries it.
    """

    def __init__(self):
        self.spans = []
        self.values = {}
        self.item = None
        self._stack = []

    def add(self, name, amount):
        self.values[name] = self.values.get(name, 0) + amount

    def _spanned(self, fn, name, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None, self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every layer for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name in SPANNED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._spanned(fn, name, _AFTER.get(name)))
            for module_name, attr, name in COUNTED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._counted(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _after_secant(tracer, args, result):
    s_mat, _ = result
    width = float((s_mat.hi - s_mat.lo).max())
    key = "certify.secant_width_max"
    tracer.values[key] = max(tracer.values.get(key, 0.0), width)


def _after_matmul(tracer, args, result):
    # computed from shapes: two endpoints, one multiply and one add each,
    # per term of the n x k by k x m product
    n, k = args[0].shape
    m = result.shape[1]
    tracer.add("rigor.iv_matmul.mflop", 4.0 * n * k * m / 1e6)


def _after_solve(tracer, args, result):
    tracer.add("solver.lm_iterations", int(result.iterations))
    tracer.add("solver.converged", int(bool(result.converged)))


def _after_write_json(tracer, args, result):
    tracer.add("serialize.write_json.bytes", os.path.getsize(args[0]))


_AFTER = {
    "certify.secant_jacobian": _after_secant,
    "rigor.iv_matmul": _after_matmul,
    "solver.solve": _after_solve,
    "serialize.write_json": _after_write_json,
}


def span_table(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    `spans` is a list of [name, start, end, parent, item]; parent is an
    index into the same list or None.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    table = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return table


def uncovered_seconds(spans, wall):
    """Time of a traced section of length `wall` that no span in `spans`
    covers; `spans` holds every span opened in that section."""
    return wall - sum(end - start for _, start, end, parent, _ in spans if parent is None)


def layer_metrics(spans, values):
    """Every LAYER_METRICS entry from one traced section; absent layers read 0."""
    table = span_table(spans)
    values = dict(values)
    solves = table.get("solver.solve", {}).get("calls", 0)
    values["solver.converged_frac"] = values.get("solver.converged", 0) / solves if solves else 0.0
    out = {}
    for metric, unit in LAYER_METRICS.items():
        span, _, column = metric.rpartition(".")
        if column in ("calls", "s", "self_s"):
            out[metric] = (table.get(span, {}).get(column, 0), unit)
        else:
            out[metric] = (values.get(metric, 0), unit)
    return out


def self_time_rows(spans, mark, wall):
    """(name, calls, s, self_s, share of wall) for the spans from index
    `mark` on (a pass after its set-up), largest self time first."""
    section = [
        [n, s, e, None if parent is None else parent - mark, item]
        for n, s, e, parent, item in spans[mark:]
    ]
    rows = sorted(span_table(section).items(), key=lambda kv: -kv[1]["self_s"])
    return [(name, r["calls"], r["s"], r["self_s"], r["self_s"] / wall) for name, r in rows]


def relative(spans, origin):
    """Spans with times in seconds from `origin`."""
    return [[n, s - origin, e - origin, parent, item] for n, s, e, parent, item in spans]
