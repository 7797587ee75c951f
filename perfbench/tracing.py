"""Per-layer tracing for the traced run.

The tracer wraps public ``supertrop`` functions from outside the library.
``from .matrices import det`` copies a binding into other modules, so each
function is patched in every ``supertrop`` module that binds it; methods are
patched on their class.  A target that a later version removes or renames
is reported as absent, not an error.  Spans (name, start, end, parent, op
id) are kept in memory and written out when the run ends.  Nothing is
patched outside :meth:`Tracer.installed`, so the untraced runs execute the
library exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, stats): "span" records calls, self time and
# errors; "count" only counts calls (scalar operators run far too often for
# a span each).
TARGETS = (
    ("scalars", "Scalar.__add__", "count"),
    ("scalars", "Scalar.__mul__", "count"),
    ("scalars", "parse_scalar", "span"),
    ("matrices", "det", "span"),
    ("matrices", "adjoint", "span"),
    ("matrices", "pseudo_inverse", "span"),
    ("matrices", "close", "span"),
    ("matrices", "rank", "span"),
    ("matrices", "mat_mul", "span"),
    ("matrices", "Matrix.apply", "span"),
    ("matrices", "parse_matrix", "span"),
    ("matrices", "matrix_from_json", "span"),
    ("dual", "dual_base", "span"),
    ("dual", "dual_eval_matrix", "span"),
    ("dual", "apply", "span"),
    ("bilinear", "evaluate", "span"),
    ("bilinear", "pair_class", "span"),
    ("bilinear", "gs_step", "span"),
    ("bilinear", "gram_schmidt", "span"),
    ("bilinear", "gram_of", "span"),
    ("bilinear", "decompose", "span"),
    ("bilinear", "isotropic_strip", "span"),
    ("quadratic", "q_eval", "span"),
    ("quadratic", "form_from_q", "span"),
    ("quadratic", "orthogonal_sum", "span"),
    ("oracle", "run_suite", "span"),
    ("cli", "main", "span"),
)

# Short names for the scalar operators in metric names.
_ALIASES = {"scalars.Scalar.__add__": "scalars.add", "scalars.Scalar.__mul__": "scalars.mul"}

# Minor determinants tried per call of these callers.
DET_CALLERS = ("matrices.adjoint", "matrices.rank")

# Marks a method the class inherits rather than defines, so that removing
# the patch deletes the class attribute instead of restoring one.
_INHERITED = object()

# Metrics measured by the runner itself rather than from spans.
EXTRA_METRICS = (
    ("scalars.add_ns", "ns"),
    ("scalars.mul_ns", "ns"),
    ("cli.interp_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("probe.failed", "count"),
    ("trace.overhead_frac", "frac"),
)

# Which end-to-end metric each layer should move, on which workload.
LAYER_EFFECTS = {
    "scalars.add/mul (calls, add_ns, mul_ns), parse_scalar": "ops_per_s on forms and wide; little on matrix-ops, whose expansion det sums Fractions directly",
    "matrices.det/adjoint/pseudo_inverse/close/rank": "ops_per_s and op_p50_ms on matrix-ops",
    "matrices.adjoint.det_calls, matrices.rank.det_calls": "minors tried per call; rank.det_calls moves op_p90_ms on matrix-ops",
    "matrices.mat_mul, matrices.Matrix.apply": "ops_per_s on wide",
    "matrices.parse_matrix, matrices.matrix_from_json": "op_p50_ms on cli",
    "dual.dual_base/dual_eval_matrix/apply": "ops_per_s and op_p90_ms on matrix-ops",
    "bilinear.evaluate/pair_class/gs_step/gram_schmidt/gram_of/decompose": "ops_per_s on forms; evaluate also on wide",
    "bilinear.isotropic_strip": "ops_per_s on forms (self time includes the per-call witness re-check)",
    "quadratic.q_eval/form_from_q/orthogonal_sum": "ops_per_s on forms",
    "oracle.run_suite": "op_p90_ms on cli (through the check calls)",
    "cli.interp_start_ms, cli.import_ms, cli.main.self_ms": "op_p50_ms on cli",
    "probe.failed": "none: known defects run untimed; a fix lowers it to 0",
    "trace.overhead_frac": "none: traced against untraced ops_per_s of the same run",
}


def target_name(module, path):
    full = f"{module}.{path}"
    return _ALIASES.get(full, full)


def metric_names():
    """Every per-layer metric name with its unit, in a stable order."""
    out = []
    for module, path, kind in TARGETS:
        name = target_name(module, path)
        if kind == "count":
            out.append((f"{name}.calls", "count"))
        else:
            out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms"), (f"{name}.errors", "count")]
    out += [(f"{caller}.det_calls", "count") for caller in DET_CALLERS]
    return out + list(EXTRA_METRICS)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans.  ``spans`` are (name, start, end, parent,
    op id) rows; parent is an index into ``spans`` or -1."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op id]
        self.errors = Counter()  # span index -> 1 when an exception left it
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._op = None
        self._patches = []

    # -- patching --------------------------------------------------------

    def _resolve(self, module, path):
        mod = sys.modules.get(f"supertrop.{module}")
        owner, attr = mod, path
        if "." in path:
            cls, attr = path.split(".", 1)
            owner = getattr(mod, cls, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        return owner, attr, fn

    def _span_wrapper(self, name, fn):
        tracer, spans, stack, now = self, self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, now(), 0.0, stack[-1] if stack else -1, tracer._op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[idx] = 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = now()

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            if tracer._op is not None:
                counts[name] += 1
            return fn(a, b)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, new)

    def install(self):
        for module, path, kind in TARGETS:
            name = target_name(module, path)
            owner, attr, fn = self._resolve(module, path)
            if fn is None:
                self.absent.append(name)
                continue
            wrap = self._count_wrapper if kind == "count" else self._span_wrapper
            new = wrap(name, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, new)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "supertrop" or mod_name.startswith("supertrop."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, new)

    def remove(self):
        for owner, attr, old in reversed(self._patches):
            if old is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id, kind):
        self._op = op_id
        self.spans.append([f"op.{kind}", time.perf_counter(), 0.0, -1, op_id])
        self._stack.append(len(self.spans) - 1)

    def end_op(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._stack.clear()
        self._op = None

    # -- results ---------------------------------------------------------

    def metrics(self, ops):
        """Per-layer metrics normalised per traced op; det_calls per call
        of its caller.  Absent targets read 0."""
        calls, self_ms, errors = Counter(), Counter(), Counter()
        det_calls = Counter()
        spans = self.spans
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            name = span[0]
            calls[name] += 1
            self_ms[name] += own * 1e3
            errors[name] += self.errors[i]
            if name == "matrices.det" and span[3] >= 0 and spans[span[3]][0] in DET_CALLERS:
                det_calls[spans[span[3]][0]] += 1
        calls.update(self.counts)
        out = {}
        per_op = 1 / max(ops, 1)
        for metric, _ in metric_names():
            if metric.endswith(".det_calls"):
                caller = metric[: -len(".det_calls")]
                out[metric] = det_calls[caller] / calls[caller] if calls[caller] else 0.0
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[: -len(".calls")]] * per_op
            elif metric.endswith(".self_ms"):
                out[metric] = self_ms[metric[: -len(".self_ms")]] * per_op
            elif metric.endswith(".errors"):
                out[metric] = errors[metric[: -len(".errors")]] * per_op
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "error": bool(self.errors[i])}) + "\n")
