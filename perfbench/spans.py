"""Span tracer for the benchmark's traced runs.

The tracer wraps functions of the `gipad` package from outside: each
traced function is replaced by a wrapper at every module attribute that
binds it (`batch_norm_forward` is bound in `gipad.tensor`, `gipad.ops` and
`gipad.net`), and methods are replaced on their class. Nothing under
`src/gipad` is edited.

A span records its name, variant, start, end, parent span and operation
id. Spans stay in memory and are written out when the run ends. Work done
by a span is computed analytically from argument shapes: FLOPs from
`gipad.ops.layer_flops` (backward counted as twice the forward), bytes as
the sizes of the arrays passed in and returned, and the in-bounds share of
kernel taps under zero padding.

An operation is one train step (from `Model.forward(train=True)` inside
`train.train` to the end of the following `adam_step`), one inference
request (the benchmark's own `bench.request` span), or one audit sample
(from one `read_image` inside `audit.audit_run` to the next).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

GIPAD_MODULES = ("tensor", "ops", "net", "data", "train", "metrics", "audit", "cli")


# ---------------------------------------------------------------------------
# Analytic work per call
# ---------------------------------------------------------------------------

def _nbytes(obj, seen):
    """Bytes of the distinct arrays reachable through tuples, lists, dicts
    and dataclass fields."""
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o, seen) for o in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(o, seen) for o in obj.values())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    return 0


def array_bytes(arguments, result):
    seen = set()
    return _nbytes(list(arguments.values()), seen) + _nbytes(result, seen)


def _inbounds(size, k, stride, pad):
    """(in-bounds taps, all taps) along one axis of a zero-padded window."""
    out = (size + 2 * pad - k) // stride + 1
    start = np.arange(out)[:, None] * stride - pad + np.arange(k)[None, :]
    return int(np.count_nonzero((start >= 0) & (start < size))), out * k


def tap_fraction(h, w, k, stride, pad):
    use_h, all_h = _inbounds(h, k, stride, pad)
    use_w, all_w = _inbounds(w, k, stride, pad)
    return (use_h * use_w) / (all_h * all_w)


def _conv_cost(a, result, backward):
    from gipad import ops

    if backward:
        xp, weights, stride, pad, x_shape, _, _ = a["ctx"]
    else:
        weights, stride, pad, x_shape = a["weights"], a["stride"], a["pad"], a["x"].shape
    n, c, h, w = x_shape
    kind = "depthwise" if weights.groups == c and weights.c_out == c else "conv"
    spec = {"kind": kind, "c_out": weights.c_out, "k": weights.k, "stride": stride,
            "pad": pad, "groups": weights.groups}
    flops = n * ops.layer_flops(spec, (c, h, w)) * (2 if backward else 1)
    return flops, tap_fraction(h, w, weights.k, stride, pad)


def _conv_variant(a, backward):
    if backward:
        weights, c = a["ctx"][1], a["ctx"][4][1]
    else:
        weights, c = a["weights"], a["x"].shape[1]
    return "depthwise" if weights.groups == c and weights.c_out == c else "dense"


def _gi_cost(a, result, backward):
    from gipad import ops

    if backward:
        xg, field, gmap, (h, w) = a["ctx"]
        n, c = xg.shape[0], gmap.channels
    else:
        field = a["field"]
        n, c, h, w = a["x"].shape
    k = field.shape[2]
    flops = n * ops.gi_application_flops(c, k, h, w) * (2 if backward else 1)
    return flops, tap_fraction(h, w, k, 1, k // 2)


def _pointwise_cost(a, result, backward):
    from gipad import ops

    n, c, h, w = a["x"].shape
    c_out = a["weights"].shape[0]
    flops = n * ops.layer_flops({"kind": "pointwise", "c_out": c_out}, (c, h, w))
    return flops * (2 if backward else 1), None


@dataclasses.dataclass(frozen=True)
class SpanSpec:
    """One traced function: where it lives and what its calls compute."""
    module: str
    qualname: str
    variant: object = None      # f(arguments) -> variant name
    cost: object = None         # f(arguments, result) -> (flops, useful tap fraction)
    counts_bytes: bool = False
    per_call: object = None     # f(arguments) -> quantity averaged per call

    @property
    def key(self):
        return f"{self.module}.{self.qualname}"


def _score_count(a):
    return len(a["scores"])


SPANS = (
    SpanSpec("ops", "conv2d", lambda a: _conv_variant(a, False),
             lambda a, r: _conv_cost(a, r, False), True),
    SpanSpec("ops", "conv2d_backward", lambda a: _conv_variant(a, True),
             lambda a, r: _conv_cost(a, r, True), True),
    SpanSpec("ops", "group_involution_forward", None, lambda a, r: _gi_cost(a, r, False), True),
    SpanSpec("ops", "gi_backward", None, lambda a, r: _gi_cost(a, r, True), True),
    SpanSpec("ops", "generate_kernels"),
    SpanSpec("ops", "generate_kernels_backward"),
    SpanSpec("tensor", "batch_norm_forward", lambda a: "train" if a["train"] else "infer",
             None, True),
    SpanSpec("tensor", "batch_norm_backward", None, None, True),
    SpanSpec("tensor", "pointwise_conv", None, lambda a, r: _pointwise_cost(a, r, False), True),
    SpanSpec("tensor", "pointwise_conv_backward", None,
             lambda a, r: _pointwise_cost(a, r, True), True),
    SpanSpec("tensor", "activation", None, None, True),
    SpanSpec("tensor", "activation_grad", None, None, True),
    SpanSpec("net", "Model.forward"),
    SpanSpec("net", "Model.backward"),
    SpanSpec("net", "SqueezeExcite.forward"),
    SpanSpec("net", "SqueezeExcite.backward"),
    SpanSpec("net", "load_checkpoint"),
    SpanSpec("net", "save_checkpoint"),
    SpanSpec("train", "train"),
    SpanSpec("train", "adam_step", None, None, True),
    SpanSpec("train", "loss_and_logit_grad"),
    SpanSpec("train", "score_batches"),
    SpanSpec("train", "load_split_tensors"),
    SpanSpec("data", "generate_synth"),
    SpanSpec("data", "read_image", None, None, True),
    SpanSpec("data", "preprocess", None, None, True),
    SpanSpec("metrics", "eer"),
    SpanSpec("metrics", "youden_max"),
    SpanSpec("metrics", "auc_roc"),
    SpanSpec("metrics", "metric_report", per_call=_score_count),
    SpanSpec("audit", "audit_run"),
    SpanSpec("audit", "sample_stats"),
    SpanSpec("cli", "main", lambda a: (a["argv"] or sys.argv[1:] or ["?"])[0]),
)

# The benchmark's own request boundary on the inference workload.
REQUEST = "bench.request"


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

# Span record layout (a list per span, to keep the per-call cost low).
NAME, START, END, PARENT, OP, FLOPS, BYTES, TAPS, EXCLUDED, QTY = range(10)


class Tracer:
    """Collects spans in memory; `install` routes gipad calls through it."""

    def __init__(self):
        self.spans = []
        self.bindings = {}
        self._stack = []
        self._op = None
        self._n_ops = 0
        self.op_windows = {}
        self._op_roots = set()

    # -- operations ---------------------------------------------------------

    def _parent_name(self):
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def _starts_op(self, name, arguments):
        parent = self._parent_name()
        if name == REQUEST:
            return True
        if name == "net.Model.forward" and parent == "train.train":
            return bool(arguments.get("train"))
        return name == "data.read_image" and parent == "audit.audit_run"

    def _ends_op(self, name, parent):
        return (name == REQUEST or name == "audit.audit_run"
                or (name == "train.adam_step" and parent == "train.train"))

    def _close_op(self, t):
        if self._op is not None:
            self.op_windows[self._op][1] = t
            self._op = None

    # -- spans --------------------------------------------------------------

    def open(self, name, arguments=None):
        t = time.perf_counter()
        if self._starts_op(name, arguments or {}):
            self._close_op(t)
            self._n_ops += 1
            self._op = self._n_ops
            self.op_windows[self._op] = [t, None]
            if name == REQUEST:
                self._op_roots.add(len(self.spans))
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, t, None, parent, self._op, 0, 0, None, 0.0, None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        t = time.perf_counter()
        span = self.spans[idx]
        span[END] = t
        self._stack.pop()
        parent = self.spans[span[PARENT]][NAME] if span[PARENT] is not None else None
        if self._ends_op(span[NAME], parent):
            self._close_op(t)
        return t

    def _charge(self, seconds):
        """Book tracer work done inside the current span, so self time excludes it."""
        if self._stack:
            self.spans[self._stack[-1]][EXCLUDED] += seconds

    def wrap(self, spec, fn):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            name = spec.key
            if spec.variant is not None:
                name = f"{name}.{spec.variant(arguments)}"
            tracer._charge(time.perf_counter() - t0)
            idx = tracer.open(name, arguments)
            try:
                result = fn(*args, **kwargs)
            finally:
                t_end = tracer.close(idx)
            span = tracer.spans[idx]
            if spec.cost is not None:
                span[FLOPS], span[TAPS] = spec.cost(arguments, result)
            if spec.counts_bytes:
                span[BYTES] = array_bytes(arguments, result)
            if spec.per_call is not None:
                span[QTY] = spec.per_call(arguments)
            tracer._charge(time.perf_counter() - t_end)
            return result

        return traced

    def install(self):
        """Rebind every traced function at each gipad module that binds it."""
        modules = [importlib.import_module(f"gipad.{m}") for m in GIPAD_MODULES]
        for spec in SPANS:
            home = importlib.import_module(f"gipad.{spec.module}")
            if "." in spec.qualname:
                cls_name, meth = spec.qualname.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(spec, getattr(cls, meth)))
                self.bindings[spec.key] = [f"gipad.{spec.module}.{cls_name}"]
                continue
            original = getattr(home, spec.qualname)
            traced = self.wrap(spec, original)
            sites = []
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        sites.append(f"{mod.__name__}.{attr}")
            self.bindings[spec.key] = sites

    def request(self, fn, *args):
        """Run one benchmark request as an operation span."""
        idx = self.open(REQUEST)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    # -- results ------------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, self seconds, inclusive seconds, work."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None and span[END] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        out = {}
        for i, span in enumerate(self.spans):
            if span[END] is None:
                continue
            dur = span[END] - span[START]
            row = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                              "flops": 0, "bytes": 0, "tap_flops": 0.0,
                                              "qty": 0})
            row["calls"] += 1
            row["self_s"] += dur - child_time[i] - span[EXCLUDED]
            row["incl_s"] += dur
            row["flops"] += span[FLOPS]
            row["bytes"] += span[BYTES]
            if span[TAPS] is not None:
                row["tap_flops"] += span[TAPS] * span[FLOPS]
            if span[QTY] is not None:
                row["qty"] += span[QTY]
        return out

    def coverage(self):
        """Per operation: share of its wall time spent inside traced spans.

        Counted are the outermost spans of the operation (those whose parent
        lies outside it, or is the request span that defines it)."""
        covered = dict.fromkeys(self.op_windows, 0.0)
        for i, span in enumerate(self.spans):
            op = span[OP]
            if op is None or span[END] is None or i in self._op_roots:
                continue
            parent = span[PARENT]
            if parent is None or self.spans[parent][OP] != op or parent in self._op_roots:
                covered[op] += span[END] - span[START]
        out = []
        for op, (start, end) in self.op_windows.items():
            if end is not None and end > start:
                out.append(covered[op] / (end - start))
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                end = "" if s[END] is None else f"{s[END] - t0:.9f}"
                parent = "" if s[PARENT] is None else s[PARENT]
                op = "" if s[OP] is None else s[OP]
                fh.write(f"{i},{s[NAME]},{s[START] - t0:.9f},{end},{parent},{op}\n")


# ---------------------------------------------------------------------------
# Per-layer metric names
# ---------------------------------------------------------------------------

# Variants each traced function is reported under.
VARIANTS = {
    "ops.conv2d": ("depthwise", "dense"),
    "ops.conv2d_backward": ("depthwise", "dense"),
    "tensor.batch_norm_forward": ("train", "infer"),
    "cli.main": ("eval", "audit"),
}


def layer_stats(spec):
    """(stat, unit, better) reported for one traced function."""
    stats = [("calls", "count", "lower"), ("self_s", "s", "lower")]
    if spec.cost is not None:
        stats.append(("gflop_per_s", "GFLOP/s", "higher"))
    if spec.counts_bytes:
        stats.append(("gb_per_s", "GB/s", "higher"))
    if spec.cost is not None and spec.module == "ops":
        stats.append(("useful_tap_frac", "fraction", "higher"))
    if spec.per_call is not None:
        stats.append(("scores_per_call", "count", "higher"))
    return stats


TRACE_STATS = (
    ("trace.ops", "count", "higher"),
    ("trace.op_ms_p50", "ms", "lower"),
    ("trace.coverage_p50", "fraction", "higher"),
    ("trace.coverage_min", "fraction", "higher"),
    ("trace.spans", "count", "lower"),
)


def per_layer_declarations():
    """[(metric name, unit, better)] for every per-layer metric."""
    out = []
    for spec in SPANS:
        variants = VARIANTS.get(spec.key)
        names = [f"{spec.key}.{v}" for v in variants] if variants else [spec.key]
        for name in names:
            out += [(f"{name}.{stat}", unit, better) for stat, unit, better in layer_stats(spec)]
    return out + list(TRACE_STATS)


def per_layer_metrics(tracer, op_seconds):
    """Metric name -> value for every per-layer metric."""
    agg = tracer.aggregate()
    values = {name: 0 for name, _, _ in per_layer_declarations()}
    for span_name, row in agg.items():
        if f"{span_name}.calls" not in values:
            continue
        values[f"{span_name}.calls"] = row["calls"]
        values[f"{span_name}.self_s"] = row["self_s"]
        if row["incl_s"] > 0:
            if f"{span_name}.gflop_per_s" in values:
                values[f"{span_name}.gflop_per_s"] = row["flops"] / 1e9 / row["incl_s"]
            if f"{span_name}.gb_per_s" in values:
                values[f"{span_name}.gb_per_s"] = row["bytes"] / 1e9 / row["incl_s"]
        if f"{span_name}.useful_tap_frac" in values and row["flops"]:
            values[f"{span_name}.useful_tap_frac"] = row["tap_flops"] / row["flops"]
        if f"{span_name}.scores_per_call" in values:
            values[f"{span_name}.scores_per_call"] = row["qty"] / row["calls"]
    cov = tracer.coverage()
    values["trace.ops"] = len(cov)
    values["trace.op_ms_p50"] = statistics.median(op_seconds) * 1e3 if op_seconds else 0
    values["trace.coverage_p50"] = statistics.median(cov) if cov else 0
    values["trace.coverage_min"] = min(cov) if cov else 0
    values["trace.spans"] = len(tracer.spans)
    return values
