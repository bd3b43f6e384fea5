"""In-memory span recorder installed around cmil's layer boundaries.

The recorder replaces module attributes that callers look up at call time
(for example ``cmil.trainer.image_forward``, which ``joint_forward`` calls by
that name) with thin wrappers that open a span, call the original and close
the span.  Nothing under ``src/`` is edited; ``uninstall`` puts every original
back.  A wrapped name that no longer exists is reported as absent.

A span is ``(op, name, start_ns, end_ns, parent)``: ``op`` groups the spans of
one benchmark op (or one set-up round), ``parent`` is the index of the
enclosing span or -1.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field


@dataclass
class Span:
    op: str
    name: str
    start: int
    end: int
    parent: int


@dataclass(frozen=True)
class Wrap:
    """One wrapped name: ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    layer: str


# Layer boundaries.  Several callers import the same function under their own
# name, so one layer can be wrapped in more than one place.
WRAPS = (
    Wrap("cmil.synthgen", "gen_dataset", "synthgen.gen"),
    Wrap("cmil.synthgen", "gen_bag", "synthgen.gen"),
    Wrap("cmil.bagio", "read_bag", "bagio.read_bag"),
    Wrap("cmil.trainer", "load_checkpoint", "trainer.load_checkpoint"),
    Wrap("cmil.trainer", "train", "trainer.train"),
    Wrap("cmil.trainer", "project", "projection.project"),
    Wrap("cmil.trainer", "image_forward", "image_branch.forward"),
    Wrap("cmil.trainer", "select", "topk.select"),
    Wrap("cmil.trainer", "gather_concepts", "topk.gather"),
    Wrap("cmil.trainer", "concept_forward", "concept_branch.forward"),
    Wrap("cmil.trainer", "total_loss", "trainer.loss"),
    Wrap("cmil.autodiff", "Tensor.backward", "autodiff.backward"),
    Wrap("cmil.trainer", "AdamW.step", "trainer.adamw"),
    Wrap("cmil.trainer", "_validation_auc", "trainer.validation"),
    Wrap("cmil.trainer", "predict", "trainer.predict"),
    Wrap("cmil.evaluation", "predict", "trainer.predict"),
    Wrap("cmil.evaluation", "evaluate_split", "evaluation"),
    Wrap("cmil.evaluation", "global_explanations", "explain.global"),
    Wrap("cmil.evaluation", "silhouette", "metrics.silhouette"),
    Wrap("cmil.evaluation", "js_divergence", "metrics.jsd"),
    Wrap("cmil.explain", "project_2d", "embed2d.project_2d"),
    Wrap("cmil.embed2d", "calibrate_conditionals", "embed2d.calibrate"),
    Wrap("cmil.embed2d", "_q_matrix", "embed2d.q_matrix"),
    Wrap("cmil.render", "write_global_report", "render.global_report"),
)

# Layers that only count calls: a span per call would cost more than the call.
COUNT_ONLY = {"embed2d.q_matrix"}

OP_ROOT = "op"


def _image_flops(I, params) -> float:
    """Forward FLOPs of the image branch: projector, gated attention, head."""
    n = I.shape[0]
    d, d_h = params.proj_w.shape
    d_a = params.attn_v.shape[1]
    return 2.0 * n * (d * d_h + 2 * d_h * d_a + d_a + d_h)


def _tape_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _file_bytes(path) -> int:
    path = os.fspath(path)
    return os.path.getsize(path) + os.path.getsize(os.path.splitext(path)[0] + ".json")


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    op: str = "-"
    # tracemalloc slows every allocation, so it runs only while this is set
    # (the untimed warm-up op), never in a measured op.
    measure_memory: bool = False
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self.op, name, time.perf_counter_ns(), 0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def count(self, key: str, amount: float = 1) -> None:
        bucket = self.counts.setdefault(self.op, {})
        bucket[key] = bucket.get(key, 0) + amount

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for w in WRAPS:
            try:
                owner, name, original = _resolve(w)
            except (ImportError, AttributeError):
                if w.layer not in self.absent:
                    self.absent.append(w.layer)
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrapper(w.layer, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrapper(self, layer: str, fn):
        tracer = self

        if layer in COUNT_ONLY:
            def counted(*args, **kwargs):
                tracer.count(layer + "_calls")
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            index = tracer.begin(layer)
            try:
                if layer == "concept_branch.forward":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", RuntimeWarning)
                        out = fn(*args, **kwargs)
                    n = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
                    tracer.count("concept_branch.degenerate", n)
                    return out
                if layer == "metrics.silhouette" and tracer.measure_memory:
                    tracemalloc.start()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        bucket = tracer.counts.setdefault(tracer.op, {})
                        bucket["metrics.silhouette_peak_bytes"] = max(
                            bucket.get("metrics.silhouette_peak_bytes", 0), peak)
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)
                if layer == "image_branch.forward":
                    tracer.count("image_branch.flops", _image_flops(args[0], args[1]))
                elif layer == "autodiff.backward":
                    tracer.count("autodiff.tape_nodes", _tape_nodes(args[0]))
                elif layer == "bagio.read_bag":
                    tracer.count("bagio.bytes", _file_bytes(args[0]))

        return traced

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps([s.op, s.name, s.start, s.end, s.parent]) + "\n")


def _resolve(w: Wrap):
    owner = importlib.import_module(w.module)
    *path, name = w.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    return owner, name, original


def self_times(spans) -> list:
    """Self time of each span in ns: its duration minus its children's."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def check_nesting(spans) -> None:
    """Raise if a span is not inside its parent or shares an op with a stranger."""
    for i, s in enumerate(spans):
        if s.end < s.start:
            raise ValueError(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if not (p.start <= s.start and s.end <= p.end and p.op == s.op and s.parent < i):
                raise ValueError(f"span {i} ({s.name}) is not nested in its parent {p.name}")


def layer_totals(spans, ops) -> dict:
    """Summed self time in ns per span name over the spans of the given ops."""
    ops = set(ops)
    totals: dict = {}
    for s, self_ns in zip(spans, self_times(spans)):
        if s.op in ops:
            totals[s.name] = totals.get(s.name, 0) + self_ns
    return totals
