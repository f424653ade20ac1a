"""Spans around phcnet's public functions, recorded from outside the library.

:class:`Patches` swaps attributes of phcnet modules, classes or model
instances for wrappers and puts the originals back on :meth:`restore`.
:class:`Tracer` records one span per wrapped call (name, start, end, parent
span, thread), keeps the spans in memory until :meth:`Tracer.write`, and
:func:`per_layer` derives every per-layer metric from them.

A backward rule is traced by wrapping the ``_backward_rule`` of the node an
op returns, so its span nests under the ``autograd.backward`` span of the
step that runs it.  A span's self time is its duration minus the time its
child spans cover; children always run on their parent's thread.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

_MISSING = object()

# fields of one span record
NAME, START, END, PARENT, THREAD, NBYTES, ITEMS = range(7)


class Patches:
    """Attribute swaps, undone last first by :meth:`restore`."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


class Tracer:
    """In-memory span buffer with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.origin = time.perf_counter()
        self.main_thread = threading.get_ident()
        self._local = threading.local()

    def wrap(self, name, fn, measure=None):
        """Return ``fn`` recording a span per call.

        ``name`` is a string, or a callable of the call's arguments that
        returns one.  ``measure(out, *args)`` returns the ``(bytes, items)``
        stored on the span.
        """
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name if isinstance(name, str) else name(*args, **kwargs),
                    time.perf_counter(), None, stack[-1] if stack else None,
                    threading.get_ident(), 0, 0]
            self.spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[NBYTES], span[ITEMS] = measure(out, *args)
            return out

        return traced

    def wrap_op(self, name, fn):
        """Trace an autograd op as ``<name>.fwd`` and its rule as ``<name>.bwd``."""
        def op(*args, **kwargs):
            base = name if isinstance(name, str) else name(*args, **kwargs)
            node = self.wrap(base + ".fwd", fn)(*args, **kwargs)
            if node._backward_rule is not None:
                node._backward_rule = self.wrap(base + ".bwd", node._backward_rule)
            return node

        return op

    def write(self, path) -> None:
        """Store the spans as JSON lines: a header, then one span per line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        threads = {self.main_thread: 0}
        for span in self.spans:
            threads.setdefault(span[THREAD], len(threads))
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "threads": len(threads),
                                 "main thread": 0,
                                 "times": "seconds since tracing started"}) + "\n")
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                fh.write(json.dumps({
                    "id": i, "name": span[NAME],
                    "start": span[START] - self.origin,
                    "end": span[END] - self.origin,
                    "parent": None if parent is None else index[id(parent)],
                    "thread": threads[span[THREAD]],
                    "bytes": span[NBYTES], "items": span[ITEMS],
                }) + "\n")


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

RESAMPLE_OPS = ("max_pool2d", "upsample_nearest", "concat", "narrow")


def _conv_name(x, w, b=None, stride=1, padding=0):
    s = stride if np.isscalar(stride) else stride[0]
    return f"autograd.conv2d.k{w.shape[2]}s{int(s)}"


def _out_bytes(out, *args):
    return out.nbytes, 0


def _file_bytes(out, path, *args):
    return os.path.getsize(path), 0


def install(tracer: Tracer, patches: Patches, phcnet) -> None:
    """Wrap the public functions of every phcnet layer."""
    ag, T, nn, phc = phcnet.autograd, phcnet.tensor, phcnet.nn, phcnet.phc
    data, training = phcnet.data, phcnet.training
    ckpt, metrics = phcnet.checkpoint, phcnet.metrics
    wrap, op = tracer.wrap, tracer.wrap_op

    patches.set(T, "im2col", wrap("tensor.im2col", T.im2col, _out_bytes))
    patches.set(T, "col2im", wrap("tensor.col2im", T.col2im, _out_bytes))
    patches.set(ag, "conv2d", op(_conv_name, ag.conv2d))
    patches.set(ag, "relu", op("autograd.relu", ag.relu))
    for name in RESAMPLE_OPS:
        patches.set(ag, name, op("autograd." + name, getattr(ag, name)))

    backward = ag.backward

    def graph(loss):
        """Bytes of the op outputs the step's graph holds, and its node count."""
        order = ag._topo_order(loss) if loss.requires_grad else []
        return sum(n.value.nbytes for n in order if n._backward_rule is not None), len(order)

    def backward_with_graph(loss):
        # the walk is a span of its own, outside autograd.backward
        held = wrap("trace.graph_walk", graph)(loss)
        return wrap("autograd.backward", backward, lambda out, loss: held)(loss)

    patches.set(ag, "backward", backward_with_graph)

    patches.set(phc.PHCConv2d, "build_weight",
                op("phc.build_weight", phc.PHCConv2d.build_weight))
    patches.set(nn.BatchNorm2d, "forward", op("nn.batchnorm", nn.BatchNorm2d.forward))
    for name in ("bce_with_logits", "cross_entropy"):
        patches.set(nn, name, op("nn.loss", getattr(nn, name)))
    patches.set(nn.Adam, "step", wrap("nn.adam.step", nn.Adam.step))

    for name in ("augment", "load_pgm", "gen_synthetic"):
        patches.set(data, name, wrap("data." + name, getattr(data, name)))
    for name in ("train", "evaluate"):
        patches.set(training, name, wrap("training." + name, getattr(training, name)))
    patches.set(ckpt, "save", wrap("checkpoint.save", ckpt.save, _file_bytes))
    patches.set(ckpt, "load", wrap("checkpoint.load", ckpt.load, _file_bytes))
    for name in ("auc", "accuracy", "dice"):
        patches.set(metrics, name, wrap("metrics." + name, getattr(metrics, name)))


def install_model(tracer: Tracer, patches: Patches, model) -> None:
    """Wrap the model's top-level calls (``forward_logits`` too, on PHUNet)."""
    for name in ("forward", "forward_logits"):
        if hasattr(model, name):
            patches.set(model, name, tracer.wrap("models.forward", getattr(model, name)))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CONV_KINDS = ("k3s1", "k3s2", "k1s1", "k1s2")


def _metric_table():
    """(metric, unit, better, statistic, span names) for every per-layer metric."""
    rows = []
    for op in ("im2col", "col2im"):
        span = ("tensor." + op,)
        rows += [(f"tensor.{op}.s", "s", "lower", "total", span),
                 (f"tensor.{op}.calls", "count", "lower", "calls", span),
                 (f"tensor.{op}.bytes", "bytes", "lower", "bytes", span)]
    for kind in CONV_KINDS:
        for way in ("fwd", "bwd"):
            rows.append((f"autograd.conv2d.{kind}.{way}_self_s", "s", "lower", "self",
                         (f"autograd.conv2d.{kind}.{way}",)))
    for way in ("fwd", "bwd"):
        rows.append((f"autograd.relu.{way}_s", "s", "lower", "total",
                     (f"autograd.relu.{way}",)))
    for way in ("fwd", "bwd"):
        rows.append((f"autograd.resample.{way}_s", "s", "lower", "total",
                     tuple(f"autograd.{op}.{way}" for op in RESAMPLE_OPS)))
    rows += [
        ("autograd.backward.s", "s", "lower", "total", ("autograd.backward",)),
        ("autograd.backward.self_s", "s", "lower", "self", ("autograd.backward",)),
        ("autograd.nodes_per_step", "count", "lower", "items_mean", ("autograd.backward",)),
        ("autograd.graph_bytes_peak", "bytes", "lower", "bytes_max", ("autograd.backward",)),
        ("phc.build_weight.fwd_s", "s", "lower", "total", ("phc.build_weight.fwd",)),
        ("phc.build_weight.bwd_s", "s", "lower", "total", ("phc.build_weight.bwd",)),
        ("phc.build_weight.calls", "count", "lower", "calls", ("phc.build_weight.fwd",)),
        ("nn.batchnorm.fwd_s", "s", "lower", "total", ("nn.batchnorm.fwd",)),
        ("nn.batchnorm.bwd_s", "s", "lower", "total", ("nn.batchnorm.bwd",)),
        ("nn.loss.s", "s", "lower", "total", ("nn.loss.fwd", "nn.loss.bwd")),
        ("nn.adam.step_s", "s", "lower", "total", ("nn.adam.step",)),
        ("models.forward_self_s", "s", "lower", "self", ("models.forward",)),
        ("data.augment.s", "s", "lower", "total", ("data.augment",)),
        ("data.augment.calls", "count", "lower", "calls", ("data.augment",)),
        ("data.load_pgm.s", "s", "lower", "total", ("data.load_pgm",)),
        ("data.load_pgm.calls", "count", "lower", "calls", ("data.load_pgm",)),
        ("data.gen_synthetic.s", "s", "lower", "total", ("data.gen_synthetic",)),
        ("training.train.self_s", "s", "lower", "self", ("training.train",)),
        ("training.evaluate.s", "s", "lower", "total", ("training.evaluate",)),
        ("training.steps", "count", "higher", "calls", ("nn.adam.step",)),
        ("checkpoint.save_s", "s", "lower", "total", ("checkpoint.save",)),
        ("checkpoint.load_s", "s", "lower", "total", ("checkpoint.load",)),
        ("checkpoint.bytes", "bytes", "lower", "bytes", ("checkpoint.save",)),
        ("metrics.s", "s", "lower", "total",
         ("metrics.auc", "metrics.accuracy", "metrics.dice")),
    ]
    return rows


PER_LAYER = tuple(_metric_table())

# reported by the traced run next to the span metrics
OVERHEAD = (
    ("trace.eval_pass_traced_s", "s", "lower"),
    ("trace.eval_pass_untraced_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def self_times(spans) -> dict[int, float]:
    """id(span) -> duration minus the time its child spans cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span[PARENT] is not None:
            key = id(span[PARENT])
            covered[key] = covered.get(key, 0.0) + span[END] - span[START]
    return {id(s): s[END] - s[START] - covered.get(id(s), 0.0) for s in spans}


def per_layer(spans) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER`, computed from the spans."""
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
    out = {}
    for metric, _unit, _better, stat, names in PER_LAYER:
        group = [s for n in names for s in by_name.get(n, ())]
        if stat == "total":
            value = sum(s[END] - s[START] for s in group)
        elif stat == "self":
            value = sum(own[id(s)] for s in group)
        elif stat == "calls":
            value = len(group)
        elif stat == "bytes":
            value = sum(s[NBYTES] for s in group)
        elif stat == "bytes_max":
            value = max((s[NBYTES] for s in group), default=0)
        else:  # items_mean
            value = sum(s[ITEMS] for s in group) / len(group) if group else 0
        out[metric] = value
    return out
