"""Span tracing of the gbmpatch layers from outside the package.

``install`` wraps the public functions each layer exposes. A module-level
function is replaced in its defining module and every name another gbmpatch
module imported it under is rebound to the wrapper, so calls made inside the
package are seen too; a method is replaced on its class. Tensor ops are
discovered at run time (public functions of ``gbmpatch.tensor`` annotated to
return a Tensor), so a new op is traced without editing this file.

Spans are ``[name, start, end, parent, extra]`` lists kept in memory, where
``parent`` indexes the enclosing span in the same list (-1 at the top). They
are written out once, when the traced run ends. ``layer_metrics`` turns the
span lists of one or more processes into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import sys
import time

LAYERS = ("cli", "cv", "data", "metrics", "checkpoint", "model",
          "encoder", "head", "tensor")

# percentiles tried for the step-time tail, highest first
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name, fn, pre=None, post=None):
        """``fn`` timed as a span; ``pre(args)`` runs before the span starts
        and ``post(out, args, kwargs)`` after it ends, and either may fill the
        span's ``extra`` slot."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = pre(args) if pre is not None else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, extra]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if post is not None:
                record[4] = post(out, args, kwargs)
            return out

        return traced

    def patch(self, owner, attr, name, pre=None, post=None):
        """Replace ``owner.attr`` (module or class) with a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self.wrap(name, original, pre, post)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for module_name, module in list(sys.modules.items()):
                if module is owner or not (module_name == "gbmpatch"
                                           or module_name.startswith("gbmpatch.")):
                    continue
                targets += [(module, key) for key, value in vars(module).items()
                            if value is original]
        for target, key in targets:
            setattr(target, key, wrapper)
            self._restore.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()


def tensor_ops(tensor_module) -> list:
    """Public functions of the tensor module that return a Tensor."""
    return sorted(
        name for name, fn in vars(tensor_module).items()
        if inspect.isfunction(fn) and not name.startswith("_")
        and fn.__module__ == tensor_module.__name__
        and fn.__annotations__.get("return") in ("Tensor", tensor_module.Tensor))


def install(tracer: Tracer) -> list:
    """Wrap every traced gbmpatch function; returns the tensor op names."""
    import gbmpatch.checkpoint as checkpoint
    import gbmpatch.cv as cv
    import gbmpatch.data as data
    import gbmpatch.encoder as encoder
    import gbmpatch.head as head
    import gbmpatch.metrics as metrics
    import gbmpatch.model as model
    import gbmpatch.tensor as tensor

    def node(out, args, kwargs):
        # (output bytes, output is a new graph node); an op that hands back
        # one of its inputs (eval-mode dropout) computed nothing
        if any(out is a for a in args):
            return (0, False)
        return (out.data.nbytes, bool(out._parents))

    def graph(args):
        # (non-leaf nodes, bytes they hold, batch); the batch is the leading
        # axis of the loss's input, since a short last batch holds less
        loss = args[0]
        nodes = [n for n in tensor.ComputationRecord.trace(loss).nodes
                 if n._parents]
        batch = loss._parents[0].shape[0] if loss._parents and loss._parents[0].ndim else 0
        return (len(nodes), sum(n.data.nbytes for n in nodes), batch)

    ops = tensor_ops(tensor)
    for op in ops:
        tracer.patch(tensor, op, f"tensor.{op}", post=node)
    tracer.patch(tensor.Tensor, "backward", "tensor.backward", pre=graph)

    tracer.patch(encoder, "encode_batch", "encoder.encode_batch")
    tracer.patch(encoder, "embed", "encoder.embed")
    tracer.patch(encoder, "tile_image", "encoder.tile_image")
    tracer.patch(head, "aggregate_features", "head.aggregate_features")
    tracer.patch(head, "head_forward", "head.head_forward")
    tracer.patch(model.PatchClassifier, "loss", "model.loss")
    tracer.patch(model.PatchClassifier, "logits", "model.logits")

    default_chunk = inspect.signature(
        model.PatchClassifier.predict).parameters["batch_size"].default

    def chunks(out, args, kwargs):
        batch = kwargs.get("batch_size", args[2] if len(args) > 2 else default_chunk)
        return math.ceil(len(out) / batch)

    tracer.patch(model.PatchClassifier, "predict", "model.predict", post=chunks)

    tracer.patch(cv, "adam_step", "cv.adam_step")
    tracer.patch(cv, "train_fold", "cv.train_fold")
    tracer.patch(cv, "stratified_kfold", "cv.stratified_kfold")

    tracer.patch(data, "generate_synthetic", "data.generate_synthetic",
                 post=lambda out, args, kwargs: len(out.entries))
    tracer.patch(data, "load_preprocessed", "data.load_preprocessed",
                 post=lambda out, args, kwargs: len(out[1]))
    tracer.patch(data, "load_ppm", "data.load_ppm")
    tracer.patch(data, "resize_bilinear", "data.resize_bilinear")

    tracer.patch(metrics.ConfusionMatrix, "add", "metrics.confusion_add")
    for fn in ("one_vs_rest", "basic_metrics", "micro_average",
               "mcc_multiclass", "metrics_csv", "confusion_text"):
        tracer.patch(metrics, fn, f"metrics.{fn}")

    tracer.patch(checkpoint, "save_model", "checkpoint.save_model",
                 post=lambda out, args, kwargs: os.path.getsize(args[0]))
    tracer.patch(checkpoint, "load_model", "checkpoint.load_model")
    return ops


# ----------------------------------------------------------------------
# spans -> per-layer metrics


def self_times(spans) -> dict:
    """Seconds per layer spent in that layer's spans minus their children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def step_times(spans) -> list:
    """A train step runs from ``model.loss`` entry to the end of the next
    ``cv.adam_step``; seconds per step."""
    steps, start = [], None
    for name, t0, t1, _, _ in spans:
        if name == "model.loss" and start is None:
            start = t0
        elif name == "cv.adam_step" and start is not None:
            steps.append(t1 - start)
            start = None
    return steps


def tail(samples: list):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, else the median."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, ordered[min(n - 1, int(math.ceil(pct / 100.0 * n)) - 1)]
    return 50, statistics.median(ordered)


class Repeats:
    """Per-occurrence values of the exact counts, to check they repeat."""

    def __init__(self):
        self.values: dict = {}

    def add(self, name, value):
        self.values.setdefault(name, []).append(value)

    def first(self, name, default=0):
        return self.values.get(name, [default])[0]

    def broken(self) -> list:
        return sorted(name for name, vals in self.values.items()
                      if any(v != vals[0] for v in vals))


# a span's scope is its nearest enclosing span of one of these names
SCOPES = ("model.loss", "model.predict", "metrics.micro_average")


def layer_metrics(processes: list, ops: list, step_samples=None,
                  import_s=()):
    """Per-layer metrics from span lists (one list per traced process).

    Returns ``(metrics, repeats)``: metrics maps name -> (value, unit);
    ``repeats`` holds the exact counts, one value per occurrence, for the
    caller to check. ``step_samples`` (seconds) replaces the span-derived
    step times, for loops the benchmark timed itself; ``import_s`` holds the
    ``import gbmpatch.cli`` times of the traced CLI calls.
    """
    total: dict = {}       # span name -> seconds, over all spans
    calls: dict = {}       # span name -> spans
    in_step: dict = {}     # span name -> seconds inside a train step
    out_bytes: dict = {}   # tensor op -> output bytes inside a train step
    self_s = dict.fromkeys(LAYERS, 0.0)
    repeats = Repeats()
    steps = []
    n_steps = n_chunks = n_pooled = graph_batch = 0
    metrics_top_s = 0.0
    for spans in processes:
        for layer, seconds in self_times(spans).items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        steps += step_times(spans)
        scope = []             # per span: index of its scope span, or -1
        in_metrics = []        # per span: inside a metrics-layer span
        per_scope: dict = {}   # scope index -> count of its tensor ops / calls
        for i, (name, t0, t1, parent, extra) in enumerate(spans):
            up = scope[parent] if parent >= 0 else -1
            scope.append(i if name in SCOPES else up)
            outer_metrics = parent >= 0 and in_metrics[parent]
            in_metrics.append(name.startswith("metrics.") or outer_metrics)
            owner = spans[up][0] if up >= 0 else None
            seconds = t1 - t0
            total[name] = total.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + 1
            is_op = name.startswith("tensor.") and name != "tensor.backward"

            if name == "model.loss":
                n_steps += 1
                per_scope[i] = 0
            elif name == "model.predict":
                n_chunks += extra
                per_scope[i] = 0
            elif name == "metrics.micro_average":
                n_pooled += 1
                per_scope[i] = 0
            elif name == "tensor.backward":
                nodes, nbytes, batch = extra
                repeats.add("tensor.graph_nodes", nodes)
                repeats.add(f"tensor.graph_bytes.batch{batch}", nbytes)
                graph_batch = max(graph_batch, batch)
            elif name == "checkpoint.save_model":
                repeats.add("checkpoint.bytes", extra)
            if name.startswith("metrics.") and not outer_metrics:
                metrics_top_s += seconds

            if owner == "model.loss" and (is_op or name.startswith(("encoder.", "head."))):
                in_step[name] = in_step.get(name, 0.0) + seconds
                if is_op:
                    per_scope[up] += 1
                    out_bytes[name] = out_bytes.get(name, 0) + extra[0]
            elif owner == "model.predict" and is_op and extra[1]:
                per_scope[up] += 1
            elif owner == "metrics.micro_average" and name == "metrics.one_vs_rest":
                per_scope[up] += 1
        for i, count in per_scope.items():
            name = spans[i][0]
            if name == "model.loss":
                repeats.add("tensor.fwd_calls", count)
            elif name == "model.predict" and spans[i][4]:
                chunks = spans[i][4]
                repeats.add("tensor.predict_graph_nodes",
                            count // chunks if count % chunks == 0 else count / chunks)
            elif name == "metrics.micro_average":
                repeats.add("metrics.one_vs_rest_calls", count)

    def per(amount, n, scale=1.0):
        return amount / n * scale if n else 0.0

    def step_ms(*names):
        return per(sum(in_step.get(n, 0.0) for n in names), n_steps, 1e3)

    def call_ms(name):
        return per(total.get(name, 0.0), calls.get(name, 0), 1e3)

    def rate(name):  # items per second; ``extra`` holds the items
        items = sum(s[4] for spans in processes for s in spans if s[0] == name)
        return per(items, total.get(name, 0.0))

    m = {}
    for op in ops:
        m[f"tensor.{op}.fwd_ms"] = (step_ms(f"tensor.{op}"), "ms")
        m[f"tensor.{op}.out_mb"] = (
            per(out_bytes.get(f"tensor.{op}", 0), n_steps, 2.0 ** -20), "MiB")
    m["tensor.fwd_calls"] = (repeats.first("tensor.fwd_calls"), "count")
    m["tensor.backward_ms"] = (call_ms("tensor.backward"), "ms")
    m["tensor.graph_nodes"] = (repeats.first("tensor.graph_nodes"), "count")
    m["tensor.graph_mb"] = (
        repeats.first(f"tensor.graph_bytes.batch{graph_batch}") * 2.0 ** -20, "MiB")
    m["tensor.predict_graph_nodes"] = (
        repeats.first("tensor.predict_graph_nodes"), "count")
    m["encoder.forward_ms"] = (step_ms("encoder.encode_batch"), "ms")
    m["encoder.embed_ms"] = (step_ms("encoder.embed"), "ms")
    m["encoder.tile_ms"] = (step_ms("encoder.tile_image"), "ms")
    m["head.forward_ms"] = (step_ms("head.aggregate_features", "head.head_forward"), "ms")
    m["model.predict_chunk_ms"] = (per(total.get("model.predict", 0.0), n_chunks, 1e3), "ms")

    samples = steps if step_samples is None else step_samples
    pct, value = tail(samples) if samples else (0, 0.0)
    m["cv.step_ms.p50"] = (statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    m["cv.step_ms.tail"] = (value * 1e3, "ms")
    m["cv.step_ms.tail_pct"] = (pct, "pct")
    m["cv.step_ms.samples"] = (len(samples), "count")
    m["cv.adam_step_ms"] = (call_ms("cv.adam_step"), "ms")
    m["cv.fold_s"] = (call_ms("cv.train_fold") / 1e3, "s")
    m["cv.stratify_ms"] = (call_ms("cv.stratified_kfold"), "ms")

    m["data.generate_img_s"] = (rate("data.generate_synthetic"), "img/s")
    m["data.load_ppm_ms"] = (call_ms("data.load_ppm"), "ms")
    m["data.resize_ms"] = (call_ms("data.resize_bilinear"), "ms")
    m["data.load_preprocessed_img_s"] = (rate("data.load_preprocessed"), "img/s")

    # the outermost metrics-layer spans, per pooled (micro) evaluation
    m["metrics.evaluate_ms"] = (per(metrics_top_s, n_pooled, 1e3), "ms")
    m["metrics.one_vs_rest_calls"] = (
        repeats.first("metrics.one_vs_rest_calls"), "count")

    m["checkpoint.save_ms"] = (call_ms("checkpoint.save_model"), "ms")
    m["checkpoint.load_ms"] = (call_ms("checkpoint.load_model"), "ms")
    m["checkpoint.bytes"] = (repeats.first("checkpoint.bytes"), "bytes")

    m["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return m, repeats
