"""Span recorder for the traced run, wrapped around crossrec from outside.

``Recorder`` keeps spans in memory: name, start, end, parent and, for
the spans that measure memory, the ``tracemalloc`` peak inside them.
``instrument`` replaces the public functions and methods of each layer
by wrappers that open a span around the original call, and restores
them on exit. Nothing inside the package changes, so a traced run
computes the same bits as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import tracemalloc

import numpy as np

MIB = 1024.0 * 1024.0


class Recorder:
    def __init__(self):
        self.spans = []   # dicts with id, name, parent, start, end, peak_alloc
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False):
        """Time a block; with ``memory``, also take the ``tracemalloc``
        peak inside it. Allocation tracing slows the Python code it
        watches several times over, so only the spans that report memory
        turn it on."""
        sp = {"id": len(self.spans), "name": name,
              "parent": self._stack[-1]["id"] if self._stack else None,
              "peak_alloc": None}
        self.spans.append(sp)
        self._stack.append(sp)
        if memory:
            tracemalloc.start()
        sp["start"] = time.perf_counter()
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter()
            if memory:
                sp["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def check_nesting(self) -> list:
        """Spans whose interval does not fit inside their parent's."""
        bad = []
        for sp in self.spans:
            if sp["parent"] is not None:
                p = self.spans[sp["parent"]]
                if sp["start"] < p["start"] or sp["end"] > p["end"]:
                    bad.append(sp["name"])
        return bad

    def self_times(self) -> list:
        """Duration minus the time its direct children cover."""
        out = [sp["end"] - sp["start"] for sp in self.spans]
        for sp in self.spans:
            if sp["parent"] is not None:
                out[sp["parent"]] -= sp["end"] - sp["start"]
        return out

    def write_jsonl(self, path: str) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        self_s = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for sp, own in zip(self.spans, self_s):
                fh.write(json.dumps({
                    "id": sp["id"], "name": sp["name"], "parent": sp["parent"],
                    "start_s": sp["start"] - t0, "end_s": sp["end"] - t0,
                    "self_s": own, "peak_alloc_bytes": sp["peak_alloc"]}) + "\n")


class NullRecorder:
    """Stands in for Recorder in untraced rounds."""

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False):
        yield None


class Counters(dict):
    def add(self, key: str, n) -> None:
        self[key] = self.get(key, 0) + int(n)


@contextlib.contextmanager
def instrument(rec: Recorder, counters: Counters):
    """Wrap every layer's public entry points for the duration of the block."""
    from crossrec import data, evaluation, graph, model, numeric, training

    patches = []

    def wrap(owner, attr, name, after=None, memory=False):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with rec.span(name, memory) as sp:
                out = orig(*args, **kwargs)
            if after is not None:
                after(sp, args, out)
            return out

        patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def after_has_edges(sp, args, out):
        if sp["parent"] is not None and \
                rec.spans[sp["parent"]]["name"] == "training.sample_triplets":
            counters.add("training.negative_candidates", len(out))
            counters.add("training.negatives_accepted", np.count_nonzero(~out))

    def after_sample(sp, args, out):
        counters.add("training.triplets", len(out))
        counters.add("training.triplets_dropped", args[2] - len(out))

    def after_save(sp, args, out):
        counters.add("model.checkpoint_bytes", os.path.getsize(args[1]))

    def after_tasks(sp, args, out):
        counters.add("evaluation.tasks", len(out))
        counters.add("evaluation.tasks_skipped", len(args[0].test) - len(out))

    def after_parse(sp, args, out):
        counters["data.interactions"] = len(out.interactions)

    wrap(data, "parse_log", "data.parse_log", after_parse, memory=True)
    wrap(data, "split_leave_latest", "data.split")
    wrap(graph, "build_graph", "graph.build")
    wrap(graph.HeteroGraph, "has_edges", "graph.has_edges", after_has_edges)
    wrap(numeric.CsrAggregator, "apply", "numeric.aggregate")
    wrap(numeric.CsrAggregator, "apply_transpose", "numeric.aggregate")
    # training.py binds these names at import, so they are wrapped there
    wrap(training, "adam_step", "numeric.adam_step")
    wrap(training, "sample_triplets", "training.sample_triplets", after_sample)
    wrap(training, "compute_loss_and_grads", "training.loss_grad")
    wrap(training.Trainer, "train_epoch", "training.epoch")
    wrap(model.DisentangledGraphModel, "forward", "model.forward")
    wrap(model.DisentangledGraphModel, "backward", "model.backward")
    wrap(model, "save_checkpoint", "model.save_checkpoint", after_save)
    wrap(model, "load_checkpoint", "model.load_checkpoint")
    wrap(evaluation, "build_eval_tasks", "evaluation.build_eval_tasks", after_tasks)
    wrap(evaluation, "evaluate", "evaluation.evaluate", memory=True)
    try:
        yield
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


def layer_metrics(rec: Recorder, counters: Counters) -> dict:
    """Per-layer figures of one traced round, keyed by metric name.

    Calls made by the benchmark's own checks (spans under
    ``bench.check``) are left out, so counts reflect the pipeline alone.
    """
    own = rec.self_times()
    total = {}
    calls = {}
    self_s = {}
    peak = {}
    epochs = []
    in_check = []
    for sp, s in zip(rec.spans, own):
        name, dur = sp["name"], sp["end"] - sp["start"]
        # a parent's span is opened, so listed, before its children's
        in_check.append(name == "bench.check"
                        or (sp["parent"] is not None and in_check[sp["parent"]]))
        if in_check[-1]:
            continue
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        if sp["peak_alloc"] is not None:
            peak[name] = max(peak.get(name, 0), sp["peak_alloc"])
        if name == "training.epoch":
            epochs.append(dur * 1e3)
    accepted = counters.get("training.negatives_accepted", 0)
    drawn = counters.get("training.negative_candidates", 0)
    m = {
        "data.parse_log.s": total["data.parse_log"],
        "data.split.s": total["data.split"],
        "data.interactions": counters["data.interactions"],
        "data.parse_log.peak_alloc_mb": peak["data.parse_log"] / MIB,
        "graph.build.s": total["graph.build"],
        "graph.has_edges.s": total.get("graph.has_edges", 0.0),
        "graph.has_edges.calls": calls.get("graph.has_edges", 0),
        "numeric.aggregate.s": total.get("numeric.aggregate", 0.0),
        "numeric.aggregate.calls": calls.get("numeric.aggregate", 0),
        "numeric.adam_step.s": total["numeric.adam_step"],
        "numeric.adam_step.calls": calls["numeric.adam_step"],
        "model.forward.s": total["model.forward"],
        "model.forward.calls": calls["model.forward"],
        "model.backward.s": total["model.backward"],
        "model.save_checkpoint.s": total["model.save_checkpoint"],
        "model.load_checkpoint.s": total["model.load_checkpoint"],
        "model.checkpoint_bytes": counters["model.checkpoint_bytes"],
        "training.sample_triplets.s": total["training.sample_triplets"],
        "training.triplets": counters["training.triplets"],
        "training.triplets_dropped": counters["training.triplets_dropped"],
        "training.negative_accept_ratio": accepted / drawn if drawn else 1.0,
        "training.negatives_accepted": accepted,
        "training.negative_candidates": drawn,
        "training.loss_grad.self_s": self_s["training.loss_grad"],
        "training.epoch.p50_ms": float(np.percentile(epochs, 50)),
        "training.epoch.p90_ms": float(np.percentile(epochs, 90)),
        "training.fit.peak_alloc_mb": peak["training.fit"] / MIB,
        "evaluation.build_eval_tasks.s": total["evaluation.build_eval_tasks"],
        "evaluation.tasks": counters["evaluation.tasks"],
        "evaluation.tasks_skipped": counters["evaluation.tasks_skipped"],
        "evaluation.evaluate.s": total["evaluation.evaluate"],
        "evaluation.evaluate.peak_alloc_mb": peak["evaluation.evaluate"] / MIB,
        "pipeline.self_s": self_s["pipeline"],
    }
    return m
