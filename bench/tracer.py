"""Spans around the package's public entry points, kept in memory.

The tracer patches each name where the package looks it up (a module
global or a class attribute), so no package code changes.  A span's self
time is its duration minus the time of the spans it encloses; self times
and call counts accumulate per layer, named after the package's modules.
Leaf calls made by the hundred thousand (``exit_erasure``) only accumulate;
every other span is also kept for the trace file.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property

import numpy as np

from gldpcsim import component, de, decoder, gf2, graph, qc, sim


@contextmanager
def patched(targets):
    """Replace ``owner.attr`` by ``make(original)`` for each (owner, attr,
    make) target while the block runs."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, cached_property):
                new = cached_property(make(original.func))
                new.__set_name__(owner, attr)
            else:
                new = make(original)
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _frames(args, result):
    return sum(r.trials for r in result)


def _iterations(args, result):
    return int(result.iterations.sum())


def _rows(args, result):
    return int(np.prod(np.shape(args[1])[:-1]))


# (owner, attribute, layer, extra count name, count function, keep spans)
SPANS = [
    (sim, "run_bler", "sim", "sim.frames", _frames, True),
    (sim, "modulate_qpsk", "channel", None, None, True),
    (sim, "awgn_llr", "channel", None, None, True),
    (sim, "bec_erase", "channel", None, None, True),
    (graph.Encoder, "encode_batch", "graph.encode", None, None, True),
    (decoder.Decoder, "decode_batch", "decoder", "decoder.frame_iterations", _iterations, True),
    (decoder.Decoder, "decode_bec", "decoder", "decoder.frame_iterations", _iterations, True),
    (component.ComponentCode, "map_extrinsic_all", "component.map", "component.map_rows", _rows, True),
    (de, "rate_threshold_sweep", "de", None, None, True),
    (component.ComponentCode, "exit_erasure", "component.exit_erasure", None, None, False),
    (sim, "search_shifts", "qc.search", None, None, True),
    (qc, "girth_of", "qc.girth", None, None, True),
    (sim, "expand", "graph.build", None, None, True),
    (graph.TannerGraph, "__init__", "graph.build", None, None, True),
    (sim, "place_gc_nodes", "graph.build", None, None, True),
    (sim, "expand_full_parity", "graph.build", None, None, True),
    (sim, "build_encoder", "graph.build", None, None, True),
    (gf2, "systematic_form", "gf2.systematic_form", None, None, True),
    (decoder.Decoder, "__init__", "decoder.init", None, None, True),
    (component.ComponentCode, "__init__", "component.init", None, None, True),
    (component.ComponentCode, "_erasure_failure_counts", "component.init", None, None, True),
]

# calls counted without a span: (owner, attribute, count name)
COUNTS = [
    (qc, "girth_condition_holds", "qc.candidates"),
    (de, "de_check_mix", "de.mix_calls"),
    (de, "de_converges", "de.bisection_steps"),
]

# per-layer metric -> (phase, accumulator, key); "self" keys are layers
METRICS = {
    "sim.self_s": ("solve", "self", "sim"),
    "sim.frames": ("solve", "count", "sim.frames"),
    "channel.s": ("solve", "self", "channel"),
    "channel.calls": ("solve", "count", "channel"),
    "graph.encode_s": ("solve", "self", "graph.encode"),
    "decoder.self_s": ("solve", "self", "decoder"),
    "decoder.frame_iterations": ("solve", "count", "decoder.frame_iterations"),
    "component.map_s": ("solve", "self", "component.map"),
    "component.map_rows": ("solve", "count", "component.map_rows"),
    "component.exit_erasure_s": ("solve", "self", "component.exit_erasure"),
    "component.exit_erasure_calls": ("solve", "count", "component.exit_erasure"),
    "de.self_s": ("solve", "self", "de"),
    "de.mix_calls": ("solve", "count", "de.mix_calls"),
    "de.bisection_steps": ("solve", "count", "de.bisection_steps"),
    "qc.search_s": ("setup", "self", "qc.search"),
    "qc.girth_s": ("setup", "self", "qc.girth"),
    "qc.candidates": ("setup", "count", "qc.candidates"),
    "graph.build_s": ("setup", "self", "graph.build"),
    "gf2.systematic_form_s": ("setup", "self", "gf2.systematic_form"),
    "decoder.init_s": ("setup", "self", "decoder.init"),
    "component.init_s": ("setup", "self", "component.init"),
}


class Tracer:
    """Span recorder with per-layer self time and call counts."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []      # (span id, parent id, layer, round, start, end)
        self._open = []      # [span id, time covered by child spans]
        self._ids = itertools.count()
        self.round = -1      # -1 during set-up

    def _span(self, layer, fn, count_name, count, keep):
        def wrapper(*args, **kwargs):
            span_id = next(self._ids) if keep else None
            parent = self._open[-1][0] if self._open else None
            frame = [span_id, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.self_time[layer] += end - start - frame[1]
                self.counts[layer] += 1
                if self._open:
                    self._open[-1][1] += end - start
                if keep:
                    self.spans.append((span_id, parent, layer, self.round, start, end))
            if count_name is not None:
                self.counts[count_name] += count(args, result)
            return result
        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def installed(self):
        targets = [(owner, attr,
                    lambda fn, l=layer, n=name, c=count, k=keep: self._span(l, fn, n, c, k))
                   for owner, attr, layer, name, count, keep in SPANS]
        targets += [(owner, attr, lambda fn, n=name: self._count(n, fn))
                    for owner, attr, name in COUNTS]
        return patched(targets)

    def snapshot(self) -> dict:
        return {"self": dict(self.self_time), "count": dict(self.counts)}


def layer_metrics(setup: dict, rounds: list) -> dict:
    """Per-layer metrics: set-up values from the set-up snapshot, solve
    values as the median over rounds of each round's increment."""
    out = {}
    for name, (phase, acc, key) in METRICS.items():
        if phase == "setup":
            value = setup[acc].get(key, 0)
        else:
            value = float(np.median([r[acc].get(key, 0) for r in rounds]))
        if acc == "count":
            out[name] = {"value": int(value), "unit": "count"}
        else:
            out[name] = {"value": float(value), "unit": "s"}
    return out


def increment(before: dict, after: dict) -> dict:
    return {acc: {k: v - before[acc].get(k, 0) for k, v in after[acc].items()}
            for acc in after}
