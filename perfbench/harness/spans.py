"""Spans around the calls into each affinitykit module, recorded from outside.

``installed(recorder)`` replaces every public function of the traced
modules, at every module attribute that refers to it (the package
namespace, the defining module and each importing module), with a
wrapper that records a span. Calls that go through module globals, such
as ``affinitykit.cli.build_corr_affinity`` or
``affinitykit.attention.softmax_rows``, are therefore seen. The layer of
a span is the module that defines the function.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict

# Layers in share-table order; "import" is measured in a fresh interpreter.
LAYERS = ("cli", "affinity", "normalize", "propagate", "attention", "selection", "rng", "verify")

# Public functions with a metric of their own; any other public function
# of a traced module gets the span name "<layer>.other".
SPAN_NAMES = {
    "load_csv": "cli.ingest",
    "load_matrix_csv": "cli.ingest",
    "build_corr_affinity": "affinity.corr",
    "build_dot_product_affinity": "affinity.dot",
    "build_gaussian_affinity": "affinity.gaussian",
    "build_gat_scores": "affinity.gat_scores",
    "choose_alpha": "normalize.spectral",
    "spectral_radius": "normalize.spectral",
    "softmax_rows": "normalize.softmax",
    "masked_softmax_rows": "normalize.softmax",
    "power_series_closed_form": "propagate.closed",
    "power_series_truncated": "propagate.truncated",
    "eigenvector_centrality": "propagate.centrality",
    "pagerank": "propagate.centrality",
    "single_hop_aggregate": "propagate.aggregate",
    "attention": "attention.attention",
    "multi_head_attention": "attention.mha",
    "gat_layer": "attention.gat",
    "multi_head_gat": "attention.gat",
    "non_local_block": "attention.nonlocal",
    "rank": "selection.rank",
    "select_top_k": "selection.rank",
    "run_all": "verify.run",
}

# Generator methods that consume draws, and how many each call consumes.
RNG_METHODS = {
    "matrix": lambda args: args[1] * args[2] if len(args) >= 3 else 0,  # (self, rows, cols, ...)
    "randint": lambda args: 1,
}


class Recorder:
    """In-memory spans: (name, start, end, parent index, op kind, op group), plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_kind = "ok"
        self.op_group = ""
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op_kind, self.op_group]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if count is not None:
                    count(self.counts, args, span[4])
        traced.__wrapped__ = fn
        return traced


def _count_ingest(counts, args, kind):
    if args and os.path.isfile(args[0]):
        counts[f"ingest_bytes.{kind}"] += os.path.getsize(args[0])


def _count_truncated(counts, args, kind):
    # power_series_truncated(A, alpha, L): L products of two N x N matrices.
    if len(args) >= 3:
        counts["truncated_flop"] += 2.0 * args[2] * len(getattr(args[0], "matrix", args[0])) ** 3


def _count_draws(method):
    def count(counts, args, kind):
        counts["rng.draws"] += method(args)
    return count


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Route every traced public function through ``recorder`` while the block runs."""
    modules = {name: mod for name, mod in sys.modules.items()
               if (name == "affinitykit" or name.startswith("affinitykit.")) and mod is not None}
    wrappers = {}
    for layer in LAYERS:
        module = modules.get(f"affinitykit.{layer}")
        if module is None:
            continue
        for attr, value in vars(module).items():
            if (attr.startswith("_") or not callable(value) or isinstance(value, type)
                    or getattr(value, "__module__", None) != module.__name__):
                continue
            name = SPAN_NAMES.get(attr, f"{layer}.other")
            if layer == "cli" and name == "cli.other":
                name = "cli.self"
            count = {"cli.ingest": _count_ingest, "propagate.truncated": _count_truncated}.get(name)
            wrappers[id(value)] = recorder.wrap(name, value, count)
    patched = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patched.append((module, attr, value))
                setattr(module, attr, wrapper)
    rng = modules.get("affinitykit.rng")
    lcg = getattr(rng, "Lcg", None)
    for method, draws in RNG_METHODS.items():
        original = getattr(lcg, method, None) if lcg is not None else None
        if original is not None:
            patched.append((lcg, method, original))
            setattr(lcg, method, recorder.wrap("rng.draw", original, _count_draws(draws)))
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def union_length(intervals) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, *_) in enumerate(spans):
        covered = [(max(spans[c][1], start), min(spans[c][2], end)) for c in children[index]]
        out.append(end - start - union_length([iv for iv in covered if iv[1] > iv[0]]))
    return out


def outermost_seconds(spans, kind=None) -> dict[str, float]:
    """Per span name, the summed duration of spans with no ancestor of the same name."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        name, start, end, parent, op_kind = span[:5]
        if kind is not None and op_kind not in kind:
            continue
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            totals[name] += end - start
    return totals


def share_rows(spans, group=None) -> dict[str, float]:
    """Self seconds per share-table row: cli is split into ingest and the rest.

    With ``group``, only the spans of that op group count.
    """
    rows = {"cli.ingest": 0.0, "cli.self": 0.0}
    rows.update({layer: 0.0 for layer in LAYERS[1:]})
    for span, seconds in zip(spans, self_times(spans)):
        if group is not None and span[5] != group:
            continue
        name = span[0]
        row = name if name == "cli.ingest" else ("cli.self" if name.startswith("cli.") else name.split(".")[0])
        rows[row] += seconds
    return rows


def cycle_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced cycle, before any cross-cycle median."""
    inclusive = outermost_seconds(spans)
    accepted = outermost_seconds(spans, kind=("ok",))
    rejected = outermost_seconds(spans, kind=("reject",))
    rows = share_rows(spans)
    calls = defaultdict(int)
    for span in spans:
        calls[span[0].split(".")[0]] += 1
    m = {f"{layer}.calls": float(calls[layer]) for layer in LAYERS}
    m.update({
        "cli.ingest_s": accepted.get("cli.ingest", 0.0),
        "cli.reject_s": rejected.get("cli.ingest", 0.0),
        "cli.self_s": rows["cli.self"],
        "affinity.corr_s": inclusive.get("affinity.corr", 0.0),
        "affinity.gaussian_s": inclusive.get("affinity.gaussian", 0.0),
        "affinity.dot_s": inclusive.get("affinity.dot", 0.0),
        "affinity.gat_scores_s": inclusive.get("affinity.gat_scores", 0.0),
        "normalize.spectral_s": inclusive.get("normalize.spectral", 0.0),
        "normalize.softmax_s": inclusive.get("normalize.softmax", 0.0),
        "propagate.closed_s": inclusive.get("propagate.closed", 0.0),
        "propagate.truncated_s": inclusive.get("propagate.truncated", 0.0),
        "propagate.centrality_s": inclusive.get("propagate.centrality", 0.0),
        "propagate.aggregate_s": inclusive.get("propagate.aggregate", 0.0),
        "attention.self_s": rows["attention"],
        "attention.mha_s": inclusive.get("attention.mha", 0.0),
        "attention.gat_s": inclusive.get("attention.gat", 0.0),
        "attention.nonlocal_s": inclusive.get("attention.nonlocal", 0.0),
        "selection.rank_s": inclusive.get("selection.rank", 0.0),
        "rng.draws": float(counts.get("rng.draws", 0.0)),
        "rng.s": inclusive.get("rng.draw", 0.0),
        "verify.s": inclusive.get("verify.run", 0.0),
    })
    ingest_bytes = counts.get("ingest_bytes.ok", 0.0)
    m["cli.ingest_mb_per_s"] = ingest_bytes / 1e6 / m["cli.ingest_s"] if m["cli.ingest_s"] > 0 else 0.0
    truncated = m["propagate.truncated_s"]
    m["propagate.truncated_gflop_per_s"] = counts.get("truncated_flop", 0.0) / 1e9 / truncated if truncated > 0 else 0.0
    return m
