"""Spans around calls into the public functions of each surfops layer.

Tracing patches the package from outside: every module attribute that is
one of the traced functions is replaced by a wrapper that records a span
(name, start, end, parent span, item id) in memory.  Nothing in ``src/``
knows about it, and with tracing off nothing is patched.

The per-layer metrics are computed from the spans.  A layer's self time
is its span minus the spans directly under it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# module, attribute, span name, count taken from the result (or None)
FUNCTIONS = (
    ("io", "parse_rot", "io.parse_rot", None),
    ("io", "parse_planar_code", "io.parse_planar_code", None),
    ("io", "write_rot", "io.write_rot", None),
    ("chambers", "barycentric", "chambers.barycentric", None),
    ("operations", "find_cut_path", "operations.find_cut_path", None),
    ("operations", "double_chamber_patch", "operations.double_chamber_patch",
     lambda patch: patch.graph.edge_count),
    ("operations", "lsp_to_lopsp", "operations.lsp_to_lopsp", None),
    ("operations", "apply", "operations.apply", lambda res: res.result.edge_count),
    ("operations", "apply_lsp_direct", "operations.apply_lsp_direct",
     lambda res: res.result.edge_count),
    ("operations", "classify_ck", "operations.classify_ck", None),
    ("delaney", "dd_from_lopsp", "delaney.dd", None),
    ("delaney", "dd_from_lsp", "delaney.dd", None),
    ("delaney", "curvature", "delaney.curvature", None),
    ("topology", "face_width", "topology.face_width", None),
    ("topology", "face_width_witness", "topology.face_width", None),
    ("topology", "shortest_noncontractible_cycle", "topology.shortest_noncontractible_cycle", None),
    ("topology", "is_ck_embedded", "topology.is_ck_embedded", None),
    ("topology", "ck_via_cycles", "topology.ck_via_cycles", None),
    ("topology", "four_cycles", "topology.four_cycles", None),
    ("topology", "four_cycle_is_trivial", "topology.four_cycle_is_trivial", None),
)

# class (module, name), method, span name, count taken from the instance
METHODS = (
    ("embedded", "EmbeddedGraph", "canonical_code", "embedded.canonical_code", None),
    ("embedded", "EmbeddedGraph", "canonical_traversal", "embedded.canonical_code", None),
    ("chambers", "DoubleChamberSystem", "__init__", "chambers.double_chambers",
     lambda dc: len(dc.graph.faces())),
)

# per-layer metric -> the end-to-end metric it should move, on which workload
TARGETS = {
    "io.parse_rot_ms": "stream_small latency_p50_ms",
    "io.parse_planar_code_ms": "stream_small latency_p50_ms",
    "io.write_rot_ms": "grow_large edges_per_s",
    "embedded.canonical_code_ms": "grow_large edges_per_s",
    "embedded.faces_ms": "grow_large edges_per_s",
    "chambers.barycentric_ms": "grow_large edges_per_s",
    "chambers.double_chambers_ms": "grow_large edges_per_s",
    "chambers.cells": "grow_large edges_per_s",
    "operations.find_cut_path_ms": "stream_small edges_per_s (flat on grow_large)",
    "operations.double_chamber_patch_ms": "stream_small edges_per_s (flat on grow_large)",
    "operations.lsp_to_lopsp_ms": "stream_small edges_per_s (flat on grow_large)",
    "operations.per_op_share": "stream_small edges_per_s (flat on grow_large)",
    "operations.apply_ms": "grow_large latency_p90_ms",
    "operations.apply_lsp_direct_ms": "grow_large latency_p90_ms",
    "operations.glue_self_ms": "grow_large latency_p90_ms",
    "operations.patch_edges": "grow_large latency_p90_ms",
    "operations.result_edges": "grow_large latency_p90_ms",
    "operations.classify_ck_ms": "verify_mid latency_p50_ms",
    "delaney.dd_ms": "verify_mid latency_p50_ms",
    "delaney.curvature_ms": "verify_mid latency_p50_ms",
    "topology.face_width_ms": "verify_mid latency_p90_ms; verify_large failed_share, peak_rss_mb",
    "topology.shortest_noncontractible_cycle_ms":
        "verify_mid latency_p90_ms; verify_large failed_share, peak_rss_mb",
    "topology.smallest_cut_self_ms": "verify_mid latency_p90_ms; verify_large failed_share",
    "topology.ck_via_cycles_ms": "verify_mid latency_p90_ms; verify_large failed_share",
    "topology.four_cycles_ms": "verify_mid latency_p90_ms; verify_large failed_share",
    "topology.four_cycles": "verify_mid latency_p90_ms; verify_large failed_share",
    "topology.four_cycle_is_trivial_ms": "verify_mid latency_p90_ms; verify_large failed_share",
    "cli.apply_stream_ms": "stream_small",
}

# the public sub-steps whose share of apply is per-operation work
PER_OP_STEPS = ("operations.find_cut_path", "operations.double_chamber_patch",
                "operations.lsp_to_lopsp")

COUNT_METRICS = {
    "chambers.cells": "chambers.double_chambers",
    "operations.patch_edges": "operations.double_chamber_patch",
    "operations.result_edges": ("operations.apply", "operations.apply_lsp_direct"),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, item id, count]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.enabled = True

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield None
            return
        record = [name, perf_counter(), None, self.stack[-1] if self.stack else -1,
                  self.item, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, count=None, count_self=False):
        """``fn`` recording a span; ``count`` reads a size off the result,
        or off the first argument with ``count_self`` (constructors)."""

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if record is not None and count is not None:
                record[5] = count(args[0] if count_self else result)
            return result

        return traced

    @contextmanager
    def paused(self):
        """Calls made here (oracles) leave no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True


def install(tracer):
    """Patch every surfops module attribute bound to a traced function,
    so calls made inside the package are traced too.  A function the
    package no longer has is skipped; its metrics then read 0."""
    modules = [m for n, m in list(sys.modules.items())
               if (n == "surfops" or n.startswith("surfops.")) and m is not None]
    for mod_name, attr, name, count in FUNCTIONS:
        original = getattr(sys.modules["surfops." + mod_name], attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for mod_name, cls_name, method, name, count in METHODS:
        cls = getattr(sys.modules["surfops." + mod_name], cls_name)
        setattr(cls, method, tracer.wrap(name, cls.__dict__[method], count, count_self=True))
    cls = sys.modules["surfops.embedded"].EmbeddedGraph
    faces = cls.faces
    faces_span = tracer.wrap("embedded.faces", faces)

    def traced_faces(graph):
        # faces() is memoised; only the first call per graph does work
        if getattr(graph, "_faces", None) is not None:
            return faces(graph)
        return faces_span(graph)

    cls.faces = traced_faces


def _summaries(spans, keep):
    """name -> [calls, inclusive s, self s, count sum] over the spans whose
    item passes ``keep``; a span nested in one of the same name counts
    only towards the outer one."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, item, count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, item, count) in enumerate(spans):
        if not keep(item):
            continue
        row = out.setdefault(name, [0, 0.0, 0.0, 0])
        row[2] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p >= 0:
            continue
        row[0] += 1
        row[1] += end - start
        row[3] += count or 0
    return out


def _ancestor_named(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def _layer_values(spans, keep):
    s = _summaries(spans, keep)

    def mean(name, column):
        row = s.get(name)
        if not row or not row[0]:
            return None
        return row[column] / row[0]

    values = {}
    for name in {n for _, _, n, _ in FUNCTIONS} | {n for *_, n, _ in METHODS} | {
            "embedded.faces", "cli.apply_stream"}:
        if name == "topology.is_ck_embedded":
            continue
        m = mean(name, 1)
        values[name + "_ms"] = None if m is None else 1000 * m
    glue = mean("operations.apply", 2)
    values["operations.glue_self_ms"] = None if glue is None else 1000 * glue
    cut = mean("topology.is_ck_embedded", 2)
    values["topology.smallest_cut_self_ms"] = None if cut is None else 1000 * cut
    for metric, names in COUNT_METRICS.items():
        names = (names,) if isinstance(names, str) else names
        calls = sum(s.get(n, [0])[0] for n in names)
        total = sum(s[n][3] for n in names if n in s)
        values[metric] = total / calls if calls else None
    cycles = s.get("topology.ck_via_cycles")
    trivial = s.get("topology.four_cycle_is_trivial")
    values["topology.four_cycles"] = (trivial[0] if trivial else 0) / cycles[0] if cycles else None
    apply_row = s.get("operations.apply")
    if apply_row and apply_row[1] > 0:
        per_op = sum(end - start for i, (name, start, end, _, item, _) in enumerate(spans)
                     if name in PER_OP_STEPS and keep(item)
                     and _ancestor_named(spans, i, "operations.apply"))
        values["operations.per_op_share"] = per_op / apply_row[1]
        values["operations.per_op_share.base_ms"] = 1000 * apply_row[1]
    else:
        values["operations.per_op_share"] = None
    return values


UNITS = {"chambers.cells": "count", "operations.patch_edges": "count",
         "operations.result_edges": "count", "topology.four_cycles": "count",
         "operations.per_op_share": "ratio"}


def layer_metrics(spans, probe_item, scale):
    """Per-layer metrics of the workload's own spans, times multiplied by
    ``scale`` (the run's mean factor to reference speed).  A layer the
    workload never calls is measured on the probe spans instead, so every
    metric has a value; those names are returned as the second value."""
    own = _layer_values(spans, lambda item: item != probe_item)
    probe = _layer_values(spans, lambda item: item == probe_item)
    metrics, from_probe = {}, []
    for name in TARGETS:
        value = own.get(name)
        if value is None:
            value = probe.get(name) or 0.0
            from_probe.append(name)
        unit = UNITS.get(name, "ms")
        metrics[name] = {"value": value * scale if unit == "ms" else value, "unit": unit}
    base = own.get("operations.per_op_share.base_ms")
    if "operations.per_op_share" in from_probe:
        base = probe.get("operations.per_op_share.base_ms")
    return metrics, from_probe, base * scale
