"""The workload process: runs items in a closed loop, one caller.

Every item starts from text, the way the CLI does: parse, call, emit or
report.  Only that is timed.  The oracles run after the item's timer has
stopped, on the first pass over the items; later passes read other
labellings of the inputs and must reproduce the first pass's output
byte for byte.

Isolation: an address-space cap (``RLIMIT_AS``) is set for this process
only, and every item runs under a wall limit (``ITIMER_REAL``).  An item
ends as ok, wrong, error, timeout or oom and is always recorded.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io as stdio
import json
import resource
import signal
import sys
from time import perf_counter

import tracing
from surfops import cli, delaney, io, operations, polyhedra, topology

PROBE_ITEM = "probe"


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout()


def set_limits(cap_mb):
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = cap_mb * 1024 * 1024
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _alarm)


class Inputs:
    """Decoded input texts and the operations the items use."""

    def __init__(self, payload):
        self.texts = []
        for inp in payload["inputs"]:
            texts = inp["texts"]
            if inp["format"] == "planar_code":
                texts = [base64.b64decode(text) for text in texts]
            self.texts.append((inp["format"], texts))
        self.ops = {name: operations.catalog(name)
                    for name in {it["op"] for it in payload["items"] if "op" in it}
                    if name in operations.catalog_names()}
        stream = payload.get("stream")
        self.stream = base64.b64decode(stream) if stream else None

    def graph(self, index, labelling):
        fmt, texts = self.texts[index]
        text = texts[labelling % len(texts)]
        if fmt == "rot":
            return io.parse_rot(text)
        return io.parse_planar_code(text)[0]

    def op(self, item):
        if "op_text" in item:
            return io.parse_op(item["op_text"])
        return self.ops[item["op"]]


def _ck_line(rep):
    return "k_max=%d passed=%s min_degree=%d min_face=%d face_width=%s" % (
        rep.k_max, rep.passed, rep.min_degree, rep.min_face_size, rep.face_width)


def execute(item, inputs, labelling):
    """The timed part of an item: (input edges, output text, context).
    Outputs do not depend on the labelling of the input."""
    kind = item["kind"]
    if kind == "apply":
        g = inputs.graph(item["input"], labelling)
        op = inputs.op(item)
        res = getattr(operations, item["route"])(op, g)
        return g.edge_count, io.write_rot(res.result), (op, g, res)
    if kind == "symbol":
        op = inputs.op(item)
        if isinstance(op, operations.LspOperation):
            sym = delaney.dd_from_lsp(op)
        else:
            sym = delaney.dd_from_lopsp(op)
        c = delaney.curvature(sym)
        return op.graph.edge_count, delaney.write_dd(sym) + "curvature %s\n" % c, (op, c)
    g = inputs.graph(item["input"], labelling)
    if kind == "face_width":
        fw = topology.face_width(g)
        return g.edge_count, "face_width=%s\n" % fw, fw
    if kind == "ck_direct":
        rep = topology.is_ck_embedded(g, 3)
        return g.edge_count, _ck_line(rep) + "\n", rep
    if kind == "ck_cycles":
        rep = topology.ck_via_cycles(g, 3)
        return g.edge_count, _ck_line(rep) + "\n", rep
    if kind == "classify":
        rep = operations.classify_ck(inputs.op(item), witness=g)
        return g.edge_count, "k=%d\n" % rep.k, rep
    raise ValueError("unknown item kind %r" % kind)


def check(item, ctx):
    """Oracle for one item; a list of failed checks."""
    kind = item["kind"]
    bad = []
    if kind == "apply":
        op, g, res = ctx
        e_in, e_out = g.edge_count, res.result.edge_count
        if e_out != operations.inflation_factor(op) * e_in:
            bad.append("E_out != inflation factor * E_in")
        if res.result.genus() != g.genus():
            bad.append("genus changed")
        if len(res.subdivision.faces()) != 4 * e_out:
            bad.append("subdivision faces != 4 E_out")
        if isinstance(op, operations.LspOperation):
            other = "apply" if item["route"] == "apply_lsp_direct" else "apply_lsp_direct"
            twin = getattr(operations, other)(op, g).result
            if twin.canonical_code() != res.result.canonical_code():
                bad.append("apply and apply_lsp_direct differ")
    elif kind == "classify":
        if ctx.k != item["expect_k"]:
            bad.append("classify_ck gave %d, expected %d" % (ctx.k, item["expect_k"]))
    elif kind == "symbol":
        op, c = ctx
        if c != 0:
            bad.append("curvature %s, expected 0" % c)
        if isinstance(op, operations.LspOperation):
            doubled = delaney.curvature(delaney.dd_from_lopsp(operations.lsp_to_lopsp(op)))
            if doubled != c:
                bad.append("curvature of the doubled operation differs")
    return bad


def check_groups(items, contexts):
    """Cross-item oracles on each verified graph: the direct and the
    cycle ck checks agree for k=2,3, the direct report's face-width is
    face_width(g).  Returns {item id: [failed checks]}."""
    by_graph = {}
    for item in items:
        if item["id"] in contexts and item["kind"] in ("face_width", "ck_direct", "ck_cycles"):
            by_graph.setdefault(item["input"], {})[item["kind"]] = item["id"]
    bad = {}
    for ids in by_graph.values():
        direct, cycles, fw = (contexts.get(ids.get(k)) for k in ("ck_direct", "ck_cycles",
                                                                 "face_width"))
        if direct is not None and cycles is not None:
            for k in (2, 3):
                if (direct.k_max >= k) != (cycles.k_max >= k):
                    bad.setdefault(ids["ck_cycles"], []).append(
                        "direct and cycle ck checks differ at k=%d" % k)
        if direct is not None and fw is not None and direct.face_width != fw:
            bad.setdefault(ids["face_width"], []).append("face_width != direct report's")
    return bad


# Machine speed: a short fixed pure-Python loop (the reference), timed
# between items and, every SAMPLE_EVERY_S of CPU time, inside them from a
# SIGVTALRM handler.  An item's time is reported at reference speed:
# (wall - time spent in the handler) * REFERENCE_S / mean reference time
# before, during and after the item.  That cancels the speed changes of a
# shared host, which reach 2x from one second to the next.
REFERENCE_S = 0.0003
SAMPLE_EVERY_S = 0.025
BETWEEN_ITEMS = 8


def reference():
    start = perf_counter()
    table = {}
    for i in range(2500):
        table[i % 1000] = table.get(i % 1000, 0) + i
    return perf_counter() - start


class Speedometer:
    def __init__(self):
        self.samples = []  # reference times taken during the current item
        signal.signal(signal.SIGVTALRM, self._sample)

    def _sample(self, signum, frame):
        self.samples.append(reference())

    @staticmethod
    def between():
        return [reference() for _ in range(BETWEEN_ITEMS)]

    @contextlib.contextmanager
    def during(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def run_one(item, inputs, labelling, limit_s, meter):
    """(status, seconds, edges, output, context, reference samples) of
    one timed item."""
    out = ctx = None
    edges = 0
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = perf_counter()
    try:
        try:
            with meter.during():
                edges, out, ctx = execute(item, inputs, labelling)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except ItemTimeout:
        status = "timeout"
    except MemoryError:
        status = "oom"
    except Exception as exc:  # an item that raises is recorded, not fatal
        status = "error"
        out = "%s: %s" % (type(exc).__name__, exc)
    return status, perf_counter() - start, edges, out, ctx, meter.samples


def run_loop(payload, inputs, seconds, tracer=None):
    """Whole passes over the items until ``seconds`` have elapsed; the
    first pass always completes.  Returns the result record."""
    items = payload["items"]
    limit_s = payload["limit_s"]
    records = []  # [item id, pass, status, seconds, edges, seconds at reference speed]
    first_hash = {}
    first_ok = set()
    contexts = {}
    problems = {}
    meter = Speedometer()
    before = meter.between()
    deadline = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        for item in items:
            if tracer is not None:
                tracer.item = item["id"]
            status, elapsed, edges, out, ctx, during = run_one(
                item, inputs, passes, limit_s, meter)
            after = meter.between()
            samples = before + during + after
            scaled = (elapsed - sum(during)) * REFERENCE_S * len(samples) / sum(samples)
            before = after
            digest = hashlib.sha256((out or "").encode()).hexdigest()
            with (tracer.paused() if tracer is not None else contextlib.nullcontext()):
                if status == "ok" and passes == 0:
                    bad = check(item, ctx)
                    if bad:
                        status = "wrong"
                        problems[item["id"]] = bad
                    elif item["kind"] in ("face_width", "ck_direct", "ck_cycles"):
                        contexts[item["id"]] = ctx
                elif status == "ok" and item["id"] in first_ok and digest != first_hash[item["id"]]:
                    status = "wrong"
                    problems[item["id"]] = ["output differs from the first pass"]
            if passes == 0:
                first_hash[item["id"]] = digest
                if status == "ok":
                    first_ok.add(item["id"])
            records.append([item["id"], passes, status, elapsed, edges, scaled])
        if passes == 0:
            for item_id, bad in check_groups(items, contexts).items():
                problems[item_id] = bad
                for rec in records:
                    if rec[0] == item_id and rec[2] == "ok":
                        rec[2] = "wrong"
        passes += 1
    if tracer is not None:
        tracer.item = None
    outputs = hashlib.sha256(
        "".join("%d:%s\n" % (it["id"], first_hash[it["id"]]) for it in items).encode()
    ).hexdigest()
    return {
        "records": records,
        "passes": passes,
        "digest": outputs[:16],
        "problems": {str(k): v for k, v in problems.items()},
    }


def probe(tracer, inputs):
    """One small call into every traced layer, for layers the workload
    itself does not call.  The CLI applies each operation to the
    workload's planar_code stream, or to the solids when it has none."""
    stream = inputs.stream
    if stream is None:
        stream = io.write_planar_code([
            polyhedra.tetrahedron(), polyhedra.cube(), polyhedra.octahedron()])
    tracer.item = PROBE_ITEM
    saved = sys.stdin
    try:
        for name in operations.catalog_names():
            sys.stdin = stdio.TextIOWrapper(stdio.BytesIO(stream), encoding="ascii")
            with tracer.span("cli.apply_stream"), contextlib.redirect_stdout(stdio.StringIO()):
                cli.main(["apply", name, "-"])
    finally:
        sys.stdin = saved
    k7 = io.parse_rot(io.write_rot(polyhedra.k7_torus()))
    topology.face_width(k7)
    topology.is_ck_embedded(k7, 3)
    topology.ck_via_cycles(k7, 3)
    operations.apply(operations.catalog("truncation"), polyhedra.cube())
    operations.classify_ck(operations.catalog("dual"), witness=polyhedra.tetrahedron())
    delaney.curvature(delaney.dd_from_lsp(operations.catalog("ambo")))
    delaney.curvature(delaney.dd_from_lopsp(operations.catalog("gyro")))
    tracer.item = None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_spans(spans, path):
    with open(path, "w", encoding="ascii") as handle:
        for name, start, end, parent, item, count in spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item, "count": count}) + "\n")


def child_main(mode, traced, seconds, spans_path=None):
    """Entry of the workload process: payload on stdin, result on stdout.
    Spans stay in memory and are written to ``spans_path`` at exit."""
    payload = json.load(sys.stdin)
    set_limits(payload["cap_mb"])
    inputs = Inputs(payload)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = {"ready": perf_counter(), "reference": Speedometer.between()}
    if mode == "run":
        result.update(run_loop(payload, inputs, seconds, tracer))
        if tracer is not None:
            probe(tracer, inputs)
            records = result["records"]
            scale = sum(rec[5] for rec in records) / sum(rec[3] for rec in records)
            metrics, from_probe, base = tracing.layer_metrics(tracer.spans, PROBE_ITEM, scale)
            result.update({"layers": metrics, "from_probe": from_probe,
                           "per_op_base_ms": base})
            if spans_path:
                write_spans(tracer.spans, spans_path)
        result["peak_rss_mb"] = peak_rss_mb()
    json.dump(result, sys.stdout)
    sys.stdout.flush()
    return 0
