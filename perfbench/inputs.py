"""Seeded inputs of the benchmark workloads.

Every workload is a list of items over a list of input texts.  The texts
are what a user would hand to the program (``rot`` or planar code).  The
seed draws the random graphs, picks between the two solids of a dual
pair where both give isomorphic or mirror images, and relabels every
text (eight labellings of each input, one per pass).  Sizes and the mix
of item kinds are the same for every seed.

This module runs in the parent process only; ``polyhedra`` and the
catalog build the inputs and are not measured.
"""

from __future__ import annotations

import base64
import os
import random

from surfops import io, operations, polyhedra

HERE = os.path.dirname(os.path.abspath(__file__))

CATALOG = operations.catalog_names()
FILE_OPS = ("sprout", "pendant")  # small lopsp-operations that lose c3 / c2

SOLIDS = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")
BASES = {name: getattr(polyhedra, name) for name in SOLIDS}
BASES["k7"] = polyhedra.k7_torus


def _image(op_name, base):
    return operations.apply(operations.catalog(op_name), base).result


def rot_text(g, rng):
    """``rot`` text of g with vertices, edge ids, signs and rotation
    starts permuted by ``rng`` (``io.write_rot`` is canonical, so it
    would give every seed the same text)."""
    nv, ne = g.vertex_count, g.edge_count
    vperm = list(range(nv))
    rng.shuffle(vperm)
    eperm = list(range(ne))
    rng.shuffle(eperm)
    token = {}
    for e, (d, dp) in enumerate(g.edge_darts()):
        if rng.random() < 0.5:
            d, dp = dp, d
        token[d] = "+%d" % (eperm[e] + 1)
        token[dp] = "-%d" % (eperm[e] + 1)
    lines = [None] * nv
    for v, rot in enumerate(g.rotations()):
        k = rng.randrange(len(rot))
        rot = rot[k:] + rot[:k]
        lines[vperm[v]] = "%d: %s" % (vperm[v] + 1, " ".join(token[d] for d in rot))
    return "rot %d %d\n" % (nv, ne) + "\n".join(lines) + "\n"


def _relabeled_simple(g, rng):
    """A copy of a simple graph with permuted vertices and rotation starts."""
    nv = g.vertex_count
    vperm = list(range(nv))
    rng.shuffle(vperm)
    neighbours = [None] * nv
    for v, rot in enumerate(g.rotations()):
        heads = [vperm[g.head(d)] for d in rot]
        k = rng.randrange(len(heads))
        neighbours[vperm[v]] = heads[k:] + heads[:k]
    return type(g).from_adjacency(neighbours)


def planar_code(graphs, rng):
    return io.write_planar_code([_relabeled_simple(g, rng) for g in graphs])


# Costs depend on vertex numbering (the canonical code's pruning, for one),
# so every pass reads another labelling of each input.
LABELLINGS = 8


class Workload:
    """Inputs and items of one run, ready to be sent to the child."""

    def __init__(self):
        self.inputs = []  # {"format": "rot"|"planar_code", "texts": [str], "edges": int}
        self.items = []  # {"kind": ..., "input": index, ...}
        self.stream = None  # planar_code bytes for the CLI stream call

    def add_input(self, g, rng, fmt="rot", canonical=False):
        """Register g under LABELLINGS relabelled texts; pass k of the
        loop reads text k mod LABELLINGS.  A canonical input has the one
        text ``write_rot`` gives it."""
        if canonical:
            self.inputs.append({"format": "rot", "texts": [io.write_rot(g)],
                                "edges": g.edge_count})
            return len(self.inputs) - 1
        texts = []
        for _ in range(LABELLINGS):
            if fmt == "planar_code":
                texts.append(base64.b64encode(planar_code([g], rng)).decode("ascii"))
            else:
                texts.append(rot_text(g, rng))
        self.inputs.append({"format": fmt, "texts": texts, "edges": g.edge_count})
        return len(self.inputs) - 1

    def payload(self):
        for i, item in enumerate(self.items):
            item["id"] = i
        stream = None
        if self.stream is not None:
            stream = base64.b64encode(self.stream).decode("ascii")
        return {"inputs": self.inputs, "items": self.items, "stream": stream}


def _lsp(name):
    return isinstance(operations.catalog(name), operations.LspOperation)


STREAM_RANDOM_EDGES = (9, 16, 23, 30, 37, 44, 51, 58)


def stream_small(rng, seed):
    """Solids and their one-step images with E <= 60 (a planar_code
    stream), K7, and random multigraphs with loops, times every catalog
    operation."""
    w = Workload()
    plane = []
    for s in SOLIDS:
        base = BASES[s]()
        plane.append(base)
        for op in CATALOG:
            if op == "identity":
                continue
            img = _image(op, base)
            if img.edge_count <= 60:
                plane.append(img)
    w.stream = planar_code(plane, rng)
    graphs = [(g, "planar_code") for g in plane]
    graphs.append((polyhedra.k7_torus(), "rot"))
    for n_edges in STREAM_RANDOM_EDGES:
        graphs.append((polyhedra.random_embedded(rng, n_edges), "rot"))
    for gi, (g, fmt) in enumerate(graphs):
        index = w.add_input(g, rng, fmt)
        for oi, op in enumerate(CATALOG):
            route = "apply"
            if _lsp(op) and (gi + oi + seed) % 2:
                route = "apply_lsp_direct"
            w.items.append({"kind": "apply", "input": index, "op": op, "route": route})
    return w


# (bases of a dual pair, chain applied first to last, final timed operation)
# -> E_in 150, 210, 300, 360, 450, 540, 630, 750.  Where the seed picks the
# base of a dual pair, the first operation gives isomorphic or mirror
# images of both, which cost the same.
GROW_CHAINS = (
    (("tetrahedron",), ("gyro", "snub"), "gyro"),
    (("k7",), ("ambo", "gyro"), "snub"),
    (("cube", "octahedron"), ("snub", "gyro"), "gyro"),
    (("cube", "octahedron"), ("join", "truncation", "gyro"), "snub"),
    (("tetrahedron",), ("gyro", "truncation", "snub"), "gyro"),
    (("cube", "octahedron"), ("gyro", "truncation", "truncation"), "snub"),
    (("k7",), ("truncation", "ambo", "gyro"), "gyro"),
    (("tetrahedron",), ("snub", "gyro", "gyro"), "snub"),
)


def grow_large(rng, seed):
    """Operation chains over solids and K7 (E_in 150-750), each grown
    once more by gyro or snub (E_out 750-3750).  Inputs are the chains'
    ``write_rot`` texts, as in a pipeline of CLI calls; with a few large
    items, the 2x spread that vertex numbering gives ``write_rot`` would
    not average out over relabelled texts."""
    w = Workload()
    for bases, chain, op in GROW_CHAINS:
        g = BASES[rng.choice(bases)]()
        for name in chain:
            g = _image(name, g)
        index = w.add_input(g, rng, canonical=True)
        w.items.append({"kind": "apply", "input": index, "op": op, "route": "apply"})
    return w


# plane images at E 24, 30, 36, 60, 90, 150; where the seed picks the base
# of a dual pair, both give isomorphic or mirror images
MID_PLANE = (
    (("cube", "octahedron"), "ambo"),
    (("tetrahedron",), "gyro"),
    (("cube",), "truncation"),
    (("cube", "octahedron"), "snub"),
    (("icosahedron",), "truncation"),
    (("dodecahedron", "icosahedron"), "gyro"),
)
MID_TORUS = ("identity", "dual", "ambo", "join", "truncation", "gyro")
MID_RANDOM_EDGES = (90, 110, 130, 150)
WITNESSES = ("tetrahedron", "cube", "k7")
CHECKS = ("face_width", "ck_direct", "ck_cycles")


def _op_source(name):
    """Catalog name, or the text of a bundled operation file."""
    if name in CATALOG:
        return {"op": name}
    with open(os.path.join(HERE, "data", name + ".lopsp"), encoding="ascii") as handle:
        return {"op": name, "op_text": handle.read()}


def _high_genus(rng, n_edges):
    """A random rotation system of genus >= 2 with E/3 to E/2 vertices."""
    while True:
        g = polyhedra.random_embedded(rng, n_edges)
        if g.genus() >= 2 and n_edges // 3 <= g.vertex_count <= n_edges // 2:
            return g


def verify_mid(rng, seed):
    """Face-width and both ck checks at E 20-150 on plane images of the
    solids, torus images of K7 and random high-genus graphs; classify_ck,
    Delaney-Dress symbols and curvature of every operation."""
    w = Workload()
    graphs = []
    for bases, op in MID_PLANE:
        graphs.append((_image(op, BASES[rng.choice(bases)]()), "planar_code"))
    for op in MID_TORUS:
        graphs.append((_image(op, polyhedra.k7_torus()), "rot"))
    for n_edges in MID_RANDOM_EDGES:
        graphs.append((_high_genus(rng, n_edges), "rot"))
    for g, fmt in graphs:
        index = w.add_input(g, rng, fmt)
        for check in CHECKS:
            w.items.append({"kind": check, "input": index})
    witnesses = [w.add_input(BASES[name](), rng) for name in WITNESSES]
    for name in CATALOG + FILE_OPS:
        expect = {"sprout": 1, "pendant": 2}.get(name, 3)
        for index in witnesses:
            item = {"kind": "classify", "input": index, "expect_k": expect}
            item.update(_op_source(name))
            w.items.append(item)
        item = {"kind": "symbol", "input": None}
        item.update(_op_source(name))
        w.items.append(item)
    return w


def verify_large(rng, seed):
    """Face-width and both ck checks on gyro^2(K7) (E=525), both ck
    checks on gyro^3(tetrahedron) (E=750)."""
    w = Workload()
    g = polyhedra.k7_torus()
    for _ in range(2):
        g = _image("gyro", g)
    index = w.add_input(g, rng)
    for check in CHECKS:
        w.items.append({"kind": check, "input": index})
    g = polyhedra.tetrahedron()
    for _ in range(3):
        g = _image("gyro", g)
    index = w.add_input(g, rng)
    for check in CHECKS[1:]:
        w.items.append({"kind": check, "input": index})
    return w


# name -> (generator, per-item wall limit in s, address-space cap in MB)
WORKLOADS = {
    "stream_small": (stream_small, 2.0, 1024),
    "grow_large": (grow_large, 20.0, 1024),
    "verify_mid": (verify_mid, 10.0, 1024),
    "verify_large": (verify_large, 5.0, 1024),
}


def generate(name, seed):
    """The child payload of one run: inputs, items, limits."""
    make, limit_s, cap_mb = WORKLOADS[name]
    rng = random.Random("%s-%d" % (name, seed))
    payload = make(rng, seed).payload()
    payload.update({"workload": name, "limit_s": limit_s, "cap_mb": cap_mb})
    return payload
