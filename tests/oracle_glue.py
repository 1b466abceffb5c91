"""Per-dart gluing, kept as the test oracle of ``apply``.

``oracle_apply`` is the previous implementation of ``apply`` and
``lsp_to_lopsp``: it walks every patch face of every cell, maps patch
vertices and edges through dictionaries, finds each dart's direction by
comparing edge ends, builds the double chamber graph as an embedded
subgraph of B_G and the patch as the internal component of the
cut-path's face (both in ``oracle_bridges``).

``oracle_glue_lsp`` is the definition of an lsp-operation's image: a
copy of the operation glued into every chamber of a frame, plain or
mirrored as the chamber's corner types dictate.  On B_G that is
``oracle_apply_lsp_direct``, which ``apply`` must match through the
double; on an operation's triangulation it composes two operations.
"""

from surfops import io
from surfops import operations as ops
from surfops.chambers import barycentric
from surfops.embedded import EmbeddedGraph

import oracle_bridges as ob


def graph_data(h):
    return (h.sigma, h.inv, h.vertex_of, h.labels, h.rotations())


def assert_valid(h):
    """Rebuild h through the checked constructor from its rotation table
    and pairing.  That validates the table: every dart once, the pairing
    a fixed-point-free involution, one label per vertex, connected.  The
    rebuilt sigma, vertex ids and table must equal h's, so sigma is a
    permutation with one orbit per vertex id, and the table is those
    orbits, each from its smallest dart."""
    rebuilt = EmbeddedGraph.from_rotations(h.rotations(), h.inv, labels=h.labels)
    assert graph_data(rebuilt) == graph_data(h)


def oracle_assemble(face_cycles, edge_ends, vertex_labels):
    n = 2 * len(edge_ends)
    phi = [None] * n
    for cycle, _ in face_cycles:
        k = len(cycle)
        for i in range(k):
            e, direction = cycle[i]
            e2, dir2 = cycle[(i + 1) % k]
            assert phi[2 * e + direction] is None
            phi[2 * e + direction] = 2 * e2 + dir2
    assert None not in phi
    inv = [None] * n
    vertex_of = [None] * n
    for e, (u, w) in enumerate(edge_ends):
        inv[2 * e], inv[2 * e + 1] = 2 * e + 1, 2 * e
        vertex_of[2 * e], vertex_of[2 * e + 1] = u, w
    t = EmbeddedGraph([phi[inv[d]] for d in range(n)], inv, vertex_of, labels=vertex_labels)
    assert_valid(t)
    face_lift = [None] * len(t.faces())
    for cycle, lifted in face_cycles:
        e, direction = cycle[0]
        face_lift[t.face_of(2 * e + direction)] = lifted
    return t, tuple(face_lift)


def oracle_extract_base(t):
    type0 = [v for v in range(t.vertex_count) if t.labels[v] == 0]
    r_darts, dart_index, rotations = [], {}, []
    for v in type0:
        rot = []
        for d in t.rotations()[v]:
            if t.labels[t.head(d)] == 1:
                dart_index[d] = len(r_darts)
                rot.append(len(r_darts))
                r_darts.append(d)
        rotations.append(rot)
    pairing = [None] * len(r_darts)
    for m in range(t.vertex_count):
        if t.labels[m] != 1:
            continue
        outs = [d for d in t.rotations()[m] if t.labels[t.head(d)] == 0]
        assert len(outs) == 2
        a, b = t.inv[outs[0]], t.inv[outs[1]]
        pairing[dart_index[a]] = dart_index[b]
        pairing[dart_index[b]] = dart_index[a]
    result = EmbeddedGraph.from_rotations(rotations, pairing)
    edge_node = [t.head(r_darts[d]) for d, _ in result.edge_darts()]
    return result, tuple(type0), tuple(edge_node)


def verify_subdivision(t):
    """T is the barycentric subdivision of a map: triangles only, no edge
    between equal types, and type-1 vertices of degree 4."""
    for walk in t.faces():
        assert len(walk) == 3, walk
    for d, dp in t.edge_darts():
        assert t.labels[t.vertex_of[d]] != t.labels[t.vertex_of[dp]], d
    for v, rot in enumerate(t.rotations()):
        assert t.labels[v] != 1 or len(rot) == 4, v


class Segment:
    def __init__(self, corner_from, corner_to, darts):
        self.corner_from, self.corner_to, self.darts = corner_from, corner_to, darts


def oracle_parse_boundary(graph, walk, corner_set, start_corner):
    tails = [graph.vertex_of[d] for d in walk]
    start = tails.index(start_corner)
    walk = list(walk[start:]) + list(walk[:start])
    tails = tails[start:] + tails[:start]
    marks = [i for i, v in enumerate(tails) if v in corner_set]
    segments = []
    for idx, i in enumerate(marks):
        if idx + 1 < len(marks):
            j = marks[idx + 1]
            segments.append(Segment(tails[i], tails[j], walk[i:j]))
        else:
            segments.append(Segment(tails[i], tails[0], walk[i:]))
    return segments


class Gluer:
    def __init__(self, op_graph):
        self.op_graph = op_graph
        self.vertex_labels, self.vertex_lift = [], []
        self.edge_ends, self.edge_lift, self.edge_cells = [], [], []
        self.face_cycles = []

    def new_vertex(self, olift):
        self.vertex_labels.append(self.op_graph.labels[olift])
        self.vertex_lift.append(olift)
        return len(self.vertex_labels) - 1

    def new_edge(self, u, w, olift, cell=None):
        self.edge_ends.append((u, w))
        self.edge_lift.append(olift)
        self.edge_cells.append(set() if cell is None else {cell})
        return len(self.edge_ends) - 1

    def dart_for(self, eid, u, w):
        if self.edge_ends[eid] == (u, w):
            return (eid, 0)
        assert self.edge_ends[eid] == (w, u)
        return (eid, 1)

    def assemble(self):
        return oracle_assemble(self.face_cycles, self.edge_ends, self.vertex_labels)

    def finish(self, base_genus, operation):
        t, face_lift = self.assemble()
        verify_subdivision(t)
        result, vertex_node, edge_node = oracle_extract_base(t)
        assert result.genus() == base_genus
        return ops.ApplicationResult(
            result=result, subdivision=t, pi_vertex=tuple(self.vertex_lift),
            pi_edge=tuple(self.edge_lift), pi_face=face_lift,
            result_vertex_node=vertex_node, result_edge_node=edge_node,
            edge_cells=tuple(frozenset(c) for c in self.edge_cells), operation=operation,
        )


def oracle_subdivide_frame(gluer, frame_graph, interior_data):
    frame = []
    labels = frame_graph.labels
    for d, dp in frame_graph.edge_darts():
        u, w = frame_graph.vertex_of[d], frame_graph.vertex_of[dp]
        pair = frozenset((labels[u], labels[w]))
        start_label = 2 if 2 in pair else 1
        start, end = (u, w) if labels[u] == start_label else (w, u)
        vlifts, elifts = interior_data[pair]
        chain = [start]
        lifts = [gluer.vertex_lift[start]]
        for ol in vlifts:
            chain.append(gluer.new_vertex(ol))
            lifts.append(ol)
        chain.append(end)
        lifts.append(gluer.vertex_lift[end])
        edges = [gluer.new_edge(chain[i], chain[i + 1], elifts[i]) for i in range(len(chain) - 1)]
        frame.append((chain, edges, lifts))
    return frame


def oracle_glue_cell(gluer, cell_id, pg, patch_faces, outer_face_index, match,
                     lift_vertex, lift_edge, lift_face):
    vmap, emap = match
    for face_index, walk in patch_faces:
        if face_index == outer_face_index:
            continue
        for d in walk:
            if pg.vertex_of[d] not in vmap:
                vmap[pg.vertex_of[d]] = gluer.new_vertex(lift_vertex[pg.vertex_of[d]])
        cycle = []
        for d in walk:
            pe = pg.edge_of(d)
            u, w = vmap[pg.vertex_of[d]], vmap[pg.head(d)]
            if pe not in emap:
                emap[pe] = gluer.new_edge(u, w, lift_edge[pe], cell=cell_id)
            cycle.append(gluer.dart_for(emap[pe], u, w))
        gluer.face_cycles.append((cycle, lift_face[face_index]))


def oracle_match_segments(gluer, pg, segments, frame, frame_graph, cell_walk, lift_vertex, cell_id):
    vmap, emap = {}, {}
    for k, wdart in enumerate(cell_walk):
        seg = segments[k]
        vertices, edges, lifts = frame[frame_graph.edge_of(wdart)]
        tail, head = frame_graph.vertex_of[wdart], frame_graph.head(wdart)
        if not (vertices[0] == tail and vertices[-1] == head):
            assert vertices[-1] == tail and vertices[0] == head
            vertices, edges, lifts = vertices[::-1], edges[::-1], lifts[::-1]
        seg_tails = [pg.vertex_of[d] for d in seg.darts] + [seg.corner_to]
        assert len(seg_tails) == len(vertices)
        for t, pv in enumerate(seg_tails):
            assert vmap.get(pv, vertices[t]) == vertices[t]
            vmap[pv] = vertices[t]
            assert lifts[t] == lift_vertex[pv]
        for t, d in enumerate(seg.darts):
            emap[pg.edge_of(d)] = edges[t]
            gluer.edge_cells[edges[t]].add(cell_id)
    return vmap, emap


def oracle_double_chamber_graph(g):
    b = barycentric(g)
    keep = [d for d in range(b.dart_count) if (d // 2) < 2 * g.dart_count]
    (comp,) = ob.embedded_subgraph(b, keep)
    return comp


def oracle_lsp_to_lopsp(op):
    g = op.graph
    outer = op.outer_face
    boundary_vertices = op.outer_vertices()
    boundary_edges = {g.edge_of(d) for d in op.outer_walk()}
    gluer = Gluer(g)
    vmap_plain, vmap_mirror = {}, {}
    for v in range(g.vertex_count):
        vmap_plain[v] = gluer.new_vertex(v)
        vmap_mirror[v] = vmap_plain[v] if v in boundary_vertices else gluer.new_vertex(v)
    emap_plain, emap_mirror = {}, {}
    for e, (d, dp) in enumerate(g.edge_darts()):
        u, w = g.vertex_of[d], g.vertex_of[dp]
        emap_plain[e] = gluer.new_edge(vmap_plain[u], vmap_plain[w], e)
        if e in boundary_edges:
            emap_mirror[e] = emap_plain[e]
        else:
            emap_mirror[e] = gluer.new_edge(vmap_mirror[u], vmap_mirror[w], e)
    for fi, walk in enumerate(g.faces()):
        if fi != outer:
            cycle = [gluer.dart_for(emap_plain[g.edge_of(d)], vmap_plain[g.vertex_of[d]],
                                    vmap_plain[g.head(d)]) for d in walk]
            gluer.face_cycles.append((cycle, fi))
    for fi, walk in enumerate(g.faces()):
        if fi != outer:
            cycle = [gluer.dart_for(emap_mirror[g.edge_of(d)], vmap_mirror[g.head(d)],
                                    vmap_mirror[g.vertex_of[d]]) for d in reversed(walk)]
            gluer.face_cycles.append((cycle, fi))
    t, face_lift = oracle_assemble(gluer.face_cycles, gluer.edge_ends, gluer.vertex_labels)
    doubled = ops.LopspOperation(t, vmap_plain[op.v0], vmap_plain[op.v1], vmap_plain[op.v2])
    doubled.face_origin = face_lift
    assert not doubled.validate()
    return doubled


def oracle_apply(op, g, cut_path=None):
    if isinstance(op, ops.LspOperation):
        op = oracle_lsp_to_lopsp(op)
    if cut_path is None:
        cut_path = ops.find_cut_path(op, "minimal")
    patch = ob.double_chamber_patch(op, cut_path)
    pg = patch.graph
    dg = oracle_double_chamber_graph(g).graph
    corner_set = {patch.v1, patch.v2, patch.v0_left, patch.v0_right}
    segments = oracle_parse_boundary(pg, pg.faces()[patch.outer_face], corner_set, patch.v2)
    assert len(segments) == 4 and segments[2].corner_from == patch.v1
    gluer = Gluer(op.graph)
    for v in range(dg.vertex_count):
        gluer.new_vertex({0: op.v0, 1: op.v1, 2: op.v2}[dg.labels[v]])
    interior_data = {}
    for pair, seg in ((frozenset((0, 2)), segments[0]), (frozenset((0, 1)), segments[2])):
        interior_data[pair] = (
            [patch.lift_vertex[pg.vertex_of[d]] for d in seg.darts[1:]],
            [patch.lift_edge[pg.edge_of(d)] for d in seg.darts],
        )
    frame = oracle_subdivide_frame(gluer, dg, interior_data)
    patch_faces = list(enumerate(pg.faces()))
    for qi, quad in enumerate(dg.faces()):
        start = next(i for i, d in enumerate(quad) if dg.labels[dg.vertex_of[d]] == 2)
        walk = [dg.inv[d] for d in reversed(list(quad[start:]) + list(quad[:start]))]
        match = oracle_match_segments(gluer, pg, segments, frame, dg, walk, patch.lift_vertex, qi)
        oracle_glue_cell(gluer, qi, pg, patch_faces, patch.outer_face, match,
                         patch.lift_vertex, patch.lift_edge, patch.lift_face)
    return gluer.finish(g.genus(), op)


def oracle_glue_lsp(op, frame):
    """A copy of the lsp-operation glued into every face (chamber) of the
    labelled triangulation ``frame``: B_G, or an operation's
    triangulation.  A chamber read from its type-2 corner against its
    facial walk takes the plain copy when its other corners come in the
    order of the plain boundary walk, else the mirrored one."""
    og = op.graph
    plain_walk = op.outer_walk()
    corner_set = set(op.specials)
    plain_segments = oracle_parse_boundary(og, plain_walk, corner_set, op.v2)
    mirror_walk = [og.inv[d] for d in reversed(plain_walk)]
    mirror_segments = oracle_parse_boundary(og, mirror_walk, corner_set, op.v2)
    plain_order = (plain_segments[1].corner_from, plain_segments[2].corner_from)
    mirror_order = (mirror_segments[1].corner_from, mirror_segments[2].corner_from)
    special_index = {op.v0: 0, op.v1: 1, op.v2: 2}
    inner_faces = [(fi, walk) for fi, walk in enumerate(og.faces()) if fi != op.outer_face]
    mirror_faces = [(fi, tuple(og.inv[d] for d in reversed(walk))) for fi, walk in inner_faces]
    gluer = Gluer(og)
    for v in range(frame.vertex_count):
        gluer.new_vertex(op.specials[frame.labels[v]])
    interior_data = {}
    for seg in plain_segments:
        pair = frozenset((special_index[seg.corner_from], special_index[seg.corner_to]))
        darts = seg.darts
        if special_index[seg.corner_from] != (2 if 2 in pair else 1):
            darts = [og.inv[d] for d in reversed(darts)]
        interior_data[pair] = ([og.vertex_of[d] for d in darts[1:]], [og.edge_of(d) for d in darts])
    chains = oracle_subdivide_frame(gluer, frame, interior_data)
    identity_lift = tuple(range(og.vertex_count))
    for ci, tri in enumerate(frame.faces()):
        start = next(i for i, d in enumerate(tri) if frame.labels[frame.vertex_of[d]] == 2)
        walk = [frame.inv[d] for d in reversed(list(tri[start:]) + list(tri[:start]))]
        types = tuple(frame.labels[frame.vertex_of[d]] for d in walk[1:])
        if types == tuple(special_index[c] for c in plain_order):
            segments, faces = plain_segments, inner_faces
        else:
            assert types == tuple(special_index[c] for c in mirror_order)
            segments, faces = mirror_segments, mirror_faces
        match = oracle_match_segments(gluer, og, segments, chains, frame, walk, identity_lift, ci)
        oracle_glue_cell(gluer, ci, og, faces, op.outer_face, match, identity_lift,
                         tuple(range(og.edge_count)), tuple(range(len(og.faces()))))
    return gluer


def oracle_apply_lsp_direct(op, g):
    """The lsp-operation applied by gluing its copies into the chambers
    of B_G."""
    return oracle_glue_lsp(op, barycentric(g)).finish(g.genus(), op)


def assert_matches_chamber_gluing(res, op, g):
    """``res``, the lsp-operation ``op`` applied to ``g``, has the result
    of the chamber gluing: the same ``write_rot`` bytes and canonical
    code."""
    want = oracle_apply_lsp_direct(op, g).result
    assert io.write_rot(res.result) == io.write_rot(want)
    assert res.result.canonical_code() == want.canonical_code()
