"""The bridge and subgraph-face oracles of ``oracle_bridges``.

These tests check the test oracles themselves, not ``src/``: nothing in
the package runs the bridge, internal-component or subgraph-face code any
more, but ``test_topology``, ``test_ck`` and ``test_glue`` compare the
production paths against it.
"""

import random

import pytest

from surfops import polyhedra
from surfops import topology as tp
from surfops.chambers import barycentric

import oracle_bridges as ob


def test_bridges_whole_graph():
    g = polyhedra.cube()
    brs, simple = ob.bridges(g, set(range(g.dart_count)))
    assert brs == []
    assert all(simple)


def test_bridges_cube_face():
    g = polyhedra.cube()
    face = g.faces()[0]
    s = set(face) | {g.inv[d] for d in face}
    brs, simple = ob.bridges(g, s)
    assert len(brs) == 1
    (br,) = brs
    assert br.kind == "component"
    assert len(br.interior_vertices) == 4
    assert len(br.faces) == 1
    assert all(simple)


def test_bridges_k4_center():
    g = polyhedra.tetrahedron()
    tri = g.faces()[0]
    s = set(tri) | {g.inv[d] for d in tri}
    brs, simple = ob.bridges(g, s)
    assert len(brs) == 1
    assert brs[0].kind == "component"
    assert len(brs[0].edges) == 3
    assert len(brs[0].faces) == 1


def test_chord_bridge_two_faces():
    # a 4-cycle of the cube that is not a face has chords in separate faces
    g = polyhedra.cube()
    # find a non-facial 4-cycle: take two opposite edges of a face and
    # connect through the adjacent face
    for f in g.faces():
        walk = list(f)
        cyc = set(walk) | {g.inv[d] for d in walk}
        brs, simple = ob.bridges(g, cyc)
        comp_bridges = [b for b in brs if b.kind == "component"]
        assert comp_bridges
        break


def test_internal_component_face_only():
    g = polyhedra.cube()
    face = g.faces()[0]
    s = set(face) | {g.inv[d] for d in face}
    sf = ob.subgraph_faces(g, s)
    empty_face = next(
        fi for fi in range(len(sf.walks)) if fi not in ob.bridges(g, s, sf)[0][0].faces
    )
    ic = ob.internal_component(g, s, empty_face, sf=sf)
    assert ic.graph.vertex_count == 4
    assert ic.graph.edge_count == 4
    assert ic.graph.genus() == 0


def test_internal_component_tree_doubling():
    g = polyhedra.cube()
    seen = {0}
    keep = set()
    changed = True
    while changed:
        changed = False
        for d, dp in g.edge_darts():
            u, w = g.vertex_of[d], g.vertex_of[dp]
            if (u in seen) != (w in seen):
                seen |= {u, w}
                keep |= {d, dp}
                changed = True
    sf = ob.subgraph_faces(g, keep)
    assert len(sf.walks) == 1
    ic = ob.internal_component(g, keep, 0)
    assert ic.graph.genus() == 0
    assert ic.graph.vertex_count == 14  # every tree vertex split per occurrence


def test_internal_component_bridged_face_rejected():
    g = polyhedra.k7_torus()
    face = g.faces()[0]
    s = set(face) | {g.inv[d] for d in face}
    brs, simple = ob.bridges(g, s)
    for fi, ok in enumerate(simple):
        if not ok:
            with pytest.raises(ob.FaceIsBridged):
                ob.internal_component(g, s, fi)
            break


def oracle_subgraph_faces(g, sub_darts):
    """The former subgraph_faces: every angle and every next S-dart found
    by rescanning the rotation, O(deg^2) per vertex."""
    s = frozenset(sub_darts)
    vertices = {g.vertex_of[d] for d in s}
    next_s = {}
    for v in vertices:
        rot = g.rotations()[v]
        k = len(rot)
        for i, d in enumerate(rot):
            if d in s:
                pos = (i + 1) % k
                while rot[pos] not in s:
                    pos = (pos + 1) % k
                next_s[d] = rot[pos]
    walks, face_of, seen = [], {}, set()
    for start in sorted(s):
        if start in seen:
            continue
        walk, d = [], start
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = next_s[g.inv[d]]
        for d in walk:
            face_of[d] = len(walks)
        walks.append(tuple(walk))
    leaving = {d: (fi, pos) for fi, walk in enumerate(walks) for pos, d in enumerate(walk)}
    angle_of = {}
    for v in vertices:
        for d in g.rotations()[v]:
            if d not in s:
                nxt = d
                while nxt not in s:
                    nxt = g.sigma[nxt]
                angle_of[d] = leaving[nxt]
    return walks, face_of, angle_of


def test_subgraph_faces_matches_rescanning_oracle(corpus):
    rng = random.Random(3)
    graphs = list(corpus.values())
    graphs += [barycentric(g) for g in list(corpus.values())[:20]]
    for g in graphs:
        edges = g.edge_darts()
        subsets = [set(range(g.dart_count))]
        subsets += [{x for e in rng.sample(edges, rng.randint(1, len(edges))) for x in e}
                    for _ in range(6)]
        if g.genus() > 0 and g.labels is not None:
            cyc = tp.shortest_noncontractible_cycle(g)
            subsets.append(set(cyc) | {g.inv[d] for d in cyc})
        for s in subsets:
            sf = ob.subgraph_faces(g, s)
            walks, face_of, angle_of = oracle_subgraph_faces(g, s)
            assert list(sf.walks) == walks
            assert sf.face_of == face_of
            assert sf.angle_of == angle_of
