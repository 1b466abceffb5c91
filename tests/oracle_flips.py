"""Chamber flips on the barycentric subdivision, kept as test tools.

A chamber flip replaces one edge of a walk in ``B_G`` by the other two
sides of a chamber (a triangle of ``B_G``) on it, or two consecutive
sides of a chamber by the third.  A flip moves the walk across one
chamber, so by the one-flip lemma a non-contractible cycle stays
non-contractible: one of the simple cycles the flipped walk splits into
is.  Flipping the chambers around a type-1 vertex moves a shortest
non-contractible cycle of ``B_G`` off it at no greater length, which is
why the face-width search on the radial graph ``R(G)`` finds the
minimum of ``B_G``.  ``test_c10_flip_lemma_property`` checks the lemma
on B(K7) with these tools."""


class NotOnChamberBoundary(ValueError):
    """A chamber flip was requested at a subpath not bounding the chamber."""


def _chamber_path_between(t, face_walk, u, v):
    """Both boundary paths of a triangle from u to v: (one edge, two edges)."""
    # face_walk darts x->y->z->x
    darts = list(face_walk)
    tails = [t.vertex_of[d] for d in darts]
    one = None
    for i, d in enumerate(darts):
        if tails[i] == u and t.head(d) == v:
            one = [d]
        if tails[i] == v and t.head(d) == u:
            one = [t.inv[d]]
        if one:
            break
    if one is None:
        return None
    # complementary path through the third corner, from u to v
    i = darts.index(one[0]) if one[0] in darts else darts.index(t.inv[one[0]])
    a, bdart = darts[(i + 1) % 3], darts[(i + 2) % 3]
    if one[0] in darts:
        two = [t.inv[bdart], t.inv[a]]
    else:
        two = [a, bdart]
    return one, two


def chamber_flip(t, walk, position, chamber_face, closed=True, arity=None):
    """Replace the walk subpath at ``position`` by the complementary
    boundary path of the chamber.

    ``walk`` is a dart sequence in the triangulation ``t``; ``chamber_face``
    a face index.  If the dart pair at ``position`` runs along two edges of
    the chamber it is replaced by the single opposite edge, otherwise the
    single dart at ``position`` is replaced by the two-edge path through
    the third corner.  When both subpaths bound the chamber, ``arity``
    (1 or 2) picks the one to replace; by default the two-edge subpath
    wins.  Raises ``NotOnChamberBoundary`` if nothing applies.
    """
    walk = list(walk)
    L = len(walk)
    face_walk = t.faces()[chamber_face]
    edge_set = {t.edge_of(d) for d in face_walk}
    d0 = walk[position]
    nxt = walk[(position + 1) % L] if (closed or position + 1 < L) else None
    if (
        arity != 1
        and nxt is not None
        and t.edge_of(d0) in edge_set
        and t.edge_of(nxt) in edge_set
        and t.edge_of(d0) != t.edge_of(nxt)
    ):
        u = t.vertex_of[d0]
        v = t.head(nxt)
        pair = _chamber_path_between(t, face_walk, u, v)
        if pair is not None:
            one, two = pair
            if [t.edge_of(x) for x in two] == [t.edge_of(d0), t.edge_of(nxt)]:
                if (position + 1) % L == 0:
                    return one + walk[1:-1] if not closed else walk[1:-1] + one
                return walk[:position] + one + walk[position + 2 :]
    if arity != 2 and t.edge_of(d0) in edge_set:
        u = t.vertex_of[d0]
        v = t.head(d0)
        pair = _chamber_path_between(t, face_walk, u, v)
        if pair is not None and t.edge_of(pair[0][0]) == t.edge_of(d0):
            one, two = pair
            return walk[:position] + two + walk[position + 1 :]
    raise NotOnChamberBoundary(
        "walk position %d does not bound face %d" % (position, chamber_face)
    )


def legal_flips(t, walk, closed=True):
    """All (position, chamber_face, arity) triples where a flip applies."""
    L = len(walk)
    out = []
    for i, d in enumerate(walk):
        e = t.edge_of(d)
        for f in (t.face_of(d), t.face_of(t.inv[d])):
            if len(t.faces()[f]) == 3:
                out.append((i, f, 1))
        if closed or i + 1 < L:
            nxt = walk[(i + 1) % L]
            if t.edge_of(nxt) == e:
                continue
            shared = {t.face_of(d), t.face_of(t.inv[d])} & {
                t.face_of(nxt),
                t.face_of(t.inv[nxt]),
            }
            for f in shared:
                if len(t.faces()[f]) == 3:
                    out.append((i, f, 2))
    return out


def walk_cycles(t, walk):
    """Split a closed walk into the simple cycles it contains.

    Splitting happens at repeated vertices; back-and-forth spikes
    (a dart immediately followed by its reverse, in cyclic order) are
    discarded since they bound no cycle.
    """
    walk = list(walk)
    # drop spikes until stable
    changed = True
    while changed and walk:
        changed = False
        L = len(walk)
        for i in range(L):
            j = (i + 1) % L
            if walk[j] == t.inv[walk[i]]:
                if j > i:
                    walk = walk[:i] + walk[j + 1 :]
                else:
                    walk = walk[1:i]
                changed = True
                break
    if not walk:
        return []
    tails = [t.vertex_of[d] for d in walk]
    pos = {}
    for i, v in enumerate(tails):
        if v in pos:
            first = pos[v]
            part1 = walk[first:i]
            part2 = walk[i:] + walk[:first]
            return walk_cycles(t, part1) + walk_cycles(t, part2)
        pos[v] = i
    return [walk]
