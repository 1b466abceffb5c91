"""The definitional ck checks, kept as test oracles.

``is_ck_embedded`` searches for a vertex cut of size <= 2 on every map,
and ``ck_via_cycles`` lists the short cycles of B_G on every map; the
production checks take k from ``topology._ck`` and search only when a
witness is read.  Tests compare the production reports with these,
field by field, so no test reads one fast path to check another.
"""

import math

from surfops import topology as tp
from surfops.chambers import barycentric


def is_ck_embedded(g, k):
    """No cut with fewer than k vertices, and face-width, minimum face
    size and minimum degree all at least k; the largest such k in
    {1, 2, 3}, with the witnesses of the conditions that fail."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    min_deg = min(g.degree(v) for v in range(g.vertex_count))
    min_face = min(len(f) for f in g.faces())
    fw, fw_cycle = tp.face_width_witness(g)
    cut = tp._smallest_cut(g)
    cut_free = 3 if cut is None else len(cut)  # no cut smaller than this
    k_max = min(min_deg, min_face, 3, cut_free)
    if fw != math.inf:
        k_max = min(k_max, int(fw))
    witness = {}
    if k_max < k:
        if min_deg < k:
            witness["degree"] = min(range(g.vertex_count), key=g.degree)
        if min_face < k:
            witness["face"] = min(range(len(g.faces())), key=lambda f: len(g.faces()[f]))
        if cut is not None and len(cut) < k:
            witness["cut"] = cut
        if fw != math.inf and fw < k:
            witness["cycle"] = fw_cycle
    return tp.CkReport(k_max=k_max, passed=k_max >= k, min_degree=min_deg,
                       min_face_size=min_face, face_width=fw, smallest_cut=cut,
                       witness=witness)


def ck_via_cycles(g, k):
    """c2 iff B_G has no 2-cycle, c3 iff it has no nontrivial 4-cycle
    either, read off the full short-cycle search of B_G."""
    if k not in (2, 3):
        raise ValueError("the cycle characterisation covers k=2 and k=3")
    k_max, witness = tp._short_cycles(barycentric(g))
    return tp.CkReport(k_max=k_max, passed=k_max >= k,
                       min_degree=min(g.degree(v) for v in range(g.vertex_count)),
                       min_face_size=min(len(f) for f in g.faces()), witness=witness)
