"""Tetrahedral reference meshes with tagged boundary faces.

Constructing a `ReferenceMesh` is the one gate for mesh input: it checks
the arrays and the faces and orients the tets; the mesh is immutable.
The gate sorts and reduces no short innermost axis: np.sort or a
reduction along rows of 3 or 4 pays per row, so face triples are sorted
by a min/max network over columns (`_sorted_triples`) and row tests are
ORs, ANDs or sums of whole columns, with the bits of the row forms.
The on-disk format is a line-oriented ASCII format::

    tetmesh v1
    # comment
    v x y z
    t i0 i1 i2 i3
    bf i0 i1 i2 TAG

with 0-based indices and TAG one of DIRICHLET / NEUMANN / FREE.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .export import _lines, atomic_write_text

DIRICHLET = "DIRICHLET"
NEUMANN = "NEUMANN"
FREE = "FREE"
TAGS = (DIRICHLET, NEUMANN, FREE)

# Local faces of a tet (i0,i1,i2,i3), outward-oriented for a positive tet.
_TET_FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


class MeshError(Exception):
    pass


def _cross(u, v, out=None):
    """u x v of 3-vectors indexed component first, into `out` or a new
    array; NumPy's cross moves axes, and took twice as long on 1296 tets."""
    if out is None:
        out = np.empty(np.broadcast_shapes(u.shape, v.shape))
    out[0] = u[1] * v[2] - u[2] * v[1]
    out[1] = u[2] * v[0] - u[0] * v[2]
    out[2] = u[0] * v[1] - u[1] * v[0]
    return out


def _dot(u, v):
    """u . v of 3-vectors indexed component first, in np.sum's order at
    a tenth of the cost of np.sum or np.linalg.norm over a length-3 axis."""
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


# corners c + 1 and c + 2 of each triangle corner c
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]
_TERM_CHUNK = 1024   # interior faces per pass of the stored corner terms


def corner_crosses(p):
    """The edges e1 = p[c + 1] - p[c] and e2 = p[c + 2] - p[c] leaving
    each corner c of triangles p, stored (xyz, corner, face), their
    crosses e1 x e2 and the crosses' lengths (corner, face), each twice
    the triangle's area."""
    e1, e2 = p[:, _NEXT] - p, p[:, _PREV] - p
    cross = _cross(e1, e2)
    return e1, e2, cross, np.sqrt(_dot(cross, cross))


def corner_terms(e1, e2, twice_area, areas):
    """The angle at each corner of triangles of positive `areas`, its
    cotangent and the corner's share of Meyer's mixed (Voronoi-safe)
    vertex area, each (corner, face), from `corner_crosses`.

    Reversing a triangle's corner order swaps each corner's e1 and e2,
    which negates its cross exactly and changes none of these bits, so
    they depend on the triangle's vertices, not on its orientation."""
    angles = np.arctan2(twice_area, _dot(e1, e2))
    cot = 1.0 / np.tan(angles)
    obtuse = angles > 0.5 * np.pi
    voronoi = (_dot(e2, e2) * cot[_NEXT] + _dot(e1, e1) * cot[_PREV]) / 8.0
    share = np.where(obtuse.any(axis=0),
                     np.where(obtuse, areas / 2.0, areas / 4.0), voronoi)
    return angles, cot, share


def face_terms(positions, tris):
    """The areas (n,) of the triangles `tris` (n, 3) at `positions`,
    and the angles, their cotangents and the mixed-area shares at their
    corners (3, 3, n), by `corner_crosses` and `corner_terms`.  A
    triangle of area <= 0 is degenerate: its terms are zero."""
    e1, e2, _, twice_area = corner_crosses(np.take(positions.T, tris.T,
                                                   axis=1))
    area = 0.5 * twice_area[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.array(corner_terms(e1, e2, twice_area, area))
    terms[:, :, area <= 0] = 0.0
    return area, terms


def _cofactors(A, out):
    """Write Cof A into `out` and return det A, for 3x3 matrices stored
    component first, (3, 3, ...): rows r1 x r2, r2 x r0, r0 x r1 of the rows
    r_i of A, and r0 . (r1 x r2)."""
    _cross(A[1], A[2], out[0])
    _cross(A[2], A[0], out[1])
    _cross(A[0], A[1], out[2])
    # a C-ordered product, so the three-term sum runs over whole rows
    return np.multiply(A[0], out[0], order="C").sum(axis=0)


def _read_only(value):
    value.setflags(write=False)
    return value


def _reject(entries, what):
    """Raise MeshError naming the first of `entries`, if there are any."""
    if n := len(entries):
        raise MeshError(f"{what} {entries[:5].tolist()} ({n} total)")


def _raise_if_any(bad, what):
    """Raise MeshError naming the first indices where `bad` holds."""
    _reject(np.flatnonzero(bad), what)


def _sorted_triples(a, b, c, out=None):
    """The smallest, middle and largest of a, b and c, elementwise, into
    `out` (3, ...) or a new array, which must not overlap a, b or c: a
    network of six minimum and maximum passes over whole columns, exact
    on any integers.  np.sort along a length-3 axis pays per row, and took
    4.1 ms against 0.6 ms for this on the 98 304 faces of a 16³ box's tets.
    """
    if out is None:
        out = np.empty((3, *np.broadcast_shapes(
            np.shape(a), np.shape(b), np.shape(c))), np.result_type(a, b, c))
    lo, mid, hi = out
    np.minimum(a, b, out=lo)
    np.maximum(a, b, out=hi)
    np.minimum(hi, c, out=mid)   # mid = max(min(a, b), min(max(a, b), c))
    np.maximum(hi, c, out=hi)
    np.maximum(lo, mid, out=mid)
    np.minimum(lo, c, out=lo)
    return out


def _face_keys(triples, n_vertices):
    """Keys (lo * nv + mid) * nv + hi of sorted triples (3, m)."""
    lo, mid, hi = triples
    return (lo * n_vertices + mid) * n_vertices + hi


def _any_row(bad):
    """Rows of the 2-D bool array `bad` holding a True, by ORs of its
    columns: .any(axis=1) over a short row pays per row, 2.6 ms against
    0.14 ms over 98 304 rows of 3."""
    columns = bad.T
    rows = columns[0].copy()
    for column in columns[1:]:
        rows |= column
    return rows


def _edge_cofactors(vertices, tets):
    """Cof M, component first (3, 3, nt), and det M of each tet's edge
    matrix M with the rows x_k - x_0.  M = DX^T, so det M is six times
    the signed volume and Cof M / det M = Cof(DX)^T / det DX = (DX)^-1."""
    x = np.take(vertices.T, tets.T, axis=1)     # (axis, corner, tet)
    cof = np.empty((3, 3, len(tets)))
    return cof, _cofactors((x[:, 1:] - x[:, :1]).swapaxes(0, 1), cof)


@dataclass(frozen=True)
class ReferenceMesh:
    """Tet mesh plus every array that depends only on the reference.

    Construction copies its inputs, raises MeshError naming the first
    offending entries on malformed input (checked before any gather: the
    shapes, finite vertices, integer indices in [0, nv), tags in TAGS),
    zero-volume tets, faces of more than two tets, duplicate tets and
    tags other than one on each face of one tet.  It swaps corners 0 and
    1 of each negative tet, so every tet is positive, and stores the
    boundary as face_topology gives it, tags moved along, so no array
    depends on the input's face or corner order.  The derived fields are
    built once and are read-only.  Face triples are sorted vertex ids;
    edge keys are lo * nv + hi.  The edge and adjacency maps below the
    fields are built on first use, so a mesh that never needs them does
    not pay for them.
    """
    vertices: np.ndarray          # (nv, 3) float
    tets: np.ndarray              # (nt, 4) int, positively oriented
    boundary_faces: np.ndarray    # (nb, 3) int, sorted triples, sorted rows
    boundary_tags: np.ndarray     # (nb,) object/str, one per boundary face
    volumes: np.ndarray = field(init=False)          # (nt,)
    # (DX)^-1, contiguous component first (3, 3, nt), and its (nt, 3, 3) view
    ref_inv_cf: np.ndarray = field(init=False, repr=False)
    ref_inv: np.ndarray = field(init=False, repr=False)
    # faces of exactly two tets, in order of first occurrence (tet-major,
    # local faces as in _TET_FACES), and their tets in occurrence order
    interior_faces: np.ndarray = field(init=False, repr=False)      # (ni, 3)
    interior_face_tets: np.ndarray = field(init=False, repr=False)  # (ni, 2)
    # pairs of boundary faces that share one vertex, as rows
    # (p, a1, a2, b1, b2) with p the shared vertex, and that share an
    # edge, as rows (u, v, a, b) with (u, v) the shared edge
    boundary_vertex_pairs: np.ndarray = field(init=False, repr=False)
    boundary_edge_pairs: np.ndarray = field(init=False, repr=False)
    # a third of each NEUMANN face's reference area, summed at its corners
    # face by face: the traction load on vertex v is traction_weights[v] g
    traction_weights: np.ndarray = field(init=False, repr=False)  # (nv,)
    # flat np.bincount index of the bulk gradient into a nodal (nv, 3)
    # array, in (corner, axis, tet) order over tet corners 1, 2, 3, 0; a
    # read-only view of the writable `_scatter_index`, which np.bincount
    # takes without a copy
    scatter_index: np.ndarray = field(init=False, repr=False)
    _scatter_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, _read_only(value))

        x = np.array(self.vertices, float)
        tets, faces = np.asarray(self.tets), np.asarray(self.boundary_faces)
        tags, nv = np.array(self.boundary_tags, object), len(x)
        for name, a, ok, want in (   # shape[1:] == (k,) iff a is (n, k)
                ("vertices", x, x.shape[1:] == (3,), "(nv, 3)"),
                ("tets", tets, tets.shape[1:] == (4,) and len(tets),
                 "(nt, 4), nt >= 1"),
                ("boundary faces", faces, faces.shape[1:] == (3,), "(nb, 3)"),
                ("boundary tags", tags, tags.shape == faces.shape[:1],
                 f"({len(faces)},), one per boundary face")):
            if not ok:
                raise MeshError(f"{name}: expected shape {want}, got {a.shape}")
        _raise_if_any(_any_row(~np.isfinite(x)), "non-finite vertices")
        for name, ids in (("tets", tets), ("boundary faces", faces)):
            if ids.size and not np.issubdtype(ids.dtype, np.integer):
                raise MeshError(f"{name}: expected integer vertex indices, "
                                f"got {ids.dtype}")   # astype would truncate
            _raise_if_any(_any_row((ids < 0) | (ids >= nv)),
                          f"{name} with vertex indices outside [0, {nv})")
        tets, faces = tets.astype(int), faces.astype(int)   # copies
        unknown = ~((tags == DIRICHLET) | (tags == NEUMANN) | (tags == FREE))
        names = sorted(set(map(str, tags[unknown])))
        _raise_if_any(unknown, f"unknown tags {names} on boundary faces")
        cof, det = _edge_cofactors(x, tets)
        _raise_if_any(np.abs(det) / 6.0 < 1e-300, "zero-volume tets")
        flip = np.flatnonzero(det < 0)
        if flip.size:   # swap corners 0 and 1, and recompute those tets
            tets[flip, :2] = tets[flip, 1::-1]
            cof[:, :, flip], det[flip] = _edge_cofactors(x, tets[flip])
        for name, value in (("vertices", x), ("tets", tets),
                            ("volumes", det / 6.0),
                            ("ref_inv_cf", np.divide(cof, det, out=cof))):
            put(name, value)
        put("ref_inv", self.ref_inv_cf.transpose(2, 0, 1))
        interior, pairs, boundary, shared = face_topology(tets, nv)
        put("interior_faces", interior)
        put("interior_face_tets", pairs)
        _reject(shared, "faces of more than two tets")
        # tets on one face with equal vertex-id sums have one fourth vertex
        t = tets.T   # column sums: a reduction over the rows is 10x slower
        sums = ((t[0] + t[1]) + (t[2] + t[3]))[pairs]
        duplicate = pairs[sums[:, 0] == sums[:, 1]]
        if len(duplicate):   # a pair shares up to four faces
            _reject(np.unique(duplicate, axis=0), "duplicate tets")
        tagged = _face_keys(_sorted_triples(*faces.T), nv)
        order = np.argsort(tagged)   # distinct keys, when the check passes
        tagged, keys = tagged[order], _face_keys(boundary.T, nv)
        if not np.array_equal(tagged, keys):
            twice = tagged[1:][tagged[1:] == tagged[:-1]]
            for what, bad in (
                    ("untagged boundary faces", np.setdiff1d(keys, tagged)),
                    ("boundary faces tagged more than once", np.unique(twice)),
                    ("tags on non-boundary faces",
                     np.setdiff1d(tagged, keys))):
                _reject(np.column_stack(np.unravel_index(bad, [nv] * 3)), what)
        put("boundary_faces", boundary)   # the tagged faces, each once
        put("boundary_tags", tags[order])
        vertex_pairs, edge_pairs = boundary_pairs(boundary)
        put("boundary_vertex_pairs", vertex_pairs)
        put("boundary_edge_pairs", edge_pairs)
        faces = self.boundary_faces[self.boundary_tags == NEUMANN]
        x = np.take(self.vertices.T, faces.T, axis=1)   # (axis, corner, face)
        cross = _cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
        areas = 0.5 * np.sqrt(_dot(cross, cross))
        put("traction_weights", np.bincount(
            faces.ravel(), np.repeat(areas / 3.0, 3), minlength=nv))
        object.__setattr__(self, "_scatter_index", (
            3 * self.tets.T[[1, 2, 3, 0], None]
            + np.arange(3)[:, None]).ravel())
        put("scatter_index", self._scatter_index.view())

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    def total_volume(self):
        return float(np.sum(self.volumes))

    def tet_centroids(self):
        """Mean of each tet's corners, (nt, 3), summed in corner order."""
        x = np.take(self.vertices.T, self.tets.T, axis=1)   # (3, 4, nt)
        return ((((x[:, 0] + x[:, 1]) + x[:, 2]) + x[:, 3]) / 4.0).T

    def dirichlet_vertex_mask(self):
        mask = np.zeros(self.n_vertices, bool)
        sel = self.boundary_tags == DIRICHLET
        mask[self.boundary_faces[sel].ravel()] = True
        return mask

    @cached_property
    def _interior_edges(self):
        keys, ids = np.unique(edge_keys(self.interior_faces, self.n_vertices),
                              return_inverse=True)
        return _read_only(keys), _read_only(
            np.ascontiguousarray(ids.reshape(3, -1).T))

    @property
    def interior_edge_keys(self):
        """Sorted keys of the edges of the interior faces, (ne,)."""
        return self._interior_edges[0]

    @property
    def interior_face_edges(self):
        """Ids into `interior_edge_keys` of each interior face's edges
        lo-mid, mid-hi and lo-hi, (ni, 3)."""
        return self._interior_edges[1]

    @cached_property
    def interior_edge_on_boundary(self):
        """Whether each of `interior_edge_keys` is an edge of a tagged
        boundary face, (ne,) bool."""
        return _read_only(np.isin(self.interior_edge_keys, edge_keys(
            self.boundary_faces, self.n_vertices)))

    @cached_property
    def interior_face_outward(self):
        """Whether each sorted triple of `interior_faces` points out of
        its first tet t, (ni,) bool: whether (a, *triple), a being t's
        corner off the face, is an even permutation of t's corners, as
        (k, *_TET_FACES[k]) is of (0, 1, 2, 3); its parity is that of
        t's inversions plus the corners of t below a."""
        t = self.tets[self.interior_face_tets[:, 0]].T
        f = self.interior_faces.T
        a = ((t[0] + t[1]) + (t[2] + t[3])) - ((f[0] + f[1]) + f[2])
        odd = (t[0] < a) ^ (t[1] < a) ^ (t[2] < a) ^ (t[3] < a)
        for i, j in combinations(range(4), 2):
            odd ^= t[i] > t[j]
        return _read_only(~odd)

    @cached_property
    def tet_interior_faces(self):
        """Ids into `interior_faces` of each tet's interior faces,
        ascending, then -1 for each face on the boundary, (nt, 4)."""
        tet = self.interior_face_tets.ravel()    # face i at 2 i, 2 i + 1
        order = np.argsort(tet, kind="stable")
        count = np.bincount(tet, minlength=self.n_tets)
        tet = tet[order]
        faces = np.full((self.n_tets, 4), -1)
        faces[tet, np.arange(len(tet)) - (np.cumsum(count) - count)[tet]] = \
            order // 2
        return _read_only(faces)

    @cached_property
    def interior_face_terms(self):
        """The `face_terms` of the interior faces' sorted triples at the
        reference positions, (ni,) and (3, 3, ni): the per-face terms of
        every interface there, whichever way its faces point.  Built
        _TERM_CHUNK faces at a time, which bounds the kernel's
        temporaries.  On a mesh of edges near 1e-90 a face's squared
        cross underflows to a zero area, which makes it degenerate."""
        ni = len(self.interior_faces)
        areas, terms = np.empty(ni), np.empty((3, 3, ni))
        for lo in range(0, ni, _TERM_CHUNK):
            part = slice(lo, lo + _TERM_CHUNK)
            areas[part], terms[:, :, part] = face_terms(
                self.vertices, self.interior_faces[part])
        return _read_only(areas), _read_only(terms)

    @cached_property
    def vertex_tet_start(self):
        """Offsets of each vertex's run in `vertex_tets`, (nv + 1,)."""
        return _read_only(np.r_[0, np.cumsum(np.bincount(
            self.tets.ravel(), minlength=self.n_vertices))])

    @cached_property
    def vertex_tets(self):
        """The tets of vertex v, ascending, at vertex_tets[vertex_tet_start[v]:
        vertex_tet_start[v + 1]]: a CSR vertex-to-tet adjacency, (4 nt,)."""
        return _read_only(np.argsort(self.tets.ravel(), kind="stable") // 4)


def face_topology(tets, n_vertices):
    """Faces of a tet mesh grouped by the number of tets sharing them.

    Returns (interior faces (ni, 3), their tets (ni, 2), boundary faces,
    faces of more than two tets), the last two in lexicographic order.
    """
    if n_vertices >= 2**21:
        raise MeshError("face keys need fewer than 2**21 vertices")
    t = np.ascontiguousarray(np.asarray(tets, int).T)
    # the sorted triple of local face k of tet i is occurrence 4 i + k
    occ = np.empty((3, t.shape[1], 4), int)
    for k, (a, b, c) in enumerate(_TET_FACES):
        _sorted_triples(t[a], t[b], t[c], occ[:, :, k])
    occ = occ.reshape(3, -1)
    key = _face_keys(occ, n_vertices)
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[start, len(key)])
    pair = start[count == 2]
    # each pair's later occurrence, filed under its first, read in order
    # of first occurrence
    second = np.full(len(key), -1)
    second[order[pair]] = order[pair + 1]
    first = np.flatnonzero(second >= 0)

    def triples(at):
        return np.ascontiguousarray(np.take(occ, at, axis=1).T)
    pairs = np.stack([first, second[first]], axis=1) // 4
    return (triples(first), pairs, triples(order[start[count == 1]]),
            triples(order[start[count > 2]]))


def run_pairs(ids):
    """Index pairs (i, j), i < j, of the equal entries of sorted `ids`.

    The pairs come ordered by i, then j.
    """
    n = len(ids)
    start = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    end = np.r_[start[1:], n]
    later = np.repeat(end, end - start) - np.arange(n) - 1
    first = np.repeat(np.arange(n), later)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return first, first + 1 + offset


def boundary_pairs(faces):
    """Pairs of triangles of `faces` (m, 3) that share vertices.

    Returns the rows (p, a1, a2, b1, b2) of the pairs sharing one vertex
    p, and (u, v, a, b) of the pairs sharing the edge (u, v), with the
    other vertices of the first triangle before those of the second.
    Pairs come in order of (first triangle, second triangle).
    """
    faces = np.asarray(faces, int).reshape(-1, 3)
    corner = faces.ravel()
    order = np.argsort(corner, kind="stable")
    i, j = run_pairs(corner[order])
    shared, a, b = corner[order[i]], order[i] // 3, order[j] // 3
    by_pair = np.argsort(a * len(faces) + b, kind="stable")
    key = (a * len(faces) + b)[by_pair]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[start, len(key)])
    columns = faces.T

    def others(at, p):
        """The corners of triangles `at` other than their corner p, in
        row order."""
        x, y, z = np.take(columns, at, axis=1)
        return np.where(p == x, y, x), np.where(p == z, y, z)

    one = by_pair[start[count == 1]]
    p = shared[one]
    vertex_pairs = np.column_stack([p, *others(a[one], p), *others(b[one], p)])
    two = start[count == 2]
    first, second = by_pair[two], by_pair[two + 1]
    u, v = shared[first], shared[second]
    fa, fb = (np.take(columns, at[first], axis=1) for at in (a, b))
    edge_pairs = np.column_stack([u, v, fa[0] + fa[1] + fa[2] - u - v,
                                  fb[0] + fb[1] + fb[2] - u - v])
    return vertex_pairs, edge_pairs


def component_count(n, pairs):
    """Connected components of the graph on n nodes with edges `pairs`.

    Each node's label is its component's smallest node, found by hooking
    the larger of two labels joined by an edge onto the smaller and then
    pointer jumping until every label is a root.
    """
    label = np.arange(n)
    a, b = np.asarray(pairs, int).reshape(-1, 2).T
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return int(np.count_nonzero(label == np.arange(n)))
        la, lb = la[differ], lb[differ]
        label[np.maximum(la, lb)] = np.minimum(la, lb)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def edge_keys(faces, n_vertices):
    """Keys lo * n_vertices + hi of the three edges of each triangle."""
    lo, mid, hi = _sorted_triples(*np.asarray(faces, int).reshape(-1, 3).T)
    return np.concatenate([lo * n_vertices + mid, mid * n_vertices + hi,
                           lo * n_vertices + hi])


# Kuhn split of the unit cube into 6 tets, conforming across cells.  Each
# tet walks 0 -> e_a -> e_a + e_b -> (1,1,1) along a permutation (a, b, c)
# of the axes; cube corner (i, j, k) is number 4i + 2j + k.
_CUBE_CORNERS = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
_KUHN_TETS = np.cumsum([[0] + [(4, 2, 1)[axis] for axis in perm]
                        for perm in permutations(range(3))], axis=1)
# the walks along the odd permutations (rows 1, 2, 5) are negatively
# oriented; swapping their first two corners makes every tet positive
_KUHN_TETS[[1, 2, 5], :2] = _KUHN_TETS[[1, 2, 5], 1::-1]


def build_box_mesh(nx, ny, nz, extent=(1.0, 1.0, 1.0), tagging=None):
    """Structured tetrahedral mesh of a box [0,ex] x [0,ey] x [0,ez].

    Each grid cell is split into 6 positively oriented tets (Kuhn split).
    `tagging` maps a boundary-face centroid (3-vector) to a tag; default
    tags every boundary face FREE.
    """
    nx, ny, nz = int(nx), int(ny), int(nz)
    if min(nx, ny, nz) < 1:
        raise MeshError("cell counts must be >= 1")
    ex, ey, ez = (float(e) for e in extent)
    if min(ex, ey, ez) <= 0:
        raise MeshError("extents must be positive")

    xs = np.linspace(0.0, ex, nx + 1)
    ys = np.linspace(0.0, ey, ny + 1)
    zs = np.linspace(0.0, ez, nz + 1)
    vertices = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"),
                        axis=-1).reshape(-1, 3)
    vid = np.arange(len(vertices)).reshape(nx + 1, ny + 1, nz + 1)
    corners = np.stack([vid[i:i + nx, j:j + ny, k:k + nz].ravel()
                        for i, j, k in _CUBE_CORNERS], axis=1)
    tets = corners[:, _KUHN_TETS].reshape(-1, 4)
    # a tet face is on the boundary iff its corners share a box side
    ijk, side = np.indices(vid.shape).reshape(3, -1), 0
    for axis, n in enumerate((nx, ny, nz)):
        side = (side | (ijk[axis] == 0) << 2 * axis
                | (ijk[axis] == n) << 2 * axis + 1)
    s = side[tets.T]
    on = np.empty((len(tets), 4), bool)   # local face k of tet i at [i, k]
    for k, (a, b, c) in enumerate(_TET_FACES):
        np.not_equal(s[a] & s[b] & s[c], 0, out=on[:, k])
    tet, k = np.divmod(np.flatnonzero(on), 4)
    bfaces = _sorted_triples(*tets[tet, np.array(_TET_FACES).T[:, k]])
    x = np.take(vertices.T, bfaces, axis=1)   # (axis, corner, face)
    centroids = (((x[:, 0] + x[:, 1]) + x[:, 2]) / 3.0).T
    if tagging is None:
        tags = np.array([FREE] * len(tet), object)
    else:
        tags = np.array([tagging(c) for c in centroids], object)
    return ReferenceMesh(vertices=vertices, tets=tets,
                         boundary_faces=bfaces.T, boundary_tags=tags)


def plane_tagging(rules):
    """Face tagging from axis-aligned plane rules.

    `rules` is a list of dicts {"tag", "axis", "value", "tol"}; a face gets
    the first tag whose plane contains its centroid coordinate, and FREE
    when there is none.  The rules are read here, once: a rule without a
    tag, axis or value, or with a negative tol, which tags nothing, raises
    ValueError.
    """
    planes = []
    for i, rule in enumerate(rules):
        for key in ("tag", "axis", "value"):
            if key not in rule:
                raise ValueError(f"plane tagging: rule {i} {rule!r} has no "
                                 f"{key!r}")
        tol = rule.get("tol", 1e-9)
        if tol < 0:
            raise ValueError("plane tagging: tol must be >= 0")
        planes.append((rule["axis"], rule["value"], tol, rule["tag"]))

    def tag(centroid):
        for axis, value, tol, name in planes:
            if abs(centroid[axis] - value) <= tol:
                return name
        return FREE
    return tag


def save_mesh(mesh, path):
    faces = np.empty((len(mesh.boundary_faces), 4), object)  # ids, then tag
    faces[:, :3], faces[:, 3] = mesh.boundary_faces, mesh.boundary_tags
    atomic_write_text(path, "".join([
        "tetmesh v1\n", _lines("v %.17g %.17g %.17g", mesh.vertices),
        _lines("t %d %d %d %d", mesh.tets), _lines("bf %d %d %d %s", faces)]))


def load_mesh(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshError(f"{path}: cannot read the mesh file: {exc}") from exc
    if lines[0].strip() != "tetmesh v1":
        raise MeshError(f"{path}:1: expected header 'tetmesh v1'")
    vertices, tets, bfaces, btags = [], [], [], []
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 4:
                vertices.append([float(p) for p in parts[1:]])
            elif parts[0] == "t" and len(parts) == 5:
                tets.append([int(p) for p in parts[1:]])
            elif parts[0] == "bf" and len(parts) == 5:
                bfaces.append([int(p) for p in parts[1:4]])
                btags.append(parts[4])
            else:
                raise ValueError("unrecognized record")
        except ValueError as exc:
            raise MeshError(f"{path}:{ln}: parse error: {exc}") from exc
    try:
        mesh = ReferenceMesh(
            vertices=np.array(vertices, float).reshape(-1, 3),
            tets=np.array(tets, int).reshape(-1, 4),
            boundary_faces=np.array(bfaces, int).reshape(-1, 3),
            boundary_tags=np.array(btags, object))
        # the injectivity check needs a connected body; a box is one
        components = component_count(mesh.n_tets, mesh.interior_face_tets)
        if components > 1:
            raise MeshError(f"{components} face-connected components")
    except MeshError as exc:
        raise MeshError(f"{path}: invalid mesh: {exc}") from exc
    return mesh
