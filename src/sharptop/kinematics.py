"""Deformation states, per-tet gradients/minors, distortion, injectivity.

The deformation is piecewise affine over the tets: F = Dx (DX)^-1 with
edge matrices of the deformed and reference tet; the mesh stores
(DX)^-1 component first as `ref_inv_cf`.  Almost-everywhere injectivity
is checked exactly, as the absence of self-intersections of the deformed
boundary surface (with `mesh._cross` and `mesh._dot`, the package's 3-vector
kernels); the Ciarlet-Necas gap between the Jacobian integral and a Monte
Carlo estimate of the image volume remains as a diagnostic.
"""

from dataclasses import dataclass, replace

import numpy as np

from .mesh import _cofactors, _cross, _dot, run_pairs


class KinematicsError(Exception):
    pass


@dataclass(frozen=True)
class DeformationState:
    positions: np.ndarray      # (nv, 3) deformed coordinates
    dirichlet_mask: np.ndarray  # (nv,) bool

    def __post_init__(self):
        object.__setattr__(self, "positions",
                           np.asarray(self.positions, float))
        object.__setattr__(self, "dirichlet_mask",
                           np.asarray(self.dirichlet_mask, bool))

    def with_positions(self, positions):
        return replace(self, positions=np.asarray(positions, float))


def identity_state(mesh):
    """Identity deformation; Dirichlet vertices pinned to the reference."""
    return DeformationState(positions=mesh.vertices.copy(),
                            dirichlet_mask=mesh.dirichlet_vertex_mask())


def component_first(A):
    """A (..., 3, 3) array viewed as (3, 3, ...): A[..., i, j] is [i, j]."""
    return A.transpose(A.ndim - 2, A.ndim - 1, *range(A.ndim - 2))


def deformation_gradients(mesh, positions):
    """Per-tet deformation gradients, shape (nt, 3, 3).

    F = Dx G with the edges d_k = x_k - x_0 as the columns of Dx and
    G = ref_inv, by np.einsum (NumPy's own loops, never BLAS):
    F[i, j] = ((0 + d1[i] G[0, j]) + d2[i] G[1, j]) + d3[i] G[2, j].  F is
    an (nt, 3, 3) view of (3, 3, nt) storage, like `ref_inv`.
    """
    # np.take on (axis, vertex) rows gathers 4x faster than fancy indexing
    x = np.take(np.asarray(positions, float).T, mesh.tets.T, axis=1)
    d = x[:, 1:] - x[:, :1]                 # (axis, edge, tet)
    x = None                                # freed before F is built
    return np.einsum("ict,cjt->ijt", d, mesh.ref_inv_cf).transpose(2, 0, 1)


def deformation_minors(mesh, positions):
    """(F, Cof F, det F) of every tet, component first: (3, 3, nt) twice
    and (nt,), as the bulk kernel reads them."""
    F, cof, det = minors(deformation_gradients(mesh, positions))
    return component_first(F), component_first(cof), det


def minors(F):
    """(F, Cof F, det F); batched over leading axes, Cof F in F's layout,
    written through component-first views."""
    F = np.asarray(F, float)
    cof = np.empty_like(F)
    return F, cof, _cofactors(component_first(F), component_first(cof))


def squared_norm(F):
    """|F|^2 of 3x3 matrices stored component first, (3, 3, ...): the
    squares q_k = F[k // 3, k % 3]^2 added in NumPy's pairwise order for a
    contiguous 3x3, (((q0 + q1) + (q2 + q3)) + ((q4 + q5) + (q6 + q7))) + q8,
    whatever the layout; np.sum over a strided view adds in another order."""
    q = (F ** 2).reshape(9, *F.shape[2:])
    return (((q[0] + q[1]) + (q[2] + q[3]))
            + ((q[4] + q[5]) + (q[6] + q[7]))) + q[8]


def distortion(F):
    """|F|^3 / det F (Frobenius norm); >= 3*sqrt(3), batched."""
    F, _, det = minors(F)
    if np.any(det <= 0):
        raise KinematicsError("distortion requires det F > 0")
    return np.sqrt(squared_norm(component_first(F)))**3 / det


QUERY_CHUNK = 128  # points per point-in-tet batch; bounds the pair arrays
INSIDE_TOL = 1e-12  # slack of the barycentric point-in-tet test


class _Grid:
    """Uniform grid of `shape` cells over the union of item boxes.

    Item i has the bounding box [box_lo[i], box_hi[i]] and is listed in
    every cell its box overlaps.  The entries are sorted by the key
    cell * n + item, so a cell's items are contiguous and ascending:
    entry e lists item[e] in cell[e], and bit `axis` of low[e] is set
    when cell[e] is the box's lowest cell on that axis.
    """

    def __init__(self, box_lo, box_hi, shape):
        self.lo = box_lo.min(axis=0)
        self.hi = box_hi.max(axis=0)
        self.shape = np.asarray(shape)
        span = np.maximum(self.hi - self.lo, 1e-300)
        self.inv_h = self.shape / span
        first = self._cell(box_lo)
        extent = self._cell(box_hi) - first + 1
        # the r-th cell of item i's box, r < extent.prod(), in C order
        n, count = len(box_lo), extent[:, 0] * extent[:, 1] * extent[:, 2]
        item = np.repeat(np.arange(n), count)
        r = np.arange(len(item)) - np.repeat(np.cumsum(count) - count, count)
        cells, low = first[item], 0
        for axis in (2, 1, 0):
            r, offset = np.divmod(r, np.take(extent[:, axis], item))
            cells[:, axis] += offset
            low = low | (offset == 0) << axis
        # the low bits ride below the key, which is unique per entry
        keys = np.sort((self._flat(cells) * n + item) * 8 + low)
        self.cell, keys = np.divmod(keys, 8 * n)
        self.item, self.low = np.divmod(keys, 8)

    def _cell(self, points):
        """Integer cell coordinates of points, clipped to the grid."""
        return np.clip(((points - self.lo) * self.inv_h).astype(int),
                       0, self.shape - 1)

    def _flat(self, cell_ids):
        return ((cell_ids[:, 0] * self.shape[1] + cell_ids[:, 1])
                * self.shape[2] + cell_ids[:, 2])


class _TetGrid(_Grid):
    """Uniform spatial hash over deformed tets for point-in-tet queries.

    The grid has round(nt^(1/3)) cells per axis over the deformed bounding
    box.  `cell_tets` holds the candidate tets grouped by flat cell id,
    ascending tet id within a cell, and cell c's group is
    cell_tets[cell_start[c]:cell_start[c + 1]].
    """

    def __init__(self, positions, tets):
        self.corners = np.asarray(positions, float)[tets]  # (nt, 4, 3)
        n = len(tets)
        self.res = max(1, int(round(n ** (1.0 / 3.0))))
        super().__init__(self.corners.min(axis=1), self.corners.max(axis=1),
                         (self.res,) * 3)
        # inverse affine maps x -> barycentric-ish local coords
        e = np.transpose(self.corners[:, 1:] - self.corners[:, :1], (0, 2, 1))
        self.inv_e = np.linalg.inv(e)
        self.base = self.corners[:, 0]
        self.cell_tets = self.item.astype(np.int32)
        self.cell_start = np.searchsorted(self.cell,
                                          np.arange(self.res**3 + 1))

    def box_volume(self):
        return float(np.prod(self.hi - self.lo))

    def contains(self, points):
        """Boolean mask: is each point inside at least one tet."""
        points = np.asarray(points, float)
        flat = self._flat(self._cell(points))
        first = self.cell_start[flat]
        count = self.cell_start[flat + 1] - first
        hit = np.zeros(len(points), bool)
        for a in range(0, len(points), QUERY_CHUNK):
            n_pairs = count[a:a + QUERY_CHUNK]
            point = np.repeat(np.arange(a, a + len(n_pairs)), n_pairs)
            group_start = np.cumsum(n_pairs) - n_pairs
            tet = self.cell_tets[np.arange(len(point)) + np.repeat(
                first[a:a + QUERY_CHUNK] - group_start, n_pairs)]
            d = points[point] - self.base[tet]
            lam = np.einsum("kij,kj->ki", self.inv_e[tet], d)
            # per-component tests: length-3 reductions cost more than the
            # gather and the einsum; (l0 + l1) + l2 is np.sum's order
            l0, l1, l2 = lam.T
            inside = ((l0 >= -INSIDE_TOL) & (l1 >= -INSIDE_TOL)
                      & (l2 >= -INSIDE_TOL)
                      & ((l0 + l1) + l2 <= 1.0 + INSIDE_TOL))
            hit[point[inside]] = True
        return hit


def jacobian_integral(mesh, positions):
    """Integral of det grad y over the reference domain (exact)."""
    det = deformation_minors(mesh, positions)[2]
    if np.any(det <= 0):
        raise KinematicsError("det F <= 0 in some tet")
    return float(np.sum(mesh.volumes * det))


@dataclass(frozen=True)
class CiarletNecasResult:
    jacobian_integral: float
    image_volume_estimate: float
    residual: float
    mc_std: float
    samples: int


def ciarlet_necas_residual(mesh, state, samples=100_000, seed=0):
    """Monte Carlo gap between the Jacobian integral and the image volume.

    Residual near zero indicates a.e. injectivity; a residual well above
    the Monte Carlo noise indicates sheet overlap.
    """
    if samples <= 0:
        raise ValueError("need at least one sample")
    jac = jacobian_integral(mesh, state.positions)
    grid = _TetGrid(state.positions, mesh.tets)
    rng = np.random.default_rng(seed)
    box = grid.box_volume()
    points = rng.uniform(grid.lo, grid.hi, size=(int(samples), 3))
    hits = int(np.count_nonzero(grid.contains(points)))
    p = hits / samples
    image = box * p
    std = box * float(np.sqrt(max(p * (1.0 - p), 0.0) / samples))
    return CiarletNecasResult(jacobian_integral=jac,
                              image_volume_estimate=image,
                              residual=jac - image,
                              mc_std=std, samples=int(samples))


def _corners(x, rows):
    """x (3, nv) gathered at `rows` (n, k): (3, k, n), component first."""
    return np.take(x, rows.T, axis=1)


def _line_crosses(p, q, a, b, c):
    """Does the line through p and q pass strictly inside triangle abc?

    It does when the orient3d signs of (p, q) against the three edges of
    abc are equal and not zero.  With p and q strictly on opposite sides
    of the plane of abc, that is the open segment pq piercing the open
    triangle.  Arguments are component first, (3, n); returns (n,) bool.
    """
    d, ap, bp, cp = q - p, a - p, b - p, c - p
    s0 = np.sign(_dot(d, _cross(ap, bp)))
    s1 = np.sign(_dot(d, _cross(bp, cp)))
    s2 = np.sign(_dot(d, _cross(cp, ap)))
    return (s0 != 0) & (s0 == s1) & (s1 == s2)


def _coplanar_overlap(A, B):
    """Do coplanar triangles A and B, (3, 3, n) component first, share
    interior points?

    Separating-axis test on the six edge lines: an edge line separates
    when no corner of the other triangle lies strictly on its inner side
    (the side of the triangle's own third corner).  For the edge from
    corner i of T with normal n, x is inside when (x - T_i) . (n x edge)
    is positive.
    """
    overlap = np.ones(A.shape[2], bool)
    for T, U in ((A, B), (B, A)):
        normal = _cross(T[:, 1] - T[:, 0], T[:, 2] - T[:, 0])
        inward = _cross(normal[:, None], np.roll(T, -1, axis=1) - T)
        inner = ((inward[:, :, None] * U[:, None]).sum(axis=0)
                 - _dot(inward, T)[:, None])            # (edge, corner, n)
        overlap &= (inner.max(axis=1) > 0).all(axis=0)
    return overlap


def _disjoint_pairs_cross(A, B):
    """Triangle pairs (3, 3, n) with no common vertex: do they cross?

    Off a common plane, a pair can cross only when each triangle has
    corners strictly on both sides of the other's plane, and then an
    edge of one pierces the other.  An exactly coplanar pair crosses when
    the triangles overlap in their plane.
    """
    nA = _cross(A[:, 1] - A[:, 0], A[:, 2] - A[:, 0])
    nB = _cross(B[:, 1] - B[:, 0], B[:, 2] - B[:, 0])
    sA = np.sign(_dot(nB[:, None], A - B[:, :1]))    # (corner of A, n)
    sB = np.sign(_dot(nA[:, None], B - A[:, :1]))
    hit = np.zeros(A.shape[2], bool)
    k = np.flatnonzero((sA.max(axis=0) > 0) & (sA.min(axis=0) < 0)
                       & (sB.max(axis=0) > 0) & (sB.min(axis=0) < 0))
    for T, U, s in ((A[:, :, k], B[:, :, k], sA[:, k]),
                    (B[:, :, k], A[:, :, k], sB[:, k])):
        # edge i of T runs from corner i to corner i + 1; it pierces U
        # when its ends lie strictly on opposite sides of U's plane
        across = s * np.roll(s, -1, axis=0) < 0
        hit[k] |= (across & _line_crosses(T, np.roll(T, -1, axis=1),
                                          U[:, :1], U[:, 1:2], U[:, 2:])
                   ).any(axis=0)
    k = np.flatnonzero(~sA.any(axis=0) | ~sB.any(axis=0))
    hit[k] = _coplanar_overlap(A[:, :, k], B[:, :, k])
    return hit


def _vertex_pairs_cross(P):
    """Triangles (p, a1, a2) and (p, b1, b2) sharing only the vertex p,
    given as rows (3, 5, n): do they cross?

    Off a common plane they can meet only on a line through p, so they
    cross exactly when the opposite edge of one pierces the other; both
    opposite edges then cross the other triangle's plane.  In a common
    plane they overlap exactly when their sectors at p do: each of the
    four edge lines through p has a corner of the other triangle
    strictly on its inner side.
    """
    R = P[:, 1:] - P[:, :1]                # a1, a2, b1, b2 relative to p
    normal = _cross(R[:, 0::2], R[:, 1::2])             # (3, [nA, nB], n)
    # side[t, c]: corner c of one triangle against the plane of the other
    side = np.sign(_dot(normal[:, ::-1, None], R.reshape(3, 2, 2, -1)))
    hit = np.zeros(P.shape[2], bool)
    k = np.flatnonzero((side[:, 0] * side[:, 1] < 0).all(axis=0))
    Rk = R[:, :, k].reshape(3, 2, 2, -1)
    hit[k] = _line_crosses(Rk[:, :, 0], Rk[:, :, 1], np.zeros((3, 1, 1)),
                           Rk[:, ::-1, 0], Rk[:, ::-1, 1]).any(axis=0)
    k = np.flatnonzero((side == 0).all(axis=1).any(axis=0))
    # x lies inside A's edge line along a1 when (a1 x x) . nA > 0, and
    # inside the one along a2 when (a2 x x) . nA < 0; likewise for B,
    # with the turns a x b below negated
    a, b = R[:, [0, 0, 1, 1]][:, :, k], R[:, [2, 3, 2, 3]][:, :, k]
    turn = _cross(a, b)
    on_a = _dot(turn, normal[:, :1, k])
    on_b = _dot(turn, normal[:, 1:, k])
    hit[k] = ((on_a[:2].max(axis=0) > 0) & (on_a[2:].min(axis=0) < 0)
              & (on_b[0::2].min(axis=0) < 0) & (on_b[1::2].max(axis=0) > 0))
    return hit


def _edge_pairs_fold(E):
    """Triangles (u, v, a) and (u, v, b) sharing the edge uv, given as
    rows (3, 4, n): do they lie in one plane on the same side of uv?"""
    uv, ua, ub = (E[:, 1:] - E[:, :1]).swapaxes(0, 1)
    normal = _cross(uv, ua)
    return (_dot(normal, ub) == 0) & (_dot(normal, _cross(uv, ub)) > 0)


def _candidate_pairs(T, faces):
    """Pairs (i, j), i < j, of triangles with no common vertex whose
    bounding boxes overlap, for triangles T (3, 3, m) component first.

    The triangles are hashed on a uniform grid whose cell edge is their
    mean largest box extent, coarsened so that the grid has at most 8
    cells per triangle.  A pair is kept once, in the cell that holds the
    low corner of the intersection of the two boxes.
    """
    m = T.shape[2]
    lo, hi = T.min(axis=1), T.max(axis=1)                     # (3, m)
    span = hi.max(axis=1) - lo.min(axis=1)
    h = max(float((hi - lo).max(axis=0).mean()),
            float(np.prod(span) / (8 * m)) ** (1.0 / 3.0), 1e-300)
    grid = _Grid(lo.T, hi.T, np.maximum(1, (span / h).astype(int)))
    i, j = run_pairs(grid.cell)
    own = (grid.low[i] | grid.low[j]) == 7
    a, b = grid.item[i[own]], grid.item[j[own]]
    fa, fb = np.take(faces.T, a, axis=1), np.take(faces.T, b, axis=1)
    keep = ~(fa[:, None] == fb[None]).any(axis=(0, 1))
    a, b = a[keep], b[keep]
    keep = ((np.take(lo, a, axis=1) <= np.take(hi, b, axis=1)).all(axis=0)
            & (np.take(lo, b, axis=1) <= np.take(hi, a, axis=1)).all(axis=0))
    return a[keep], b[keep]


def boundary_self_intersects(mesh, positions):
    """Does the deformed boundary surface cross itself?

    By Ball's theorem (1981), a deformation with det F > 0 on a connected
    body is injective almost everywhere exactly when its boundary surface
    does not intersect itself.  Every pair of the mesh's `boundary_faces`
    is tested by kind: pairs sharing an edge or a vertex from the mesh's
    `boundary_edge_pairs` and `boundary_vertex_pairs`, and the pairs with
    no common vertex that a uniform hash of the triangles' bounding boxes
    finds.  Touching (contact) counts as no intersection.
    """
    x = np.asarray(positions, float).T
    if _edge_pairs_fold(_corners(x, mesh.boundary_edge_pairs)).any():
        return True
    if _vertex_pairs_cross(_corners(x, mesh.boundary_vertex_pairs)).any():
        return True
    faces = mesh.boundary_faces
    T = _corners(x, faces)
    a, b = _candidate_pairs(T, faces)
    return bool(_disjoint_pairs_cross(np.take(T, a, axis=2),
                                      np.take(T, b, axis=2)).any())
