"""Deformation states, per-tet gradients/minors, distortion, injectivity.

The deformation is piecewise affine over the tets: F = Dx (DX)^-1 with
edge matrices of the deformed and reference tet; the mesh stores
(DX)^-1 as `ref_inv`.  Almost-everywhere injectivity is monitored
through the Ciarlet-Necas gap between the Jacobian integral and a Monte
Carlo estimate of the image volume.
"""

from dataclasses import dataclass, replace

import numpy as np


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
    return np.moveaxis(A, (-2, -1), (0, 1))


def deformation_gradients(mesh, positions):
    """All per-tet deformation gradients, shape (nt, 3, 3).

    F = Dx G with the edges d_k = x_k - x_0 as the columns of Dx and
    G = ref_inv, summed elementwise over component-first rows:
    F[i, j] = (d1[i] G[0, j] + d2[i] G[1, j]) + d3[i] G[2, j].  F is an
    (nt, 3, 3) view of (3, 3, nt) storage, like `ref_inv`.
    """
    # np.take on (axis, vertex) rows gathers 4x faster than fancy indexing
    x = np.take(np.asarray(positions, float).T, mesh.tets.T, axis=1)
    d = x[:, 1:] - x[:, :1]                 # (axis, edge, tet)
    G = component_first(mesh.ref_inv)
    F = np.multiply(d[:, 0, None], G[0])
    term = np.multiply(d[:, 1, None], G[1])
    F += term
    F += np.multiply(d[:, 2, None], G[2], out=term)
    return np.moveaxis(F, -1, 0)


def deformation_minors(mesh, positions):
    """minors() of every tet's deformation gradient: (F, Cof F, det F)."""
    return minors(deformation_gradients(mesh, positions))


def _cross(u, v, out):
    """out = u x v, for 3-vectors indexed component first."""
    out[0] = u[1] * v[2] - u[2] * v[1]
    out[1] = u[2] * v[0] - u[0] * v[2]
    out[2] = u[0] * v[1] - u[1] * v[0]


def minors(F):
    """(F, Cof F, det F); batched over leading axes.

    The rows of Cof F are r1 x r2, r2 x r0 and r0 x r1 for the rows r_i of
    F, and det F = r0 . (r1 x r2).  They are written in place through
    component-first views: np.cross took twice as long on 1296 tets.
    """
    F = np.asarray(F, float)
    cof = np.empty_like(F)  # in F's memory layout
    (r0, r1, r2), rows = component_first(F), component_first(cof)
    _cross(r1, r2, rows[0])
    _cross(r2, r0, rows[1])
    _cross(r0, r1, rows[2])
    # a C-ordered product, so the three-term sum runs over whole rows
    return F, cof, np.multiply(r0, rows[0], order="C").sum(axis=0)


def frobenius_norm(F):
    """|F| over the last two axes, batched over the leading ones.

    The nine squares q_k = F[k // 3, k % 3]^2 are summed in NumPy's
    pairwise order for a contiguous 3x3,
    (((q0 + q1) + (q2 + q3)) + ((q4 + q5) + (q6 + q7))) + q8, whatever
    the layout of F: np.sum over a strided view adds in another order.
    """
    F = np.asarray(F, float)
    q = (component_first(F) ** 2).reshape(9, *F.shape[:-2])
    return np.sqrt((((q[0] + q[1]) + (q[2] + q[3]))
                    + ((q[4] + q[5]) + (q[6] + q[7]))) + q[8])


def distortion(F):
    """|F|^3 / det F (Frobenius norm); >= 3*sqrt(3), batched."""
    F, _, det = minors(F)
    if np.any(det <= 0):
        raise KinematicsError("distortion requires det F > 0")
    return frobenius_norm(F)**3 / det


QUERY_CHUNK = 128  # points per point-in-tet batch; bounds the pair arrays
INSIDE_TOL = 1e-12  # slack of the barycentric point-in-tet test


class _TetGrid:
    """Uniform spatial hash over deformed tets for point-in-tet queries.

    The grid has round(nt^(1/3)) cells per axis over the deformed bounding
    box.  Each tet is listed in every cell its box overlaps: `cell_tets`
    holds the candidate tets grouped by flat cell id, ascending tet id
    within a cell, and cell c's group is cell_tets[cell_start[c]:
    cell_start[c + 1]].
    """

    def __init__(self, positions, tets):
        self.corners = np.asarray(positions, float)[tets]  # (nt, 4, 3)
        self.lo = self.corners.min(axis=(0, 1))
        self.hi = self.corners.max(axis=(0, 1))
        n = len(tets)
        self.res = max(1, int(round(n ** (1.0 / 3.0))))
        span = np.maximum(self.hi - self.lo, 1e-300)
        self.inv_h = self.res / span
        # inverse affine maps x -> barycentric-ish local coords
        e = np.transpose(self.corners[:, 1:] - self.corners[:, :1], (0, 2, 1))
        self.inv_e = np.linalg.inv(e)
        self.base = self.corners[:, 0]
        tlo = self._cell(self.corners.min(axis=1))
        extent = self._cell(self.corners.max(axis=1)) - tlo + 1
        # one key cell * n + tet per (tet, overlapped cell), generated per
        # cell offset of the tet boxes (at most 27 on a box mesh)
        keys = []
        for offset in np.ndindex(*extent.max(axis=0)):
            tet = np.flatnonzero((extent > offset).all(axis=1))
            cell = self._flat(tlo[tet] + offset)
            keys.append(cell * n + tet)
        keys = np.sort(np.concatenate(keys))
        self.cell_tets = (keys % n).astype(np.int32)
        self.cell_start = np.searchsorted(
            keys // n, np.arange(self.res**3 + 1))

    def _cell(self, points):
        """Integer cell coordinates of points, clipped to the grid."""
        return np.clip(((points - self.lo) * self.inv_h).astype(int),
                       0, self.res - 1)

    def _flat(self, cell_ids):
        return ((cell_ids[:, 0] * self.res + cell_ids[:, 1]) * self.res
                + cell_ids[:, 2])

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


def jacobian_integral(mesh, positions, F_minors=None):
    """Integral of det grad y over the reference domain (exact).

    `F_minors` is `deformation_minors` of `positions`, when the caller
    already has it.
    """
    if F_minors is None:
        F_minors = deformation_minors(mesh, positions)
    det = F_minors[2]
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


def ciarlet_necas_residual(mesh, state, samples=100_000, seed=0,
                           F_minors=None):
    """Monte Carlo gap between the Jacobian integral and the image volume.

    Residual near zero indicates a.e. injectivity; a residual well above
    the Monte Carlo noise indicates sheet overlap.  `F_minors` is as for
    `jacobian_integral`.
    """
    if samples <= 0:
        raise ValueError("need at least one sample")
    jac = jacobian_integral(mesh, state.positions, F_minors)
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
