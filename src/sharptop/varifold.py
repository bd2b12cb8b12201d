"""Oriented interface varifolds extracted from labeled tet meshes.

The interface between the two phases is the set of deformed interior faces
whose incident tets carry different labels, oriented from phase 0 into
phase 1.  Discrete curvature per vertex combines the cotangent
mean-curvature vector with angle-defect Gaussian curvature; the
full-curvature magnitude is recovered through a_norm^2 = 2 * |II|^2 with
|II|^2 estimated as 4|H|^2 - 2K.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .energy import INFEASIBLE, bulk_energy, interface_density
from .mesh import edge_keys
from .quadrature import map_to_simplex, tet_rule, triangle_rule


class InterfaceError(Exception):
    pass


@dataclass(frozen=True)
class PhaseLabeling:
    labels: np.ndarray  # (nt,) values in {0, 1}

    def __post_init__(self):
        labels = np.asarray(self.labels, np.int8)
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be binary")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def phase1_volume(self, mesh):
        return float(np.sum(mesh.volumes[self.labels == 1]))

    def with_swap(self, tet_to_0, tet_to_1):
        labels = np.array(self.labels)
        labels[tet_to_0] = 0
        labels[tet_to_1] = 1
        return PhaseLabeling(labels)


@dataclass(frozen=True)
class InterfaceVarifold:
    """Oriented triangle mesh with multiplicities (theta+, theta-) = (1, 0)."""

    vertices: np.ndarray              # (nv, 3) deformed positions
    faces: np.ndarray                 # (nf, 3) into vertices, oriented
    areas: np.ndarray                 # (nf,)
    normals: np.ndarray               # (nf, 3), phase-0 side -> phase-1 side
    # sorted keys lo * nv + hi of the edges on the domain boundary
    domain_boundary_edges: np.ndarray = field(
        default_factory=lambda: np.zeros(0, int))
    # curvature samples (filled by discrete_curvature_inplace)
    mean_curvature: np.ndarray = None   # (nv, 3) vector H
    gauss_curvature: np.ndarray = None  # (nv,)
    a_norm: np.ndarray = None           # (nv,)
    mixed_area: np.ndarray = None       # (nv,)
    interior_vertex: np.ndarray = None  # (nv,) bool
    clip_count: int = 0

    @property
    def n_triangles(self):
        return len(self.faces)


def _edge_counts(faces, n_vertices):
    """Sorted edge keys lo * n_vertices + hi and their triangle counts."""
    return np.unique(edge_keys(faces, n_vertices), return_counts=True)


def _cut_faces(mesh, phases):
    """Interior faces between the phases, and their tets as (phase 0, 1)."""
    labels = phases.labels[mesh.interior_face_tets]
    cut = labels[:, 0] != labels[:, 1]
    pairs = mesh.interior_face_tets[cut]
    swap = labels[cut, 0] == 1
    pairs[swap] = pairs[swap, ::-1]
    return mesh.interior_faces[cut], pairs


def _interface_faces(mesh, phases):
    """Interface triangles of a labeling, checked for manifold edges.

    Returns the triangles (mesh vertex ids), their tet pairs (phase 0,
    phase 1), and the sorted edge keys lo * nv + hi with their triangle
    counts.  Raises when an edge bounds more than two triangles; at the
    reference positions this is the only way a labeling can fail
    extraction, since faces of non-degenerate tets have positive area.
    """
    tris, pairs = _cut_faces(mesh, phases)
    n = mesh.n_vertices
    keys, counts = _edge_counts(tris, n)
    bad = keys[counts > 2]
    if bad.size:
        raise InterfaceError(
            "non-manifold interface edges: "
            f"{np.stack([bad // n, bad % n], axis=1)[:5].tolist()}"
            f" ({bad.size} total)")
    return tris, pairs, keys, counts


def _areas_normals(vertices, faces):
    """Triangle areas and unit normals (right-hand rule)."""
    v = vertices[faces]
    cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    if np.any(areas <= 0):
        raise InterfaceError("degenerate interface triangle")
    return areas, cross / (2.0 * areas[:, None])


def varifold_from_triangles(vertices, faces):
    """Varifold from an oriented triangle soup (analytic test surfaces).

    Face winding defines the normal (right-hand rule, pointing into the
    phase-1 side).
    """
    vertices = np.asarray(vertices, float)
    faces = np.asarray(faces, int)
    areas, normals = _areas_normals(vertices, faces)
    return discrete_curvature_inplace(InterfaceVarifold(
        vertices=vertices, faces=faces, areas=areas, normals=normals))


def extract_interface(mesh, state, phases, positions=None):
    """Interface varifold of a labeled, deformed mesh.

    `positions` overrides the deformed coordinates (pass mesh.vertices for
    the referential interface).  Raises on non-manifold interface edges
    interior to the domain.
    """
    if positions is None:
        positions = state.positions
    positions = np.asarray(positions, float)
    tris, pairs, keys, counts = _interface_faces(mesh, phases)
    used = np.unique(tris)
    remap = np.full(mesh.n_vertices, -1, int)
    remap[used] = np.arange(len(used))
    faces = remap[tris]
    vertices = positions[used]

    areas, normals = _areas_normals(vertices, faces)
    centroids = positions[mesh.tets[pairs]].mean(axis=2)
    toward1 = centroids[:, 1] - centroids[:, 0]
    flip = np.sum(normals * toward1, axis=1) < 0
    faces[flip, 1], faces[flip, 2] = faces[flip, 2].copy(), faces[flip, 1].copy()
    normals[flip] *= -1.0

    # the remap is monotone, so the renumbered edge keys stay sorted
    nv = mesh.n_vertices
    local = remap[keys // nv] * len(used) + remap[keys % nv]
    V = InterfaceVarifold(
        vertices=vertices, faces=faces, areas=areas, normals=normals,
        domain_boundary_edges=local[np.isin(keys, mesh.boundary_edge_keys)])
    return discrete_curvature_inplace(V, edge_counts=(local, counts))


def varifold_mass(V):
    """Total interface area (multiplicity one)."""
    return float(np.sum(V.areas))


def discrete_curvature_inplace(V, edge_counts=None):
    """Attach per-vertex (H, K, a_norm, mixed area) samples to a varifold.

    Mixed areas are Meyer's Voronoi-safe vertex areas, which partition
    the area.  Interface-boundary vertices (incident to a single-triangle
    edge) carry a_norm = 0 and are excluded from curvature quadrature;
    their area weight still counts toward the mass.  `edge_counts` is
    `_edge_counts(V.faces, nv)`, when the caller already has it.

    Each per-vertex sum is one np.bincount over all faces per corner in
    turn: corners 0, 1, 2, or for the cotangent Laplacian the ends c+1,
    c+2 of the edge opposite corner c, for c = 0, 1, 2.
    """
    nv = len(V.vertices)
    p = V.vertices[V.faces.T]               # (corner, face, xyz)
    nxt, prv = [1, 2, 0], [2, 0, 1]
    e1, e2 = p[nxt] - p, p[prv] - p         # edges leaving each corner
    angles = np.arctan2(np.linalg.norm(np.cross(e1, e2), axis=-1),
                        np.sum(e1 * e2, axis=-1))
    cot = 1.0 / np.tan(angles)
    corners = V.faces.T.ravel()

    obtuse = angles > 0.5 * np.pi
    voronoi = (np.sum(e2**2, axis=-1) * cot[nxt]
               + np.sum(e1**2, axis=-1) * cot[prv]) / 8.0
    share = np.where(obtuse.any(axis=0),
                     np.where(obtuse, V.areas / 2.0, V.areas / 4.0), voronoi)
    mixed = np.bincount(corners, share.ravel(), minlength=nv)
    if np.any(mixed <= 0):
        raise InterfaceError("zero mixed area (degenerate triangle fan)")

    ends = np.stack([V.faces.T[nxt], V.faces.T[prv]], axis=1)
    terms = cot[:, None, :, None] * np.stack([p[nxt] - p[prv],
                                              p[prv] - p[nxt]], axis=1)
    lap = np.bincount((3 * ends[..., None] + np.arange(3)).ravel(),
                      terms.ravel(), minlength=3 * nv).reshape(nv, 3)
    H = lap / (4.0 * mixed[:, None])
    K = (2.0 * np.pi - np.bincount(corners, angles.ravel(), minlength=nv)
         ) / mixed

    if edge_counts is None:
        edge_counts = _edge_counts(V.faces, nv)
    keys, counts = edge_counts
    open_edges = keys[counts == 1]
    interior = np.ones(nv, bool)
    interior[open_edges // nv] = False
    interior[open_edges % nv] = False

    h2 = np.sum(H * H, axis=1)
    ii2 = 4.0 * h2 - 2.0 * K
    clip_count = int(np.count_nonzero(interior & (ii2 < 0)))
    a_norm = np.sqrt(2.0 * np.maximum(ii2, 0.0))
    a_norm[~interior] = 0.0
    H[~interior] = 0.0
    K[~interior] = 0.0
    return replace(V, mean_curvature=H, gauss_curvature=K, a_norm=a_norm,
                   mixed_area=mixed, interior_vertex=interior,
                   clip_count=clip_count)


def curvature_integral(V):
    """Integral of a_norm^2 against the mass measure."""
    return float(np.sum(V.mixed_area * V.a_norm**2.0))


def interface_energy(V, model):
    """Integral of Psi(a_norm) against the mass measure.

    Equals c_int * (mass + integral of a_norm^p) for the model density.
    """
    return float(np.sum(V.mixed_area * interface_density(V.a_norm, model)))


def total_energy(mesh, state, phases, model):
    """E = bulk + interface energy of the extracted interface varifold."""
    bulk = bulk_energy(mesh, state, phases, model)
    if bulk == INFEASIBLE:
        return INFEASIBLE
    return bulk + interface_energy(extract_interface(mesh, state, phases),
                                   model)


def boundary_defect(V):
    """Count of single-incidence interface edges off the domain boundary.

    Zero is required for admissibility (the interface current has no
    boundary inside the deformed domain).
    """
    keys, counts = _edge_counts(V.faces, len(V.vertices))
    return int(np.count_nonzero(~np.isin(keys[counts == 1],
                                         V.domain_boundary_edges)))


@dataclass(frozen=True)
class TestField:
    """Compactly supported C^1 vector field with analytic divergence."""

    center: np.ndarray
    radius: float
    matrix: np.ndarray   # Y(x) = bump(x) * (matrix (x - center) + offset)
    offset: np.ndarray
    POWER = 4            # bump(x) = (1 - |x - center|^2 / radius^2)_+^POWER

    def _bump(self, x):
        u = np.sum((x - self.center) ** 2, axis=-1) / self.radius**2
        w = np.maximum(1.0 - u, 0.0)
        return w**self.POWER, u, w

    def __call__(self, x):
        x = np.asarray(x, float)
        w, _, _ = self._bump(x)
        lin = (x - self.center) @ self.matrix.T + self.offset
        return w[..., None] * lin

    def divergence(self, x):
        x = np.asarray(x, float)
        w, _, core = self._bump(x)
        d = x - self.center
        lin = d @ self.matrix.T + self.offset
        grad_w = (-2.0 * self.POWER / self.radius**2
                  * core ** (self.POWER - 1))[..., None] * d
        return np.sum(grad_w * lin, axis=-1) + w * np.trace(self.matrix)

    def sup_norm(self):
        # |Y| <= max over support of bump * |lin|; bound by |offset| + |A| R
        return float(np.linalg.norm(self.offset)
                     + np.linalg.norm(self.matrix, 2) * self.radius)


def random_bump_fields(n, center, radius, seed=0):
    """Random polynomial-bump test fields supported in a ball."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(n):
        fields.append(TestField(center=np.asarray(center, float),
                                radius=float(radius),
                                matrix=rng.uniform(-1, 1, (3, 3)),
                                offset=rng.uniform(-1, 1, 3)))
    return fields


def coupling_residual(mesh, state, phases, V, test_fields, quad_order=2,
                      positions=None):
    """Max defect of <D phi, Y> = <V, QY> over the given test fields.

    The distributional side is evaluated as -integral of div Y over the
    phase-1 region (quadrature over deformed tets); the varifold side as
    the surface quadrature of Y . nu over the interface triangles.  Test
    fields must vanish near the deformed domain boundary.
    """
    if positions is None:
        positions = state.positions
    positions = np.asarray(positions, float)
    bpts = positions[mesh.boundary_faces].mean(axis=1)
    for Y in test_fields:
        if bpts.size and np.max(np.abs(Y(bpts))) > 1e-12:
            raise InterfaceError("test field support touches the boundary")
    tq, tw = tet_rule(quad_order)
    sq, sw = triangle_rule(quad_order)
    sel = np.asarray(phases.labels) == 1
    tets = mesh.tets[sel]
    corners = positions[tets]                    # (nt1, 4, 3)
    vols = np.abs(np.linalg.det(
        np.transpose(corners[:, 1:] - corners[:, :1], (0, 2, 1)))) / 6.0
    tet_pts = map_to_simplex(corners, tq)        # (nt1, nq, 3)
    tri_pts = map_to_simplex(V.vertices[V.faces], sq)

    worst = 0.0
    for Y in test_fields:
        div = Y.divergence(tet_pts)              # (nt1, nq)
        lhs = -float(np.sum(vols * (div @ tw)))
        vals = Y(tri_pts)                        # (nf, nq, 3)
        flux = np.sum(vals * V.normals[:, None, :], axis=-1) @ sw
        rhs = float(np.sum(V.areas * flux))
        worst = max(worst, abs(lhs - rhs))
    return worst
