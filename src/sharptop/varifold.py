"""Oriented interface varifolds extracted from labeled tet meshes.

The interface between the two phases is the set of deformed interior faces
whose incident tets carry different labels, oriented from phase 0 into
phase 1 by the mesh's face orientation and the labels, which is the
geometric orientation wherever det F > 0, as in every solver state.
One set of corner crosses gives the areas, normals and corner angles.
Discrete curvature per vertex combines the cotangent mean-curvature
vector with angle-defect Gaussian curvature; the full-curvature
magnitude is recovered through a_norm^2 = 2 * |II|^2 with |II|^2
estimated as 4|H|^2 - 2K.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .energy import INFEASIBLE, bulk_energy, interface_density
from .mesh import (_NEXT, _PREV, _dot, _edge_cofactors, _read_only,
                   corner_crosses, corner_terms, edge_keys)
from .quadrature import map_to_simplex, tet_rule, triangle_rule


class InterfaceError(Exception):
    pass


@dataclass(frozen=True)
class PhaseLabeling:
    labels: np.ndarray  # (nt,) values in {0, 1}

    def __post_init__(self):
        labels = np.asarray(self.labels)   # checked before the int8 cast
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be binary")
        # a read-only copy: the caller's array stays writable
        object.__setattr__(self, "labels", _read_only(labels.astype(np.int8)))

    def phase1_volume(self, mesh):
        return float(np.sum(mesh.volumes[self.labels == 1]))

    def with_swap(self, tet_to_0, tet_to_1):
        """The labeling with `tet_to_0` set to 0 and `tet_to_1` to 1, in
        one read-only copy: a swap keeps the labels binary, so the
        constructor's check and copy are skipped."""
        labels = self.labels.copy()
        labels[tet_to_0] = 0
        labels[tet_to_1] = 1
        swapped = object.__new__(PhaseLabeling)
        object.__setattr__(swapped, "labels", _read_only(labels))
        return swapped


@dataclass(frozen=True)
class InterfaceVarifold:
    """Oriented triangle mesh with multiplicities (theta+, theta-) = (1, 0)."""

    vertices: np.ndarray              # (nv, 3) deformed positions
    faces: np.ndarray                 # (nf, 3) into vertices, oriented
    # set by discrete_curvature_inplace, as the curvature samples below are
    areas: np.ndarray = None          # (nf,)
    normals: np.ndarray = None        # (nf, 3), phase-0 side -> phase-1 side
    # sorted keys lo * nv + hi of the edges on the domain boundary
    domain_boundary_edges: np.ndarray = field(
        default_factory=lambda: np.zeros(0, int))
    mean_curvature: np.ndarray = None   # (nv, 3) vector H
    gauss_curvature: np.ndarray = None  # (nv,)
    a_norm: np.ndarray = None           # (nv,)
    mixed_area: np.ndarray = None       # (nv,)
    interior_vertex: np.ndarray = None  # (nv,) bool
    # sorted keys lo * nv + hi of the edges of a single triangle, and of
    # those of them off the domain boundary
    open_edges: np.ndarray = None
    dangling_edges: np.ndarray = None
    clip_count: int = 0

    @property
    def n_triangles(self):
        return len(self.faces)


def _edge_counts(faces, n_vertices):
    """Sorted edge keys lo * n_vertices + hi and their triangle counts."""
    return np.unique(edge_keys(faces, n_vertices), return_counts=True)


# the ends c + 1, c + 2 of the edge opposite each triangle corner c
_ENDS = np.array([_NEXT, _PREV]).T

# the slots of a sorted triple at corners 0, 1, 2 of its triangle, as
# given and flipped
_CORNER_SLOTS = np.array([[0, 1, 2], [0, 2, 1]])


def _unique(ids):
    """Sorted distinct entries of an integer array; np.unique took three
    times as long on interface-sized arrays."""
    ids = np.sort(ids, axis=None)
    first = np.ones(len(ids), bool)
    first[1:] = ids[1:] != ids[:-1]
    return ids[first]


class InterfaceTopology:
    """Which interior faces a labeling cuts, kept up to date across swaps.

    Holds a copy of the labels, the cut mask over `mesh.interior_faces`,
    the number of cut faces on each edge of `mesh.interior_edge_keys`
    (`edge_count`) and on each tet (`tet_count`), and
    `nonmanifold_edges`, the number of edges with more than two.  A swap
    relabels two tets, so `swap` revisits only their at most eight
    interior faces and the at most twelve edges of the two tets;
    `rejected_swaps` counts the swaps `try_swap` undid.

    Once `referential_energy` has run, it also keeps each mesh vertex's
    share of the interface energy at the reference positions; a swap
    marks the entries of its faces' vertices stale, and `undo` puts the
    saved entries back.
    """

    def __init__(self, mesh, phases):
        self.mesh = mesh
        self.labels = np.array(phases.labels)
        tets = mesh.interior_face_tets
        self.cut = self.labels[tets[:, 0]] != self.labels[tets[:, 1]]
        self.edge_count = np.bincount(
            mesh.interior_face_edges[self.cut].ravel(),
            minlength=len(mesh.interior_edge_keys))
        self.tet_count = np.bincount(tets[self.cut].ravel(),
                                     minlength=mesh.n_tets)
        self.nonmanifold_edges = int(np.count_nonzero(self.edge_count > 2))
        self.last_swap = None
        self.rejected_swaps = 0
        # `referential_energy`'s model and, per mesh vertex, its energy
        # share, whether the interface reaches it, and whether a swap left
        # both out of date; `_saved` holds those the last swap marked
        self._model = self._energy = self._on = self._stale = None
        self._saved = None

    def _relabel(self, tet_to_0, tet_to_1):
        """Update the labels, cut mask and counts for the swap; return the
        faces of the two tets that are cut before or after it: those
        whose cut or orientation changed."""
        mesh, labels = self.mesh, self.labels
        labels[tet_to_0], labels[tet_to_1] = 0, 1
        faces = mesh.tet_interior_faces[[tet_to_0, tet_to_1]].ravel()
        faces = faces[faces >= 0]
        tets = mesh.interior_face_tets[faces]
        cut, was = labels[tets[:, 0]] != labels[tets[:, 1]], self.cut[faces]
        changed = faces[cut | was]
        flip = cut != was   # a face of both tets stays cut
        faces, tets, cut = faces[flip], tets[flip], cut[flip]
        self.cut[faces] = cut
        sign = np.where(cut, 1, -1)[:, None]
        np.add.at(self.tet_count, tets, sign)
        edges = mesh.interior_face_edges[faces]
        touched = _unique(edges)
        before = np.count_nonzero(self.edge_count[touched] > 2)
        np.add.at(self.edge_count, edges, sign)
        self.nonmanifold_edges += int(
            np.count_nonzero(self.edge_count[touched] > 2) - before)
        return changed

    def swap(self, tet_to_0, tet_to_1):
        """Relabel phase-1 `tet_to_0` to 0 and phase-0 `tet_to_1` to 1."""
        self._saved = self._mark_stale(self._relabel(tet_to_0, tet_to_1))
        self.last_swap = (tet_to_0, tet_to_1)

    def undo(self):
        """Reverse the last swap, and put back the energy entries it
        made stale."""
        tet_to_0, tet_to_1 = self.last_swap
        changed = self._relabel(tet_to_1, tet_to_0)
        self.last_swap = (tet_to_1, tet_to_0)
        if self._saved is None:   # kept no entries: mark them stale
            self._saved = self._mark_stale(changed)
        else:
            ring, energy, on, stale = self._saved
            self._energy[ring], self._on[ring] = energy, on
            self._stale[ring] = stale
            self._saved = None

    def _mark_stale(self, faces):
        """Mark the energy entries of the vertices of `faces` stale, when
        there are entries, and return them as they were."""
        if self._model is None:
            return None
        ring = _unique(self.mesh.interior_faces[faces])
        saved = (ring, self._energy[ring], self._on[ring], self._stale[ring])
        self._stale[ring] = True
        return saved

    def try_swap(self, tet_to_0, tet_to_1):
        """Swap if no interface edge is left with more than two triangles;
        otherwise leave the labeling as it was.  Returns whether it did."""
        self.swap(tet_to_0, tet_to_1)
        if self.nonmanifold_edges:
            self.undo()
            self.rejected_swaps += 1
            return False
        return True

    def _check_manifold(self):
        """Raise InterfaceError when an edge bounds more than two cut
        faces; at the reference positions this is the only way a
        labeling can fail extraction, since faces of non-degenerate tets
        have positive area."""
        if self.nonmanifold_edges:
            bad, n = self.mesh.interior_edge_keys[self.edge_count > 2], \
                self.mesh.n_vertices
            raise InterfaceError(
                "non-manifold interface edges: "
                f"{np.stack([bad // n, bad % n], axis=1)[:5].tolist()}"
                f" ({bad.size} total)")

    def referential_energy(self, model):
        """Interface energy and mass of the labeling at the reference
        positions: bit for bit `interface_energy` and `varifold_mass` of
        `extract_interface(..., positions=mesh.vertices)`, and raising as
        it would.

        Recomputes the energy shares of the vertices that swaps left
        stale, or on the first call (and for another model object) those
        of every vertex of the interface; a share stays stale until its
        recompute succeeds.
        """
        self._check_manifold()
        mesh = self.mesh
        if model is not self._model:   # every interface vertex is stale
            nv = mesh.n_vertices
            self._model, self._saved = model, None
            self._energy, self._on = np.zeros(nv), np.zeros(nv, bool)
            self._stale = np.zeros(nv, bool)
            self._stale[mesh.interior_faces[self.cut]] = True
        ring = np.flatnonzero(self._stale)
        if ring.size:
            self._energy[ring], self._on[ring] = self._ring_energy(ring)
            self._stale[ring] = False
        return (float(self._energy[self._on].sum()),
                float(mesh.interior_face_terms[0][self.cut].sum()))

    def _ring_energy(self, ring):
        """The energy shares of the sorted vertices `ring`, and whether
        the interface reaches each, from the stored terms of the cut
        faces at them.

        The per-vertex sums over those faces, face ascending, are the
        full extraction's sums restricted to `ring`: each vertex's terms
        run from 0.0 in the same order and, by `mesh.corner_terms`, have
        the same bits.
        """
        mesh, nv = self.mesh, self.mesh.n_vertices
        lo, hi = mesh.vertex_face_start[ring], mesh.vertex_face_start[ring + 1]
        n = hi - lo
        faces = mesh.vertex_faces[np.repeat(lo - n.cumsum() + n, n)
                                  + np.arange(n.sum())]
        faces = _unique(faces[self.cut[faces]])
        area, terms = mesh.interior_face_terms
        if (area[faces] <= 0).any():
            raise InterfaceError("degenerate interface triangle")
        # the sorted slot at each corner: 1 and 2 trade places on a flip
        slots = _CORNER_SLOTS[self._flips(faces).view(np.int8)]
        tris = mesh.interior_faces[faces[:, None], slots]
        angles, cot, share = terms[:, slots.T, faces]
        mixed, lap, angle_sum = _vertex_sums(
            tris, np.take(mesh.vertices.T, tris.T, axis=1), angles, cot,
            share, nv)
        edges = mesh.interior_face_edges[faces]
        interior = _off_edges(mesh.interior_edge_keys[
            edges[self.edge_count[edges] == 1]], nv)
        on = np.bincount(tris.ravel(), minlength=nv)[ring] > 0
        v = ring[on]
        a_norm = _vertex_curvature(mixed[v], lap[v], angle_sum[v],
                                   interior[v])[2]
        energy = np.zeros(len(ring))
        energy[on] = mixed[v] * interface_density(a_norm, self._model)
        return energy, on

    def _flips(self, faces):
        """Whether each of the cut `faces` must be flipped to point into
        phase 1: it points out of its first tet, and that tet is phase
        1, or into a phase-0 one."""
        mesh = self.mesh
        return ((self.labels[mesh.interior_face_tets[faces, 0]] == 1)
                == mesh.interior_face_outward[faces])

    def near(self):
        """Tets with a cut face, per phase, sorted: (phase 1, phase 0)."""
        near = self.tet_count > 0
        one = self.labels == 1
        return np.flatnonzero(near & one), np.flatnonzero(near & ~one)

    def triangles(self):
        """The interface triangles as sorted triples of mesh vertex ids,
        whether each must be flipped to point into phase 1 (`_flips`),
        and the ids of their edges in `mesh.interior_edge_keys` with
        their triangle counts.

        Raises when an edge bounds more than two triangles.
        """
        self._check_manifold()
        mesh = self.mesh
        faces = np.flatnonzero(self.cut)
        edges = _unique(mesh.interior_face_edges[faces])
        return (mesh.interior_faces[faces], self._flips(faces), edges,
                self.edge_count[edges])


def varifold_from_triangles(vertices, faces):
    """Varifold from an oriented triangle soup (analytic test surfaces).

    Face winding defines the normal (right-hand rule, pointing into the
    phase-1 side).
    """
    return discrete_curvature_inplace(InterfaceVarifold(
        vertices=np.asarray(vertices, float), faces=np.asarray(faces, int)))


def extract_interface(mesh, state, phases, positions=None, topology=None):
    """Interface varifold of a labeled, deformed mesh.

    `positions` overrides the deformed coordinates (pass mesh.vertices for
    the referential interface); `topology` is the labeling's
    `InterfaceTopology`, when the caller keeps one.  Raises on
    non-manifold interface edges interior to the domain.
    """
    if positions is None:
        positions = state.positions
    if topology is None:
        topology = InterfaceTopology(mesh, phases)
    tris, flip, edges, counts = topology.triangles()
    tris[flip] = tris[flip][:, [0, 2, 1]]
    used = _unique(tris)
    remap = np.full(mesh.n_vertices, -1, int)
    remap[used] = np.arange(len(used))

    # the remap is monotone, so the renumbered edge keys stay sorted
    nv, keys = mesh.n_vertices, mesh.interior_edge_keys[edges]
    local = remap[keys // nv] * len(used) + remap[keys % nv]
    on_boundary = mesh.interior_edge_on_boundary[edges]
    V = InterfaceVarifold(
        vertices=np.asarray(positions, float)[used], faces=remap[tris],
        domain_boundary_edges=local[on_boundary])
    return discrete_curvature_inplace(
        V, edge_counts=(local, counts, on_boundary))


def varifold_mass(V):
    """Total interface area (multiplicity one)."""
    return float(np.sum(V.areas))


def discrete_curvature_inplace(V, edge_counts=None):
    """Attach triangle areas and unit normals (right-hand rule) and
    per-vertex (H, K, a_norm, mixed area) samples to a varifold.  Corner
    0's cross gives the area and normal, all three the corner angles.

    Mixed areas are Meyer's Voronoi-safe vertex areas, which partition
    the area.  Interface-boundary vertices (incident to a single-triangle
    edge) carry a_norm = 0 and are excluded from curvature quadrature;
    their area weight still counts toward the mass.  `edge_counts` is
    `_edge_counts(V.faces, nv)` and whether each edge is one of
    `V.domain_boundary_edges`, when the caller already has them.

    The per-face terms come from `mesh.corner_terms`, the per-vertex sums
    from `_vertex_sums`; `InterfaceTopology.referential_energy` runs the
    same two on the faces around the vertices a swap changed.
    """
    nv = len(V.vertices)
    p = np.take(V.vertices.T, V.faces.T, axis=1)    # (xyz, corner, face)
    e1, e2, cross, twice_area = corner_crosses(p)
    areas = 0.5 * twice_area[0]
    if np.any(areas <= 0):
        raise InterfaceError("degenerate interface triangle")
    normals = (cross[:, 0] / (2.0 * areas)).T
    angles, cot, share = corner_terms(e1, e2, twice_area, areas)
    mixed, lap, angle_sum = _vertex_sums(V.faces, p, angles, cot, share, nv)

    if edge_counts is None:
        keys, counts = _edge_counts(V.faces, nv)
        edge_counts = keys, counts, np.isin(keys, V.domain_boundary_edges)
    keys, counts, on_boundary = edge_counts
    single = counts == 1
    open_edges = keys[single]
    interior = _off_edges(open_edges, nv)

    H, K, a_norm, ii2 = _vertex_curvature(mixed, lap, angle_sum, interior)
    return replace(V, areas=areas, normals=normals,
                   mean_curvature=H, gauss_curvature=K, a_norm=a_norm,
                   mixed_area=mixed, interior_vertex=interior,
                   open_edges=open_edges,
                   dangling_edges=keys[single & ~on_boundary],
                   clip_count=int(np.count_nonzero(interior & (ii2 < 0))))


def _vertex_sums(faces, p, angles, cot, share, nv):
    """Mixed areas, cotangent Laplacians and angle sums at vertices
    0..nv-1 of the triangles `faces`, from their corner positions p
    (xyz, corner, face) and the `corner_terms` (corner, face).

    Each sum is one np.bincount over all faces per corner in turn:
    corners 0, 1, 2, or for the cotangent Laplacian the ends c+1, c+2 of
    the edge opposite corner c, for c = 0, 1, 2.
    """
    corners = faces.T.ravel()
    mixed = np.bincount(corners, share.ravel(), minlength=nv)
    # terms (xyz, corner, end, face): corner by corner within each sum
    ends = faces.T[_ENDS]
    terms = cot[:, None] * (p[:, _ENDS] - p[:, _ENDS[:, ::-1]])
    lap = np.bincount((3 * ends + np.arange(3)[:, None, None, None]).ravel(),
                      terms.ravel(), minlength=3 * nv).reshape(nv, 3)
    return mixed, lap, np.bincount(corners, angles.ravel(), minlength=nv)


def _off_edges(keys, nv):
    """Whether each of vertices 0..nv-1 is an end of none of the edges
    with keys lo * nv + hi."""
    off = np.ones(nv, bool)
    off[keys // nv] = False
    off[keys % nv] = False
    return off


def _vertex_curvature(mixed, lap, angle_sum, interior):
    """H, K and a_norm per vertex, and 4|H|^2 - 2K, from the vertices'
    mixed areas, cotangent Laplacians and angle sums; H, K and a_norm
    are zero off the `interior` vertices."""
    if (mixed <= 0).any():
        raise InterfaceError("zero mixed area (degenerate triangle fan)")
    H = lap / (4.0 * mixed[:, None])
    K = (2.0 * np.pi - angle_sum) / mixed
    ii2 = 4.0 * _dot(H.T, H.T) - 2.0 * K
    a_norm = np.sqrt(2.0 * np.maximum(ii2, 0.0))
    a_norm[~interior] = 0.0
    H[~interior] = 0.0
    K[~interior] = 0.0
    return H, K, a_norm, ii2


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

    Zero on a ReferenceMesh, whose tags cover the faces of one tet (the
    interface current has no boundary inside the domain).  Reads the
    dangling edges that discrete_curvature_inplace found.
    """
    return len(V.dangling_edges)


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
    vols = np.abs(_edge_cofactors(positions, tets)[1]) / 6.0
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
