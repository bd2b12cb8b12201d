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

`labeling_energy` gives a labeling's interface energy and mass at any
positions bit for bit as extraction does, from the cut faces' terms
alone, and `swap_energy_changes` gives their changes under K swaps,
each taken on its own, in one batched pass, with a bound on the energy
change's rounding.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .energy import interface_density
from .mesh import (_NEXT, _PREV, _dot, _edge_cofactors, _read_only,
                   corner_crosses, corner_terms, edge_keys, face_terms)
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
    interior faces and the at most twelve edges of the two tets.  The
    `near` and `tets` lists are kept until the next swap or `undo`.
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
        self._lists = {}

    def swap(self, tet_to_0, tet_to_1):
        """Relabel phase-1 `tet_to_0` to 0 and phase-0 `tet_to_1` to 1,
        and update the cut mask and counts at the faces whose cut
        flipped."""
        mesh, labels = self.mesh, self.labels
        labels[tet_to_0], labels[tet_to_1] = 0, 1
        faces = mesh.tet_interior_faces[[tet_to_0, tet_to_1]].ravel()
        faces = faces[faces >= 0]
        tets = mesh.interior_face_tets[faces]
        cut = labels[tets[:, 0]] != labels[tets[:, 1]]
        flip = cut != self.cut[faces]   # a face of both tets stays cut
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
        self.last_swap = (tet_to_0, tet_to_1)
        self._lists = {}

    def undo(self):
        """Reverse the last swap."""
        self.swap(*self.last_swap[::-1])

    def try_swap(self, tet_to_0, tet_to_1):
        """Swap if no interface edge is left with more than two triangles;
        otherwise leave the labeling as it was.  Returns whether it did."""
        self.swap(tet_to_0, tet_to_1)
        if self.nonmanifold_edges:
            self.undo()
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

    def _flips(self, faces):
        """Whether each of the cut `faces` must be flipped to point into
        phase 1: it points out of its first tet, and that tet is phase
        1, or into a phase-0 one."""
        mesh = self.mesh
        return ((self.labels[mesh.interior_face_tets[faces, 0]] == 1)
                == mesh.interior_face_outward[faces])

    def near(self):
        """Tets with a cut face, per phase, sorted and read-only:
        (phase 1, phase 0)."""
        if "near" not in self._lists:
            near, one = self.tet_count > 0, self.labels == 1
            self._lists["near"] = (_read_only(np.flatnonzero(near & one)),
                                   _read_only(np.flatnonzero(near & ~one)))
        return self._lists["near"]

    def tets(self):
        """Tets per phase, sorted and read-only: (phase 1, phase 0)."""
        if "tets" not in self._lists:
            one = self.labels == 1
            self._lists["tets"] = (_read_only(np.flatnonzero(one)),
                                   _read_only(np.flatnonzero(~one)))
        return self._lists["tets"]

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


def extract_interface(mesh, state, phases, positions=None):
    """Interface varifold of a labeled, deformed mesh.

    `positions` overrides the deformed coordinates (pass mesh.vertices for
    the referential interface).  Raises on non-manifold interface edges
    interior to the domain.
    """
    if positions is None:
        positions = state.positions
    tris, flip, edges, counts = InterfaceTopology(mesh, phases).triangles()
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
    from `_vertex_sums`, which `labeling_energy` runs too.
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


def _face_terms(mesh, faces, positions, slots=slice(None)):
    """The `mesh.face_terms` of the interior `faces` at `positions` (None:
    the reference positions, whose terms the mesh stores): areas (n,) and
    terms at their sorted triples' slots `slots` (3, n), in one gather.
    A term has the same bits whichever way its face points."""
    if positions is None:
        area, terms = mesh.interior_face_terms
    else:
        area, terms = face_terms(positions, mesh.interior_faces[faces])
        faces = np.arange(len(faces))
    return area[faces], terms[:, slots, faces]


def labeling_energy(topology, model, positions=None):
    """Interface energy and mass of the `InterfaceTopology`'s labeling at
    `positions` (None: the reference positions): bit for bit
    `interface_energy` and `varifold_mass` of `extract_interface(...,
    positions=...)`, and raising as it would.

    One pass over the cut faces, ascending, takes their `_face_terms` at
    the oriented corners: `_vertex_sums` adds extraction's terms in its
    order.
    """
    topology._check_manifold()
    mesh, nv = topology.mesh, topology.mesh.n_vertices
    faces = np.flatnonzero(topology.cut)
    # the sorted slot at each corner: 1 and 2 trade places on a flip
    slots = _CORNER_SLOTS[topology._flips(faces).view(np.int8)]
    area, (angles, cot, share) = _face_terms(mesh, faces, positions, slots.T)
    if (area <= 0).any():
        raise InterfaceError("degenerate interface triangle")
    tris = mesh.interior_faces[faces[:, None], slots]
    xyz = mesh.vertices if positions is None else positions
    mixed, lap, angle_sum = _vertex_sums(
        tris, np.take(xyz.T, tris.T, axis=1), angles, cot, share, nv)
    edges = mesh.interior_face_edges[faces]
    interior = _off_edges(mesh.interior_edge_keys[
        edges[topology.edge_count[edges] == 1]], nv)
    v = _unique(tris)
    a_norm = _vertex_curvature(mixed[v], lap[v], angle_sum[v],
                               interior[v])[2]
    return (float(np.sum(mixed[v] * interface_density(a_norm, model))),
            float(np.sum(area)))


# Relative rounding allowance of a sum of interface energies, far above
# the (log2 n + 1) unit roundoffs of a pairwise sum of n positive terms.
ROUNDING = 1e-13
_EPS = np.finfo(float).eps
_SIDES = np.array([[-1.0], [1.0]])   # the least, then the largest


def _slot_terms(mesh, faces, positions):
    """The interior `faces`' areas at `positions` (see `_face_terms`),
    and their terms at the vertices of their sorted triples, whichever
    way they point, (7, slot, face): 1, the mixed-area share, the angle,
    the cotangent-Laplacian term (xyz) and the summed absolute components
    of that term's two parts."""
    out = np.empty((7, 3, len(faces)))
    out[0] = 1.0
    area, (angles, cot, out[1]) = _face_terms(mesh, faces, positions)
    out[2] = angles
    xyz = mesh.vertices if positions is None else positions
    p = np.take(xyz.T, mesh.interior_faces[faces].T, axis=1)
    # the edge from slot j to j + 1 is opposite j + 2, the one to j + 2
    # opposite j + 1
    to_next, to_prev = cot[_PREV] * (p - p[:, _NEXT]), cot[_NEXT] * (
        p - p[:, _PREV])
    np.add(to_next, to_prev, out=out[3:6])
    out[6] = (np.abs(to_next) + np.abs(to_prev)).sum(axis=0)
    return area, out


def _energy_range(mixed, lap, angle_sum, interior, error, model):
    """The least and the largest energy share, mixed area times
    Psi(a_norm) as `labeling_energy` takes it, of vertices whose sums
    lie within `error` (3, n) of the given mixed areas, norms of
    cotangent Laplacians and angle sums, (2, n); the mixed areas stay
    positive."""
    m = mixed + _SIDES * error[0]
    norm = np.maximum(np.sqrt(np.einsum("ij,ij->i", lap, lap))
                      + _SIDES * error[1], 0.0)
    # the angle defects 2 pi - angle_sum that make K largest, then least
    defect = (2.0 * np.pi - angle_sum) - _SIDES * error[2]
    h = (norm / (2.0 * m[::-1]))**2   # 4 |H|^2
    k = 2.0 * defect / np.where(defect >= 0, m, m[::-1])
    # 4 |H|^2 - 2 K, widened by the rounding of its evaluation
    ii2 = h - k + _SIDES * (8.0 * _EPS) * (h[1] + np.abs(k).max(axis=0))
    return m * interface_density(interior * np.sqrt(2.0 * np.maximum(
        ii2, 0.0)), model)


def _swap_flips(topology, pairs):
    """The faces that each swap (tet to 0, tet to 1) of `pairs` (K, 2)
    flips, each swap taken on its own, and whether `try_swap` would keep
    it.

    Returns the swap, face and sign of each flip (+1 for a face it cuts,
    -1 for one it uncuts); each swap's eight tet corners (K, 8) and each
    flipped face's vertices as the first of its swap's corners they equal
    (M, 3); the bins swap * 64 + 8 * i + j of the corner pairs i < j
    whose edge changes its cut-face count, with the counts before and
    after; and whether each swap is admissible (K,).
    """
    mesh, n = topology.mesh, len(pairs)
    # a face of both tets stays cut
    faces = mesh.tet_interior_faces[pairs].reshape(n, 8)
    tets = mesh.interior_face_tets[faces]
    labels = topology.labels[tets]
    labels[tets == pairs[:, :1, None]] = 0
    labels[tets == pairs[:, 1:, None]] = 1
    sign = (labels[..., 0] != labels[..., 1]).astype(int) \
        - topology.cut[faces]
    sign[faces < 0] = 0
    swap, flip = np.nonzero(sign)
    faces, sign = faces[swap, flip], sign[swap, flip]
    corners = mesh.tets[pairs].reshape(n, 8)
    at = (mesh.interior_faces[faces][:, :, None]
          == corners[swap][:, None, :]).argmax(axis=2)
    # a face's edges lo-mid, mid-hi and lo-hi
    ends = at[:, [0, 1, 0]], at[:, [1, 2, 2]]
    bins = ((swap * 64)[:, None] + 8 * np.minimum(*ends)
            + np.maximum(*ends))
    moved = np.bincount(bins.ravel(), np.repeat(sign, 3), minlength=64 * n)
    edge = np.empty(64 * n, int)
    edge[bins] = mesh.interior_face_edges[faces]
    bins = np.flatnonzero(moved)
    before = topology.edge_count[edge[bins]]
    after = before + moved[bins].astype(int)
    admissible = topology.nonmanifold_edges + np.bincount(
        bins // 64, (after > 2).astype(int) - (before > 2),
        minlength=n) == 0
    return swap, faces, sign, corners, at, bins, before, after, admissible


def _cut_sums(topology, positions):
    """Each vertex's sums of its cut faces' `_slot_terms` at `positions`
    (nv, 7) and its count of single-face edges (nv,)."""
    mesh, nv = topology.mesh, topology.mesh.n_vertices
    cut = np.flatnonzero(topology.cut)
    q = np.arange(7)[:, None, None]
    sums = np.bincount((mesh.interior_faces[cut].T * 7 + q).ravel(),
                       _slot_terms(mesh, cut, positions)[1].ravel(),
                       minlength=7 * nv)
    singles = np.bincount(np.concatenate(divmod(mesh.interior_edge_keys[
        topology.edge_count == 1], nv)), minlength=nv)
    return sums.reshape(nv, 7), singles


def swap_energy_changes(topology, tet_to_0, tet_to_1, model,
                        positions=None):
    """The change of the interface energy at `positions` (None: the
    reference positions) that each swap of phase-1 `tet_to_0[k]` to 0 and
    phase-0 `tet_to_1[k]` to 1 makes to the `InterfaceTopology`'s
    labeling, each swap taken on its own and none applied: one call
    scores K swaps.  The labeling's own `labeling_energy` at `positions`
    must not raise.

    Returns (admissible, degenerate, energy, bound), each (K,): whether
    `try_swap` would keep the swap; whether `labeling_energy` might
    raise on the swapped labeling (a cut face of area <= 0, or a vertex
    whose mixed area may not be positive); and, for an admissible swap
    that is not degenerate, the energy change and a bound on its distance
    from the difference of `labeling_energy` after and before the
    swap, short of ROUNDING times the two energies (nan elsewhere).

    A swap flips at most eight faces, all of them faces of its two tets,
    so only the two tets' eight corners change their vertex sums, or, for
    a face of both tets, which turns over, the order of their terms.  A
    base pass, one bincount over the cut faces' terms, gives every
    vertex's mixed area, cotangent Laplacian, angle sum and cut-face
    count; one over the flipped faces' terms, signed, gives their
    changes, in bins offset by swap; the corners' energies are taken
    before and after the swap.  Each corner sum lies within
    (2 n + 1) eps times its n faces' summed term magnitudes of the one
    extraction takes, whatever the order of the sums; interval
    arithmetic carries that through the curvature to bounds on the
    corner's energy, whose midpoint is taken and whose half width is
    added to the bound.
    """
    mesh = topology.mesh
    swap, faces, sign, corners, at, bins, before, after, admissible = \
        _swap_flips(topology, np.column_stack([tet_to_0, tet_to_1]))
    n = len(corners)
    # vertex sums per corner (1, mixed, angle, lap xyz, lap size): before
    # the swap, and the flipped faces' changes and magnitudes; single-face
    # edges per corner before and after
    sums, singles = (b[corners.ravel()]
                     for b in _cut_sums(topology, positions))
    area, terms = _slot_terms(mesh, faces, positions)
    at = ((swap[:, None] * 8 + at).T * 7 + np.arange(7)[:, None, None]
          ).ravel()
    size = np.bincount(at, terms.ravel(), minlength=56 * n).reshape(-1, 7)
    change = np.bincount(at, (terms * sign).ravel(),
                         minlength=56 * n).reshape(-1, 7)
    single = (after == 1).astype(int) - (before == 1)
    single = np.bincount(np.concatenate([bins // 64 * 8 + bins % 64 // 8,
                                         bins // 64 * 8 + bins % 8]),
                         np.concatenate([single, single]), minlength=8 * n)

    # every corner, once: a face of both tets is cut before and after, but
    # turns over, which reorders its vertices' sums in extraction
    touched = np.flatnonzero((corners[:, :, None] == corners[:, None, :])
                             .argmax(axis=2) == np.arange(8))
    sums, change, singles = sums[touched], change[touched], singles[touched]
    size = size[touched] + sums
    error = (2.0 * size[:, 0] + 1.0) * _EPS * np.array([
        size[:, 1], 2.0 * size[:, 6], size[:, 2] + 2.0 * np.pi])
    error = np.concatenate([error, error], axis=1)
    sums = np.concatenate([sums, sums + change])
    interior = np.concatenate([singles, singles + single[touched]]) == 0
    on = sums[:, 0] > 0
    ok = on & (sums[:, 1] > error[0])
    energies = ok * _energy_range(np.where(ok, sums[:, 1], 1.0), sums[:, 3:6],
                                  sums[:, 2], interior, error, model)
    owner = np.concatenate([touched, touched]) // 8
    side = np.repeat([-0.5, 0.5], len(touched))   # before, after
    energy = np.bincount(owner, side * (energies[0] + energies[1]),
                         minlength=n)
    bound = 0.5 * np.bincount(owner, energies[1] - energies[0], minlength=n)
    degenerate = (np.bincount(owner, on & ~ok, minlength=n)
                  + np.bincount(swap, (sign > 0) & (area <= 0),
                                minlength=n)) > 0
    valid = admissible & ~degenerate
    return (admissible, degenerate, np.where(valid, energy, np.nan),
            np.where(valid, bound, np.nan))


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
