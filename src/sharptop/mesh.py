"""Tetrahedral reference meshes with tagged boundary faces.

Meshes are immutable after construction.  The on-disk format is a
line-oriented ASCII format::

    tetmesh v1
    # comment
    v x y z
    t i0 i1 i2 i3
    bf i0 i1 i2 TAG

with 0-based indices and TAG one of DIRICHLET / NEUMANN / FREE.
"""

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .export import atomic_write_text

DIRICHLET = "DIRICHLET"
NEUMANN = "NEUMANN"
FREE = "FREE"
TAGS = (DIRICHLET, NEUMANN, FREE)

# Local faces of a tet (i0,i1,i2,i3), outward-oriented for a positive tet.
_TET_FACES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


class MeshError(Exception):
    pass


def tet_volumes(vertices, tets):
    """Signed volumes of tets, shape (ntets,)."""
    v = vertices[tets]
    e = v[:, 1:] - v[:, :1]
    return np.linalg.det(e) / 6.0


@dataclass(frozen=True)
class ReferenceMesh:
    """Tet mesh plus every array that depends only on the reference.

    The derived fields are built once, at construction, and are read-only.
    Face triples are sorted vertex ids; edge keys are lo * nv + hi.
    """
    vertices: np.ndarray          # (nv, 3) float
    tets: np.ndarray              # (nt, 4) int, positively oriented
    boundary_faces: np.ndarray    # (nb, 3) int
    boundary_tags: np.ndarray     # (nb,) object/str
    volumes: np.ndarray = field(init=False)          # (nt,)
    ref_inv: np.ndarray = field(init=False, repr=False)  # (nt, 3, 3) (DX)^-1
    # faces of exactly two tets, in order of first occurrence (tet-major,
    # local faces as in _TET_FACES), and their tets in occurrence order
    interior_faces: np.ndarray = field(init=False, repr=False)      # (ni, 3)
    interior_face_tets: np.ndarray = field(init=False, repr=False)  # (ni, 2)
    # faces of one tet, and of more than two, in lexicographic order
    topological_boundary_faces: np.ndarray = field(init=False, repr=False)
    nonmanifold_faces: np.ndarray = field(init=False, repr=False)
    boundary_edge_keys: np.ndarray = field(init=False, repr=False)  # sorted
    # rows of boundary_faces tagged NEUMANN, and their reference areas
    neumann_index: np.ndarray = field(init=False, repr=False)
    neumann_areas: np.ndarray = field(init=False, repr=False)
    # flat np.bincount indices of (corner, element, axis) into nodal (nv, 3)
    # arrays, corners in the order the sums have always run: tet corners
    # 1, 2, 3, 0 for the bulk gradient; tet corners 0-3 and then Neumann
    # face corners 0-2 for the load gradient
    scatter_index: np.ndarray = field(init=False, repr=False)
    load_scatter_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)
            value.setflags(write=False)

        put("vertices", np.asarray(self.vertices, float))
        put("tets", np.asarray(self.tets, int))
        put("boundary_faces",
            np.asarray(self.boundary_faces, int).reshape(-1, 3))
        put("boundary_tags",
            np.asarray(self.boundary_tags, object).reshape(-1))
        nv = self.n_vertices
        edges = self.vertices[self.tets]
        edges = edges[:, 1:] - edges[:, :1]
        put("volumes", np.linalg.det(edges) / 6.0)
        degenerate = np.flatnonzero(np.abs(self.volumes) < 1e-300)
        if degenerate.size:
            raise MeshError(f"zero-volume tets {degenerate[:5].tolist()} "
                            f"({degenerate.size} total)")
        put("ref_inv", np.linalg.inv(np.transpose(edges, (0, 2, 1))))
        for name, value in zip(("interior_faces", "interior_face_tets",
                                "topological_boundary_faces",
                                "nonmanifold_faces"),
                               face_topology(self.tets, nv)):
            put(name, value)
        put("boundary_edge_keys",
            np.unique(edge_keys(self.boundary_faces, nv)))
        put("neumann_index", np.flatnonzero(self.boundary_tags == NEUMANN))
        v = self.vertices[self.boundary_faces[self.neumann_index]]
        put("neumann_areas", 0.5 * np.linalg.norm(
            np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1))
        put("scatter_index", _corner_index(self.tets[:, [1, 2, 3, 0]]))
        put("load_scatter_index", np.concatenate([
            _corner_index(self.tets),
            _corner_index(self.boundary_faces[self.neumann_index])]))

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    def total_volume(self):
        return float(np.sum(self.volumes))

    def tet_centroids(self):
        return self.vertices[self.tets].mean(axis=1)

    def dirichlet_vertex_mask(self):
        mask = np.zeros(self.n_vertices, bool)
        sel = self.boundary_tags == DIRICHLET
        mask[self.boundary_faces[sel].ravel()] = True
        return mask


def face_topology(tets, n_vertices):
    """Faces of a tet mesh grouped by the number of tets sharing them.

    Returns (interior faces (ni, 3), their tets (ni, 2), boundary faces,
    faces of more than two tets), as described on ReferenceMesh.
    """
    if n_vertices >= 2**21:
        raise MeshError("face keys need fewer than 2**21 vertices")
    occ = np.sort(np.asarray(tets, int)[:, _TET_FACES], axis=2).reshape(-1, 3)
    key = (occ[:, 0] * n_vertices + occ[:, 1]) * n_vertices + occ[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[start, len(key)])
    pair = start[count == 2]
    by_first = np.argsort(order[pair])
    first, second = order[pair][by_first], order[pair + 1][by_first]
    return (occ[first], np.stack([first // 4, second // 4], axis=1),
            occ[order[start[count == 1]]], occ[order[start[count > 2]]])


def _corner_index(elements):
    return (3 * elements.T[:, :, None] + np.arange(3)).ravel()


def edge_keys(faces, n_vertices):
    """Keys lo * n_vertices + hi of the three edges of each triangle."""
    f = np.sort(np.asarray(faces, int).reshape(-1, 3), axis=1)
    return np.concatenate([f[:, 0] * n_vertices + f[:, 1],
                           f[:, 1] * n_vertices + f[:, 2],
                           f[:, 0] * n_vertices + f[:, 2]])


@dataclass
class ValidationReport:
    passed: bool
    failures: list          # (check name, offending entity) pairs

    def __bool__(self):
        return self.passed


def validate_mesh(mesh):
    """Check all mesh invariants; never raises, returns a report."""
    failures = []
    nv = mesh.n_vertices
    if mesh.tets.size and (mesh.tets.min() < 0 or mesh.tets.max() >= nv):
        bad = np.where((mesh.tets < 0) | (mesh.tets >= nv))[0]
        failures.append(("index out of range", sorted(set(bad.tolist()))))
    if mesh.boundary_faces.size and (mesh.boundary_faces.min() < 0
                                     or mesh.boundary_faces.max() >= nv):
        failures.append(("boundary face index out of range", None))
    if not failures:
        neg = np.where(mesh.volumes <= 0)[0]
        if neg.size:
            failures.append(("negative volume", neg.tolist()))
        keys = np.sort(mesh.tets, axis=1)
        order = np.lexsort(keys.T[::-1])
        same = np.all(keys[order[1:]] == keys[order[:-1]], axis=1)
        for pair in sorted(zip(order[:-1][same].tolist(),
                               order[1:][same].tolist()), key=lambda p: p[1]):
            failures.append(("duplicate tet", pair))
        for f in mesh.nonmanifold_faces.tolist():
            failures.append(("face shared by more than two tets", tuple(f)))
        comb = set(map(tuple, mesh.topological_boundary_faces.tolist()))
        tagged = set(map(tuple, np.sort(mesh.boundary_faces, axis=1).tolist()))
        for f in sorted(tagged - comb):
            failures.append(("tag on non-boundary face", f))
        for f in sorted(comb - tagged):
            failures.append(("untagged boundary face", f))
        for tag in set(mesh.boundary_tags.tolist()) - set(TAGS):
            failures.append(("unknown tag", tag))
    return ValidationReport(passed=not failures, failures=failures)


def orient_tets(vertices, tets):
    """Swap two vertices of every negatively oriented tet.

    Zero-volume tets are left for ReferenceMesh to reject.
    """
    tets = np.array(tets, int)
    vols = tet_volumes(np.asarray(vertices, float), tets)
    fixed = np.where(vols < 0)[0]
    tets[fixed, 0], tets[fixed, 1] = tets[fixed, 1].copy(), tets[fixed, 0].copy()
    return tets


# Kuhn split of the unit cube into 6 tets, conforming across cells.  Each
# tet walks 0 -> e_a -> e_a + e_b -> (1,1,1) along a permutation (a, b, c)
# of the axes; cube corner (i, j, k) is number 4i + 2j + k.
_CUBE_CORNERS = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
_KUHN_TETS = np.cumsum([[0] + [(4, 2, 1)[axis] for axis in perm]
                        for perm in permutations(range(3))], axis=1)


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
    tets = orient_tets(vertices, corners[:, _KUHN_TETS].reshape(-1, 4))
    bfaces = face_topology(tets, len(vertices))[2]
    centroids = vertices[bfaces].mean(axis=1)
    if tagging is None:
        tags = np.array([FREE] * len(bfaces), object)
    else:
        tags = np.array([tagging(c) for c in centroids], object)
    return ReferenceMesh(vertices=vertices, tets=tets, boundary_faces=bfaces,
                         boundary_tags=tags)


def plane_tagging(rules):
    """Face tagging from axis-aligned plane rules.

    `rules` is a list of dicts {"tag", "axis", "value", "tol"}; a face gets
    the first tag whose plane contains its centroid coordinate, and FREE
    when there is none.
    """
    def tag(centroid):
        for rule in rules:
            tol = rule.get("tol", 1e-9)
            if abs(centroid[rule["axis"]] - rule["value"]) <= tol:
                return rule["tag"]
        return FREE
    return tag


def save_mesh(mesh, path):
    lines = ["tetmesh v1"]
    for v in mesh.vertices:
        lines.append("v %.17g %.17g %.17g" % (v[0], v[1], v[2]))
    for t in mesh.tets:
        lines.append("t %d %d %d %d" % tuple(t))
    for f, tag in zip(mesh.boundary_faces, mesh.boundary_tags):
        lines.append("bf %d %d %d %s" % (f[0], f[1], f[2], tag))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_mesh(path):
    vertices, tets, bfaces, btags = [], [], [], []
    with open(path) as fh:
        first = fh.readline()
        if first.strip() != "tetmesh v1":
            raise MeshError(f"{path}:1: expected header 'tetmesh v1'")
        for ln, raw in enumerate(fh, start=2):
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
    vertices = np.array(vertices, float).reshape(-1, 3)
    tets = np.array(tets, int).reshape(-1, 4)
    indices = [tets.ravel(), np.array(bfaces, int).ravel()]
    for idx in indices:
        if idx.size and (idx.min() < 0 or idx.max() >= len(vertices)):
            raise MeshError(f"{path}: validation error: index out of range")
    tets = orient_tets(vertices, tets)
    try:
        mesh = ReferenceMesh(vertices=vertices, tets=tets,
                             boundary_faces=np.array(bfaces, int),
                             boundary_tags=np.array(btags, object))
    except MeshError as exc:
        raise MeshError(f"{path}: invalid mesh: {exc}") from exc
    report = validate_mesh(mesh)
    if not report.passed:
        raise MeshError(f"{path}: invalid mesh: {report.failures}")
    return mesh
