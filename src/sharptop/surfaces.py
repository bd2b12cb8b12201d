"""Analytic test surfaces and labelings: icospheres, cylinders, slabs."""

import numpy as np

from .mesh import ReferenceMesh, face_topology
from .varifold import PhaseLabeling, varifold_from_triangles


def icosphere(level, radius=1.0):
    """Subdivided icosahedron projected to the sphere, outward winding.

    Level 0 is the icosahedron (20 faces); each level quadruples the count.
    Returns (vertices, faces).
    """
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], int)
    for _ in range(int(level)):
        # the edges ab, bc, ca of each face in turn; a midpoint's number
        # is the rank of its edge's first appearance in that sequence
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, inverse = np.unique(edges[:, 0] * len(verts) + edges[:, 1],
                                      return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        ab, bc, ca = (len(verts) + rank[inverse]).reshape(-1, 3).T
        ends = edges[np.sort(first)]
        mid = verts[ends[:, 0]] + verts[ends[:, 1]]
        verts = np.vstack([verts, mid / np.linalg.norm(mid, axis=1)[:, None]])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    return verts * radius, faces  # centred at the origin


def sphere_varifold(level, radius=1.0):
    return varifold_from_triangles(*icosphere(level, radius))


def flat_patch(nx, ny, extent=(1.0, 1.0)):
    """Triangulated rectangle [0, ex] x [0, ey] in the plane z = 0."""
    xs = np.linspace(0.0, extent[0], nx + 1)
    ys = np.linspace(0.0, extent[1], ny + 1)
    x, y = np.meshgrid(xs, ys)
    verts = np.stack([x.ravel(), y.ravel(), np.zeros(x.size)], axis=1)
    w = nx + 1
    a = (np.arange(ny)[:, None] * w + np.arange(nx)).ravel()
    faces = np.stack([a, a + 1, a + w + 1, a, a + w + 1, a + w], axis=1)
    return verts, faces.reshape(-1, 3)


def flat_varifold(nx, ny):
    return varifold_from_triangles(*flat_patch(nx, ny))


def cylinder_patch(radius, n_theta, n_z):
    """Open half cylinder x^2+y^2=R^2, theta in [0, pi], z in [0, 1]."""
    flat, faces = flat_patch(n_theta, n_z, (np.pi, 1.0))
    theta, z, _ = flat.T
    return np.stack([radius * np.cos(theta), radius * np.sin(theta), z],
                    axis=1), faces


def cylinder_varifold(radius, n_theta, n_z):
    return varifold_from_triangles(*cylinder_patch(radius, n_theta, n_z))


# wedge_fold maps 45 wedges of 6 degrees onto wedges of 10 (a divisor of 360)
FOLD_SECTORS = 45
FOLD_DOMAIN_DEG = 6.0
FOLD_IMAGE_DEG = 10.0


def wedge_fold():
    """Orientation-preserving piecewise-affine fold with analytic overlap.

    The domain is an extruded fan of unit height and radius, cut into
    wedges; the map rotates each wedge onto a wider wedge at the same
    radius.  The image angles wrap past a full turn, and the wrapped
    wedges coincide exactly with first-sheet wedges, so the doubly
    covered volume is analytic.  The domain spans 270 degrees, the image
    450, and 90 degrees are covered twice.

    Returns (mesh, image_positions, info) with info holding the exact
    jacobian_integral, union_volume, and overlap_volume.
    """
    def fan(deg_per_sector):
        th = np.deg2rad(deg_per_sector * np.arange(FOLD_SECTORS + 1))
        rim = np.repeat(np.stack([np.cos(th), np.sin(th)], axis=1), 2, axis=0)
        z = np.tile([0.0, 1.0], FOLD_SECTORS + 2)
        return np.column_stack([np.vstack([np.zeros((2, 2)), rim]), z])

    domain, image = fan(FOLD_DOMAIN_DEG), fan(FOLD_IMAGE_DEG)
    b = 2 * np.arange(FOLD_SECTORS) + 2   # bottom rim vertex; b + 1 on top
    axis0, axis1 = np.zeros_like(b), np.ones_like(b)
    tets = np.stack([axis0, b, b + 2, b + 3, axis0, b, b + 3, b + 1,
                     axis0, b + 1, b + 3, axis1], axis=1).reshape(-1, 4)
    bfaces = face_topology(tets, len(domain))[2]
    mesh = ReferenceMesh(vertices=domain, tets=tets, boundary_faces=bfaces,
                         boundary_tags=np.array(["FREE"] * len(bfaces),
                                                object))
    tri = 0.5 * np.sin(np.deg2rad(FOLD_IMAGE_DEG))
    n_union = int(round(360.0 / FOLD_IMAGE_DEG))
    info = {
        "jacobian_integral": FOLD_SECTORS * tri,
        "union_volume": n_union * tri,
        "overlap_volume": (FOLD_SECTORS - n_union) * tri,
    }
    return mesh, image, info


def slab_labels(mesh, eta, axis=0):
    """Slab labeling at mass fraction eta: phase 1 fills the low-`axis` side.

    Tets are taken in centroid order along the axis up to the first one
    whose running volume exceeds eta * vol(Omega) (plus 1e-12 vol(Omega));
    exact for uniform meshes when eta * n_tets is an integer.
    """
    order = np.argsort(mesh.tet_centroids()[:, axis], kind="stable")
    total = mesh.total_volume()
    running = np.cumsum(mesh.volumes[order])
    n = np.argmax(np.append(running, np.inf) > eta * total + 1e-12 * total)
    labels = np.zeros(mesh.n_tets, np.int8)
    labels[order[:n]] = 1
    return PhaseLabeling(labels)


def halfspace_labels(mesh, axis=0, threshold=0.5):
    """Phase 1 below an axis-aligned plane (by tet centroid)."""
    c = mesh.tet_centroids()[:, axis]
    return PhaseLabeling((c < threshold).astype(np.int8))


def ball_labels(mesh, center, radius):
    """Phase 1 inside a ball (by tet centroid)."""
    d = np.linalg.norm(mesh.tet_centroids() - np.asarray(center, float),
                       axis=1)
    return PhaseLabeling((d < radius).astype(np.int8))
