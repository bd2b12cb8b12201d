"""Analytic test surfaces and labelings: icospheres, cylinders, slabs."""

import numpy as np

from .varifold import PhaseLabeling, varifold_from_triangles


def icosphere(level, radius=1.0, center=(0.0, 0.0, 0.0)):
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
    verts_list = [v for v in verts]
    for _ in range(int(level)):
        cache = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = verts_list[a] + verts_list[b]
                m /= np.linalg.norm(m)
                cache[key] = len(verts_list)
                verts_list.append(m)
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = np.array(new_faces, int)
    vertices = np.array(verts_list) * radius + np.asarray(center, float)
    return vertices, faces


def sphere_varifold(level, radius=1.0, center=(0.0, 0.0, 0.0)):
    return varifold_from_triangles(*icosphere(level, radius, center))


def cylinder_patch(radius, angle=np.pi, height=1.0, n_theta=16, n_z=8):
    """Open cylinder patch x^2+y^2=R^2, theta in [0, angle], z in [0, h]."""
    thetas = np.linspace(0.0, angle, n_theta + 1)
    zs = np.linspace(0.0, height, n_z + 1)
    verts = np.array([[radius * np.cos(th), radius * np.sin(th), z]
                      for z in zs for th in thetas])
    faces = []
    w = n_theta + 1
    for j in range(n_z):
        for i in range(n_theta):
            a = j * w + i
            b = a + 1
            c = a + w
            d = c + 1
            faces += [[a, b, d], [a, d, c]]
    return verts, np.array(faces, int)


def cylinder_varifold(radius, angle=np.pi, height=1.0, n_theta=16, n_z=8):
    return varifold_from_triangles(
        *cylinder_patch(radius, angle, height, n_theta, n_z))


def flat_patch(nx=8, ny=8, extent=(1.0, 1.0), z=0.0):
    """Triangulated flat rectangle in the plane z = const."""
    xs = np.linspace(0.0, extent[0], nx + 1)
    ys = np.linspace(0.0, extent[1], ny + 1)
    verts = np.array([[x, y, z] for y in ys for x in xs])
    faces = []
    w = nx + 1
    for j in range(ny):
        for i in range(nx):
            a = j * w + i
            faces += [[a, a + 1, a + w + 1], [a, a + w + 1, a + w]]
    return verts, np.array(faces, int)


def flat_varifold(nx=8, ny=8, extent=(1.0, 1.0), z=0.0):
    return varifold_from_triangles(*flat_patch(nx, ny, extent, z))


def wedge_fold(n_sectors=45, domain_deg=6.0, image_deg=10.0, height=1.0):
    """Orientation-preserving piecewise-affine fold with analytic overlap.

    The domain is an extruded fan of `n_sectors` wedges of `domain_deg`
    degrees each; the map rotates each wedge onto an `image_deg` wedge at
    the same radius.  When the image angles wrap past a full turn the
    wrapped wedges coincide exactly with first-sheet wedges, so the
    doubly covered volume is analytic.  With the defaults the domain
    spans 270 degrees, the image 450, and 90 degrees are covered twice.

    Returns (mesh, image_positions, info) with info holding the exact
    jacobian_integral, union_volume, and overlap_volume.
    """
    from .mesh import ReferenceMesh, face_topology, orient_tets
    total_img = n_sectors * image_deg
    if total_img <= 360.0:
        raise ValueError("image fan must wrap past a full turn")
    if (360.0 / image_deg) % 1.0 != 0.0:
        raise ValueError("image_deg must divide 360 for an exact overlap")

    def fan(deg_per_sector):
        pts = [[0.0, 0.0, 0.0], [0.0, 0.0, height]]
        for i in range(n_sectors + 1):
            th = np.deg2rad(deg_per_sector * i)
            pts.append([np.cos(th), np.sin(th), 0.0])
            pts.append([np.cos(th), np.sin(th), height])
        return np.array(pts)

    domain = fan(domain_deg)
    image = fan(image_deg)
    tets = []
    for i in range(n_sectors):
        b = [0, 2 + 2 * i, 2 + 2 * (i + 1)]
        t = [1, 3 + 2 * i, 3 + 2 * (i + 1)]
        tets += [[b[0], b[1], b[2], t[2]],
                 [b[0], b[1], t[2], t[1]],
                 [b[0], t[1], t[2], t[0]]]
    tets, _ = orient_tets(domain, np.array(tets, int))
    bfaces = face_topology(tets, len(domain))[2]
    mesh = ReferenceMesh(vertices=domain, tets=tets, boundary_faces=bfaces,
                         boundary_tags=np.array(["FREE"] * len(bfaces),
                                                object))
    tri = 0.5 * np.sin(np.deg2rad(image_deg)) * height
    n_union = int(round(360.0 / image_deg))
    info = {
        "jacobian_integral": n_sectors * tri,
        "union_volume": n_union * tri,
        "overlap_volume": (n_sectors - n_union) * tri,
    }
    return mesh, image, info


def slab_labels(mesh, eta, axis=0):
    """Slab labeling at mass fraction eta: phase 1 fills the low-`axis` side.

    Tets are taken in centroid order along the axis until the phase-1
    volume reaches eta * vol(Omega); exact for uniform meshes when
    eta * n_tets is an integer.
    """
    order = np.argsort(mesh.tet_centroids()[:, axis], kind="stable")
    target = eta * mesh.total_volume()
    labels = np.zeros(mesh.n_tets, np.int8)
    acc = 0.0
    for ti in order:
        if acc + mesh.volumes[ti] > target + 1e-12 * mesh.total_volume():
            break
        labels[ti] = 1
        acc += mesh.volumes[ti]
    return PhaseLabeling(labels)


def halfspace_labels(mesh, axis=0, threshold=0.5, side="below"):
    """Label tets by centroid position against an axis-aligned plane."""
    c = mesh.tet_centroids()[:, axis]
    labels = (c < threshold) if side == "below" else (c >= threshold)
    return PhaseLabeling(labels.astype(np.int8))


def ball_labels(mesh, center, radius):
    """Phase 1 inside a ball (by tet centroid)."""
    d = np.linalg.norm(mesh.tet_centroids() - np.asarray(center, float),
                       axis=1)
    return PhaseLabeling((d < radius).astype(np.int8))
