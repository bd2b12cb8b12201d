from dataclasses import replace
import itertools

from hypothesis import given, settings, strategies as hs
import numpy as np
import pytest

import sharptop as st
from sharptop.surfaces import (cylinder_patch, cylinder_varifold, flat_patch,
                               flat_varifold, halfspace_labels, slab_labels,
                               sphere_varifold)
from sharptop.varifold import (InterfaceError, InterfaceVarifold,
                               _interface_faces, curvature_integral,
                               discrete_curvature_inplace, random_bump_fields,
                               varifold_from_triangles)

from conftest import (brute_force_curvature_sums, brute_force_face_adjacency,
                      perturbed_slab_labels)

CURVATURE_FIELDS = ("mean_curvature", "gauss_curvature", "a_norm",
                    "mixed_area", "interior_vertex")


def brute_force_interface_area(mesh, positions, labels):
    total = 0.0
    for face, tets in brute_force_face_adjacency(mesh.tets).items():
        if len(tets) != 2:
            continue
        la, lb = labels[tets[0]], labels[tets[1]]
        if la == lb:
            continue
        v = positions[list(face)]
        total += 0.5 * np.linalg.norm(np.cross(v[1] - v[0], v[2] - v[0]))
    return total


def brute_force_nonmanifold(mesh, labels):
    """Whether some edge bounds more than two interface triangles."""
    per_edge = {}
    for (a, b, c), tets in brute_force_face_adjacency(mesh.tets).items():
        if len(tets) == 2 and labels[tets[0]] != labels[tets[1]]:
            for edge in ((a, b), (b, c), (a, c)):
                per_edge[edge] = per_edge.get(edge, 0) + 1
    return max(per_edge.values(), default=0) > 2


# ---------------------------------------------------------------- extraction

def test_empty_interface(small_mesh, uniform_phase1):
    V = st.extract_interface(small_mesh, st.identity_state(small_mesh),
                             uniform_phase1(small_mesh))
    assert V.n_triangles == 0
    assert st.varifold_mass(V) == 0.0
    assert st.interface_energy(V, st.EnergyModel()) == 0.0


def test_empty_interface_carries_curvature(small_mesh, uniform_phase1):
    V = st.extract_interface(small_mesh, st.identity_state(small_mesh),
                             uniform_phase1(small_mesh))
    assert V.mean_curvature.shape == (0, 3)
    for name in CURVATURE_FIELDS[1:]:
        assert getattr(V, name).shape == (0,)
    assert V.clip_count == 0
    assert V.domain_boundary_edges.size == 0
    assert curvature_integral(V) == 0.0


def test_midplane_interface(small_mesh):
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    state = st.identity_state(small_mesh)
    V = st.extract_interface(small_mesh, state, phases)
    assert st.varifold_mass(V) == pytest.approx(1.0, rel=1e-13)
    assert st.varifold_mass(V) == pytest.approx(
        brute_force_interface_area(small_mesh, state.positions,
                                   phases.labels), rel=1e-13)
    # all triangle normals point along -x (phase 1 is the low-x side)
    np.testing.assert_allclose(V.normals,
                               np.broadcast_to([-1.0, 0, 0], V.normals.shape),
                               atol=1e-13)
    # flat interface: zero curvature everywhere
    assert np.max(V.a_norm) < 1e-10
    assert st.boundary_defect(V) == 0


def test_stretched_interface_area(small_mesh):
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    A = np.diag([1.0, 2.0, 1.0])
    state = st.identity_state(small_mesh).with_positions(
        small_mesh.vertices @ A.T)
    V = st.extract_interface(small_mesh, state, phases)
    assert st.varifold_mass(V) == pytest.approx(2.0, rel=1e-13)


def test_referential_positions_override(small_mesh):
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    state = st.identity_state(small_mesh).with_positions(
        small_mesh.vertices * 2.0)
    V_ref = st.extract_interface(small_mesh, state, phases,
                                 positions=small_mesh.vertices)
    assert st.varifold_mass(V_ref) == pytest.approx(1.0, rel=1e-13)


def test_orientation_toward_phase1(small_mesh):
    phases = halfspace_labels(small_mesh, axis=2, threshold=0.5)
    state = st.identity_state(small_mesh)
    V = st.extract_interface(small_mesh, state, phases)
    c1 = state.positions[small_mesh.tets[phases.labels == 1]].mean(
        axis=(0, 1))
    c0 = state.positions[small_mesh.tets[phases.labels == 0]].mean(
        axis=(0, 1))
    assert np.all(V.normals @ (c1 - c0) > 0)
    # winding must agree with the stored normals
    v = V.vertices[V.faces]
    cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    assert np.all(np.sum(cross * V.normals, axis=1) > 0)


def test_nonmanifold_interface_rejected():
    mesh = st.build_box_mesh(2, 2, 2)
    # label a single tet plus the tet diagonally across an edge so the
    # shared edge sees four interface triangles
    cent = mesh.tet_centroids()
    labels = np.zeros(mesh.n_tets, np.int8)
    a = np.argmin(np.linalg.norm(cent - [0.25, 0.25, 0.25], axis=1))
    b = np.argmin(np.linalg.norm(cent - [0.75, 0.75, 0.25], axis=1))
    # checkerboard of cells sharing only edges
    for cell in ([0.25, 0.25, 0.25], [0.75, 0.75, 0.25]):
        sel = np.all(np.abs(cent - cell) < 0.25, axis=1)
        labels[sel] = 1
    phases = st.PhaseLabeling(labels)
    with pytest.raises(InterfaceError, match="non-manifold"):
        st.extract_interface(mesh, st.identity_state(mesh), phases)
    del a, b


def test_topology_check_rejects_exactly_when_extraction_raises():
    """The manifold-edge check alone decides whether a reference-position
    extraction succeeds; when it does, the curvature built from the
    check's edge counts equals one built from a fresh count."""
    outcomes = []

    @settings(max_examples=40, deadline=None)
    @given(n=hs.integers(2, 4), axis=hs.integers(0, 2),
           seed=hs.integers(0, 2**16), flips=hs.integers(0, 8),
           bernoulli=hs.one_of(hs.none(), hs.floats(0.05, 0.95)))
    def check(n, axis, seed, flips, bernoulli):
        mesh = st.build_box_mesh(n, n, n)
        if bernoulli is None:
            phases = perturbed_slab_labels(mesh, axis, seed, flips)
        else:
            rng = np.random.default_rng(seed)
            phases = st.PhaseLabeling(rng.random(mesh.n_tets) < bernoulli)
        try:
            _interface_faces(mesh, phases)
            rejected = False
        except InterfaceError:
            rejected = True
        try:
            V = st.extract_interface(mesh, None, phases,
                                     positions=mesh.vertices)
            raised = False
        except InterfaceError:
            raised = True
        assert rejected == raised
        assert rejected == brute_force_nonmanifold(mesh, phases.labels)
        outcomes.append(raised)
        if not raised:
            fresh = discrete_curvature_inplace(
                replace(V, **{name: None for name in CURVATURE_FIELDS}))
            for name in CURVATURE_FIELDS + ("clip_count",):
                assert np.array_equal(getattr(V, name), getattr(fresh, name))

    check()
    assert True in outcomes and False in outcomes


# ---------------------------------------------------------------- curvature

def test_flat_patch_curvature_zero():
    V = flat_varifold(nx=6, ny=6)
    assert np.max(V.a_norm) < 1e-9
    assert np.max(np.abs(V.gauss_curvature[V.interior_vertex])) < 1e-9
    assert curvature_integral(V) < 1e-18
    # mixed areas partition the patch area
    assert np.sum(V.mixed_area) == pytest.approx(st.varifold_mass(V),
                                                 rel=1e-12)


@pytest.mark.parametrize("radius", [0.3, 1.0])
def test_sphere_curvature(radius):
    V = sphere_varifold(3, radius=radius)
    # mass -> 4 pi R^2
    assert st.varifold_mass(V) == pytest.approx(4 * np.pi * radius**2,
                                                rel=0.02)
    # mean curvature magnitude |H| -> 1/R, Gauss K -> 1/R^2
    h = np.linalg.norm(V.mean_curvature, axis=1)
    assert np.median(h) == pytest.approx(1.0 / radius, rel=0.02)
    assert np.median(V.gauss_curvature) == pytest.approx(radius**-2,
                                                         rel=0.02)
    # a_norm -> |II| sqrt(2) = 2/R; integral of a_norm^2 -> 16 pi
    assert np.median(V.a_norm) == pytest.approx(2.0 / radius, rel=0.02)
    assert curvature_integral(V) == pytest.approx(16 * np.pi, rel=0.1)
    assert V.clip_count == 0


def test_sphere_curvature_refines():
    errs = [abs(curvature_integral(sphere_varifold(lv, radius=0.3))
                - 16 * np.pi) for lv in (1, 2, 3)]
    assert errs[0] > errs[1] > errs[2]


def test_cylinder_curvature():
    R = 0.5
    V = cylinder_varifold(R, n_theta=48, n_z=12)
    inner = V.interior_vertex
    h = np.linalg.norm(V.mean_curvature[inner], axis=1)
    # cylinder: |H| = 1/(2R), K = 0, |II|^2 = 1/R^2, a_norm = sqrt(2)/R
    assert np.median(h) == pytest.approx(0.5 / R, rel=0.02)
    assert np.max(np.abs(V.gauss_curvature[inner])) < 0.05 / R**2
    assert np.median(V.a_norm[inner]) == pytest.approx(np.sqrt(2.0) / R,
                                                       rel=0.03)
    # boundary vertices excluded from the curvature sample
    assert np.all(V.a_norm[~inner] == 0.0)


def assert_curvature_sums_equal_oracle(V):
    """H, K and the mixed areas, bit for bit, from the term-by-term sums."""
    mixed, lap, angle_sum = brute_force_curvature_sums(V)
    H = lap / (4.0 * mixed[:, None])
    K = (2.0 * np.pi - angle_sum) / mixed
    H[~V.interior_vertex] = 0.0
    K[~V.interior_vertex] = 0.0
    assert np.array_equal(V.mixed_area, mixed)
    assert np.array_equal(V.mean_curvature, H)
    assert np.array_equal(V.gauss_curvature, K)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_sphere_curvature_sums_equal_oracle(level):
    assert_curvature_sums_equal_oracle(sphere_varifold(level, radius=0.7))


def test_interface_curvature_sums_equal_oracle():
    """Extracted interfaces of perturbed slabs, at the reference and at
    jittered vertex positions."""
    extracted = []

    @settings(max_examples=30, deadline=None)
    @given(n=hs.integers(2, 4), axis=hs.integers(0, 2),
           seed=hs.integers(0, 2**16), flips=hs.integers(0, 8),
           jitter=hs.sampled_from([0.0, 0.05, 0.15]))
    def check(n, axis, seed, flips, jitter):
        mesh = st.build_box_mesh(n, n, n)
        phases = perturbed_slab_labels(mesh, axis, seed, flips)
        rng = np.random.default_rng(seed)
        positions = mesh.vertices + jitter / n * rng.standard_normal(
            mesh.vertices.shape)
        try:
            V = st.extract_interface(mesh, None, phases, positions=positions)
        except InterfaceError:
            return
        extracted.append(V.n_triangles)
        assert_curvature_sums_equal_oracle(V)

    check()
    assert len(extracted) >= 10


def test_slab_labels_equal_running_sum_loop():
    """Tets are taken in centroid order until the next one would overshoot
    the target volume, as a tet-by-tet running sum decides it."""
    rng = np.random.default_rng(2)
    meshes = [st.build_box_mesh(3, 3, 3), st.build_box_mesh(4, 5, 6)]
    m = meshes[1]
    meshes.append(st.ReferenceMesh(
        vertices=m.vertices + 0.02 * rng.standard_normal(m.vertices.shape),
        tets=m.tets, boundary_faces=m.boundary_faces,
        boundary_tags=m.boundary_tags))
    for mesh, eta, axis in itertools.product(meshes, (0.3, 0.5, 0.77),
                                             (0, 1, 2)):
        order = np.argsort(mesh.tet_centroids()[:, axis], kind="stable")
        expected = np.zeros(mesh.n_tets, np.int8)
        acc = 0.0
        for ti in order:
            if (acc + mesh.volumes[ti]
                    > eta * mesh.total_volume() + 1e-12 * mesh.total_volume()):
                break
            expected[ti] = 1
            acc += mesh.volumes[ti]
        assert np.array_equal(slab_labels(mesh, eta, axis).labels, expected)


@pytest.mark.parametrize("n_theta, n_z", [(16, 8), (5, 3), (1, 1)])
def test_patches_equal_quad_loops(n_theta, n_z):
    """Vertices row by row, two triangles per quad, as the loops built
    them; the cylinder is the (theta, z) patch mapped onto it."""
    R, angle, height = 0.7, np.pi, 1.0
    faces = []
    w = n_theta + 1
    for j in range(n_z):
        for i in range(n_theta):
            a = j * w + i
            faces += [[a, a + 1, a + w + 1], [a, a + w + 1, a + w]]
    thetas = np.linspace(0.0, angle, n_theta + 1)
    zs = np.linspace(0.0, height, n_z + 1)
    verts, tris = cylinder_patch(R, n_theta, n_z)
    assert np.array_equal(tris, faces)
    assert np.array_equal(verts, [[R * np.cos(th), R * np.sin(th), z]
                                  for z in zs for th in thetas])
    verts, tris = flat_patch(n_theta, n_z, (2.0, 1.5))
    assert np.array_equal(tris, faces)
    assert np.array_equal(verts, [[x, y, 0.0]
                                  for y in np.linspace(0.0, 1.5, n_z + 1)
                                  for x in np.linspace(0.0, 2.0, n_theta + 1)])


def test_clip_count_reported():
    # a noisy sphere produces vertices where 4|H|^2 - 2K < 0
    from sharptop.surfaces import icosphere
    verts, faces = icosphere(2, radius=1.0)
    rng = np.random.default_rng(0)
    verts = verts + 0.02 * rng.standard_normal(verts.shape)
    V = varifold_from_triangles(verts, faces)
    assert V.clip_count >= 0
    assert np.all(V.a_norm >= 0.0)


def test_degenerate_triangle_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]])
    with pytest.raises(InterfaceError):
        varifold_from_triangles(verts, np.array([[0, 1, 2]]))


# ----------------------------------------------------------- interface energy

def test_interface_energy_flat_is_area(small_mesh):
    phases = halfspace_labels(small_mesh, axis=1, threshold=0.5)
    V = st.extract_interface(small_mesh, st.identity_state(small_mesh),
                             phases)
    model = st.EnergyModel(c_int=2.5)
    assert st.interface_energy(V, model) == pytest.approx(
        2.5 * st.varifold_mass(V), rel=1e-12)


def test_interface_energy_linear_in_cint():
    V = sphere_varifold(2, radius=0.4)
    e1 = st.interface_energy(V, st.EnergyModel(c_int=1.0))
    e2 = st.interface_energy(V, st.EnergyModel(c_int=3.0))
    assert e2 == pytest.approx(3.0 * e1, rel=1e-13)


def test_interface_energy_sphere_value():
    R = 0.3
    V = sphere_varifold(3, radius=R)
    # c_int * (4 pi R^2 + 16 pi) for p = 2
    expected = 4 * np.pi * R**2 + 16 * np.pi
    assert st.interface_energy(V, st.EnergyModel(c_int=1.0, p=2.0)) == \
        pytest.approx(expected, rel=0.1)


# ------------------------------------------------------------ boundary defect

def test_boundary_defect_zero_for_extraction(small_mesh):
    for axis in (0, 1, 2):
        phases = halfspace_labels(small_mesh, axis=axis, threshold=0.5)
        V = st.extract_interface(small_mesh, st.identity_state(small_mesh),
                                 phases)
        assert st.boundary_defect(V) == 0


def test_boundary_defect_detects_deleted_triangle(small_mesh):
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    V = st.extract_interface(small_mesh, st.identity_state(small_mesh),
                             phases)
    broken = InterfaceVarifold(
        vertices=V.vertices, faces=V.faces[1:], areas=V.areas[1:],
        normals=V.normals[1:],
        domain_boundary_edges=V.domain_boundary_edges)
    # removing an interior-adjacent triangle exposes its off-boundary edges
    defect = st.boundary_defect(broken)
    assert defect > 0
    assert defect <= 3


def test_boundary_defect_closed_surface():
    assert st.boundary_defect(sphere_varifold(1)) == 0


# ------------------------------------------------------------------ coupling

def _coupling_setup(n):
    mesh = st.build_box_mesh(n, n, n)
    phases = halfspace_labels(mesh, axis=0, threshold=0.5)
    state = st.identity_state(mesh)
    V = st.extract_interface(mesh, state, phases)
    fields = random_bump_fields(6, center=(0.5, 0.5, 0.5), radius=0.45,
                                seed=7)
    return mesh, state, phases, V, fields


def test_coupling_residual_small():
    mesh, state, phases, V, fields = _coupling_setup(6)
    res = st.coupling_residual(mesh, state, phases, V, fields, quad_order=4)
    sup = max(Y.sup_norm() for Y in fields)
    assert res < 1e-3 * sup


def test_coupling_residual_drops_with_quadrature_order():
    mesh, state, phases, V, fields = _coupling_setup(6)
    r2 = st.coupling_residual(mesh, state, phases, V, fields, quad_order=2)
    r4 = st.coupling_residual(mesh, state, phases, V, fields, quad_order=4)
    assert r4 < 0.5 * r2


def test_coupling_detects_flipped_triangle():
    mesh, state, phases, V, fields = _coupling_setup(4)
    base = st.coupling_residual(mesh, state, phases, V, fields, quad_order=4)
    # flip the normal of the triangle nearest the field center
    centers = V.vertices[V.faces].mean(axis=1)
    k = int(np.argmin(np.linalg.norm(centers - [0.5, 0.5, 0.5], axis=1)))
    normals = np.array(V.normals)
    normals[k] *= -1.0
    bad = InterfaceVarifold(vertices=V.vertices, faces=V.faces,
                            areas=V.areas, normals=normals,
                            domain_boundary_edges=V.domain_boundary_edges)
    res = st.coupling_residual(mesh, state, phases, bad, fields,
                               quad_order=4)
    # the defect injects ~ 2 * area * |Y . nu| at that triangle
    assert res > 10 * base


def test_coupling_rejects_boundary_supported_field():
    mesh, state, phases, V, _ = _coupling_setup(3)
    wide = random_bump_fields(1, center=(0.5, 0.5, 0.5), radius=2.0, seed=0)
    with pytest.raises(InterfaceError, match="boundary"):
        st.coupling_residual(mesh, state, phases, V, wide)
