from hypothesis import given, settings, strategies as hs
import numpy as np
import pytest

import sharptop as st
from sharptop.kinematics import (QUERY_CHUNK, KinematicsError, _TetGrid,
                                 _candidate_pairs, _disjoint_pairs_cross,
                                 _edge_pairs_fold, _vertex_pairs_cross,
                                 boundary_self_intersects,
                                 deformation_gradients, jacobian_integral)
from sharptop.surfaces import wedge_fold

from conftest import (brute_force_box_pairs, brute_force_self_intersection,
                      brute_force_tet_grid, coiled_bar, random_feasible_state)


def test_identity_gradient(small_mesh):
    F = deformation_gradients(small_mesh, small_mesh.vertices)
    for tet in range(small_mesh.n_tets):
        np.testing.assert_allclose(F[tet], np.eye(3), atol=1e-14)


def test_uniform_stretch(small_mesh):
    A = np.diag([2.0, 1.0, 1.0])
    state = st.identity_state(small_mesh).with_positions(
        small_mesh.vertices @ A.T)
    F = deformation_gradients(small_mesh, state.positions)
    np.testing.assert_allclose(F, np.broadcast_to(A, F.shape), atol=1e-13)


def test_random_affine_map(small_mesh):
    rng = np.random.default_rng(1)
    A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    state = st.identity_state(small_mesh).with_positions(
        small_mesh.vertices @ A.T + b)
    F = deformation_gradients(small_mesh, state.positions)
    assert np.max(np.abs(F - A)) < 1e-13


def test_gradient_linear_in_positions(small_mesh):
    # superposition: F(x + y) - F(ref) == (F(x) - F(ref)) + (F(y) - F(ref))
    rng = np.random.default_rng(2)
    base = small_mesh.vertices
    dx = rng.standard_normal(base.shape)
    dy = rng.standard_normal(base.shape)
    Fb = deformation_gradients(small_mesh, base)
    Fx = deformation_gradients(small_mesh, base + dx) - Fb
    Fy = deformation_gradients(small_mesh, base + dy) - Fb
    Fxy = deformation_gradients(small_mesh, base + dx + dy) - Fb
    assert np.max(np.abs(Fxy - (Fx + Fy))) < 1e-12


def test_minors_identity():
    F, cof, det = st.minors(np.eye(3))
    np.testing.assert_allclose(cof, np.eye(3))
    assert det == pytest.approx(1.0)


def test_minors_diagonal():
    _, cof, det = st.minors(np.diag([2.0, 3.0, 4.0]))
    np.testing.assert_allclose(cof, np.diag([12.0, 8.0, 6.0]))
    assert det == pytest.approx(24.0)


def test_minors_cofactor_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        F = rng.standard_normal((3, 3))
        F, cof, det = st.minors(F)
        np.testing.assert_allclose(cof @ F.T, det * np.eye(3), atol=1e-12)


def signed_minors(F):
    """Cof F from the nine signed 2x2 minors, det F expanded along row 0."""
    cof = np.empty_like(F)
    for i in range(3):
        for j in range(3):
            (r0, r1), (c0, c1) = [[a for a in range(3) if a != k]
                                  for k in (i, j)]
            cof[..., i, j] = (-1.0) ** (i + j) * (
                F[..., r0, c0] * F[..., r1, c1]
                - F[..., r0, c1] * F[..., r1, c0])
    det = (F[..., 0, 0] * (F[..., 1, 1] * F[..., 2, 2]
                           - F[..., 1, 2] * F[..., 2, 1])
           - F[..., 0, 1] * (F[..., 1, 0] * F[..., 2, 2]
                             - F[..., 1, 2] * F[..., 2, 0])
           + F[..., 0, 2] * (F[..., 1, 0] * F[..., 2, 1]
                             - F[..., 1, 1] * F[..., 2, 0]))
    return cof, det


def test_minors_equal_signed_2x2_minors():
    rng = np.random.default_rng(4)
    for F in (rng.standard_normal((500, 3, 3)),
              np.eye(3) + 0.01 * rng.standard_normal((500, 3, 3)),
              rng.standard_normal((2, 7, 3, 3)), np.eye(3),
              np.diag([2.0, 3.0, 4.0])):
        cof, det = signed_minors(F)
        _, cof_new, det_new = st.minors(F)
        assert np.array_equal(cof_new, cof)
        assert np.array_equal(det_new, det)


def test_distortion_values():
    assert st.distortion(np.eye(3)) == pytest.approx(3 * np.sqrt(3.0))
    # rotations attain the lower bound
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th), 0],
                  [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
    assert st.distortion(R) == pytest.approx(3 * np.sqrt(3.0))
    assert st.distortion(np.diag([2.0, 1.0, 1.0])) == pytest.approx(
        3 * np.sqrt(6.0))


def test_distortion_lower_bound_random():
    rng = np.random.default_rng(4)
    count = 0
    while count < 200:
        F = rng.standard_normal((3, 3))
        _, _, det = st.minors(F)
        if det <= 0:
            continue
        assert st.distortion(F) >= 3 * np.sqrt(3.0) - 1e-9
        count += 1


def test_distortion_rejects_nonpositive_det():
    with pytest.raises(KinematicsError):
        st.distortion(np.diag([-1.0, 1.0, 1.0]))


def test_ciarlet_necas_identity(small_mesh):
    res = st.ciarlet_necas_residual(small_mesh, st.identity_state(small_mesh),
                                    samples=100_000, seed=0)
    assert res.jacobian_integral == pytest.approx(1.0, rel=1e-12)
    tol = 3 * res.mc_std + 1e-3 * res.jacobian_integral
    assert abs(res.residual) <= tol


def test_ciarlet_necas_stretch(small_mesh):
    A = np.diag([2.0, 1.0, 1.0])
    state = st.identity_state(small_mesh).with_positions(
        small_mesh.vertices @ A.T)
    res = st.ciarlet_necas_residual(small_mesh, state, samples=100_000,
                                    seed=1)
    assert res.jacobian_integral == pytest.approx(2.0, rel=1e-12)
    assert abs(res.residual) <= 3 * res.mc_std + 1e-3 * res.jacobian_integral


def test_ciarlet_necas_detects_fold():
    mesh, image, info = wedge_fold()
    state = st.DeformationState(positions=image,
                                dirichlet_mask=np.zeros(len(image), bool))
    res = st.ciarlet_necas_residual(mesh, state, samples=100_000, seed=2)
    assert res.jacobian_integral == pytest.approx(info["jacobian_integral"],
                                                  rel=1e-12)
    assert abs(res.residual - info["overlap_volume"]) <= 3 * res.mc_std
    assert res.residual > 5 * res.mc_std


@settings(max_examples=25)
@given(dims=hs.tuples(*[hs.integers(1, 6)] * 3),
       scale=hs.floats(0.0, 0.3), n_uniform=hs.integers(0, 600),
       seed=hs.integers(0, 2**32 - 1))
def test_tet_grid_matches_dict_oracle(dims, scale, n_uniform, seed):
    """Cell arrays and hits equal the tet-by-tet dict grid."""
    mesh = st.build_box_mesh(*dims)
    rng = np.random.default_rng(seed)
    h = 1.0 / max(dims)
    positions = mesh.vertices + scale * h * rng.uniform(
        -1, 1, mesh.vertices.shape)
    grid = _TetGrid(positions, mesh.tets)
    oracle = brute_force_tet_grid(positions, mesh.tets)
    assert np.array_equal(grid.lo, oracle.lo)
    assert np.array_equal(grid.hi, oracle.hi)
    assert np.array_equal(grid.inv_e, oracle.inv_e)
    assert grid.res == oracle.res
    for c, cell in enumerate(np.ndindex(grid.res, grid.res, grid.res)):
        assert (grid.cell_tets[grid.cell_start[c]:grid.cell_start[c + 1]]
                .tolist() == oracle.cells.get(cell, []))
    corners = positions[mesh.tets]
    faces = corners[:, [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]]
    points = np.concatenate([
        rng.uniform(grid.lo, grid.hi, (n_uniform, 3)), positions,
        faces.mean(axis=2).reshape(-1, 3), grid.hi[None]])
    if len(points) % QUERY_CHUNK == 0:  # keep a ragged last chunk
        points = points[1:]
    hits = grid.contains(points)
    assert hits.dtype == bool
    assert np.array_equal(hits, oracle.contains(points))


def test_fold_map_is_orientation_preserving():
    mesh, image, _ = wedge_fold()
    F = deformation_gradients(mesh, image)
    _, _, det = st.minors(F)
    assert det.min() > 0


def test_jacobian_integral_requires_positive_det(small_mesh):
    pos = np.array(small_mesh.vertices)
    pos[:, 0] *= -1.0
    with pytest.raises(KinematicsError):
        jacobian_integral(small_mesh, pos)


def test_ciarlet_necas_rejects_zero_samples(small_mesh):
    with pytest.raises(ValueError):
        st.ciarlet_necas_residual(small_mesh, st.identity_state(small_mesh),
                                  samples=0)


def test_random_feasible_state_feasible(clamped_mesh):
    state = random_feasible_state(clamped_mesh, seed=5)
    F = deformation_gradients(clamped_mesh, state.positions)
    _, _, det = st.minors(F)
    assert det.min() > 0


def monte_carlo_overlaps(mesh, positions, seed=0):
    """The Monte Carlo oracle's verdict: an image-volume deficit beyond
    three standard deviations plus 1e-3 of the Jacobian integral."""
    state = st.DeformationState(positions=positions,
                                dirichlet_mask=np.zeros(len(positions), bool))
    res = st.ciarlet_necas_residual(mesh, state, samples=50_000, seed=seed)
    return res.residual > 3 * res.mc_std + 1e-3 * res.jacobian_integral


def stretched_box(stretch):
    """Criterion 5's box and an affine stretch of it."""
    box = st.build_box_mesh(2, 2, 2)
    return box, box.vertices @ np.diag(stretch)


@pytest.mark.parametrize("case, crosses", [
    (lambda: wedge_fold()[:2], True),
    (lambda: stretched_box([1.0, 1.0, 1.0]), False),
    (lambda: stretched_box([2.0, 1.0, 0.7]), False),
    (lambda: coiled_bar(0.9), False),
    (lambda: coiled_bar(1.1), True),
], ids=["wedge-fold", "identity", "stretch", "coil-0.9", "coil-1.1"])
def test_boundary_self_intersection_named_cases(case, crosses):
    mesh, positions = case()
    assert st.minors(deformation_gradients(mesh, positions))[2].min() > 0
    assert boundary_self_intersects(mesh, positions) is crosses
    assert brute_force_self_intersection(mesh, positions) is crosses
    assert monte_carlo_overlaps(mesh, positions) is crosses


def _triangles(*points):
    """The rows of one triangle pair, (3, len(points), 1) component
    first."""
    return np.array(points, float).T[:, :, None]


@pytest.mark.parametrize("second, crosses", [
    ([(0.2, 0.2, -1), (0.2, 0.2, 1), (3, 3, 0)], True),    # pierces
    ([(0.2, 0.2, 0), (0.2, 0.2, 1), (3, 3, 1)], False),    # touches at a point
    ([(0.1, 0.1, 0), (2, 0.1, 0), (0.1, 2, 0)], True),     # coplanar overlap
    ([(0, 1, 0), (1, 0, 0), (1, 1, 0)], False),            # coplanar, contact
    ([(1, 1, 0), (2, 1, 0), (1, 2, 0)], False),            # coplanar, apart
])
def test_disjoint_pair_predicate(second, crosses):
    first = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    pair = _triangles(*first, *second)
    assert _disjoint_pairs_cross(pair[:, :3], pair[:, 3:])[0] == crosses
    assert _disjoint_pairs_cross(pair[:, 3:], pair[:, :3])[0] == crosses


@pytest.mark.parametrize("b1, b2, crosses", [
    ((0.3, 0.3, -1), (0.3, 0.3, 1), True),    # opposite edge pierces
    ((0.3, 0.3, 0.1), (0.3, 0.3, 1), False),  # above the plane
    ((1, 0.2, 0), (0.2, 1, 0), True),         # coplanar, sectors overlap
    ((0, 1, 0), (-1, 0, 0), False),           # coplanar, sectors touch
    ((-1, -0.1, 0), (-0.1, -1, 0), False),    # coplanar, opposite sector
])
def test_vertex_pair_predicate(b1, b2, crosses):
    p, a1, a2 = (0, 0, 0), (1, 0, 0), (0, 1, 0)
    assert _vertex_pairs_cross(_triangles(p, a1, a2, b1, b2))[0] == crosses
    assert _vertex_pairs_cross(_triangles(p, b1, b2, a1, a2))[0] == crosses


@pytest.mark.parametrize("b, folds", [
    ((0.3, 0.5, 0), True), ((0.3, -0.5, 0), False), ((0.3, 0.5, 0.2), False),
])
def test_edge_pair_predicate(b, folds):
    u, v, a = (0, 0, 0), (1, 0, 0), (0.5, 1, 0)
    assert _edge_pairs_fold(_triangles(u, v, a, b))[0] == folds


def _jittered_box(dims, scale, seed):
    mesh = st.build_box_mesh(*dims)
    rng = np.random.default_rng(seed)
    return mesh, mesh.vertices + scale / max(dims) * rng.uniform(
        -1, 1, mesh.vertices.shape)


@settings(max_examples=40)
@given(kind=hs.sampled_from(["box", "coil"]),
       dims=hs.tuples(*[hs.integers(1, 3)] * 3),
       scale=hs.floats(0.0, 0.8), turns=hs.floats(0.5, 1.5),
       seed=hs.integers(0, 2**32 - 1))
def test_boundary_self_intersection_matches_brute_force(kind, dims, scale,
                                                        turns, seed):
    """The hashed check equals the all-pairs oracle, and the hash finds
    every vertex-disjoint pair whose bounding boxes overlap."""
    if kind == "box":
        mesh, positions = _jittered_box(dims, scale, seed)
    else:
        mesh, positions = coiled_bar(turns, n=4 * dims[0], radius=3.0)
        positions += 0.1 * scale * np.random.default_rng(seed).uniform(
            -1, 1, positions.shape)
    assert boundary_self_intersects(mesh, positions) \
        == brute_force_self_intersection(mesh, positions)
    faces = mesh.boundary_faces
    a, b = _candidate_pairs(np.take(positions.T, faces.T, axis=1), faces)
    assert sorted(zip(a.tolist(), b.tolist())) \
        == sorted(brute_force_box_pairs(mesh, positions))
