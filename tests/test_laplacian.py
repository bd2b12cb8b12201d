from hypothesis import given, settings, strategies as hs
import numpy as np
import pytest

import sharptop as st
from sharptop import laplacian
from sharptop.energy import bulk_weights, identity_stiffness
from sharptop.laplacian import (BASE, REGULARISATION, LaplacianFactor,
                                _flat, spd_inverse, vertex_levels)
from sharptop.mesh import DIRICHLET, FREE
from sharptop.solve import Preconditioner
from sharptop.surfaces import slab_labels, wedge_fold

from conftest import (bincount_coupled_schur, clamp_bottom_pull_top,
                      cholesky_factor_oracle, dense_level_blocks,
                      jittered_box_mesh, l_shape_mesh, two_boxes,
                      vertex_levels_oracle)


def dense_laplacian(mesh, weights):
    """sum_t w_t Gbar_t Gbar_t^T over all vertices, by np.add.at."""
    G = mesh.ref_inv
    grads = np.concatenate([-G.sum(axis=1, keepdims=True), G], axis=1)
    local = weights[:, None, None] * np.einsum("tai,tbi->tab", grads, grads)
    L = np.zeros((mesh.n_vertices, mesh.n_vertices))
    np.add.at(L, (mesh.tets[:, :, None], mesh.tets[:, None, :]), local)
    return L


def dense_elasticity(mesh, weights, two_mu, lam):
    """sum_t w_t B_t^T C B_t over all components (3 nv, 3 nv), vertex by
    vertex, with B_t the (6, 12) Voigt strain of tet t's corners and C
    the isotropic (6, 6) stiffness of Lame parameters (mu, lambda), by
    np.add.at."""
    G = mesh.ref_inv
    grads = np.concatenate([-G.sum(axis=1, keepdims=True), G], axis=1)
    B = np.zeros((mesh.n_tets, 6, 4, 3))
    for i in range(3):
        B[:, i, :, i] = grads[:, :, i]
    for row, (i, j) in zip((3, 4, 5), ((1, 2), (0, 2), (0, 1))):
        B[:, row, :, i] = grads[:, :, j]
        B[:, row, :, j] = grads[:, :, i]
    B = B.reshape(mesh.n_tets, 6, 12)
    C = lam * np.outer(np.r_[1.0, 1, 1, 0, 0, 0], np.r_[1.0, 1, 1, 0, 0, 0])
    C += 0.5 * two_mu * np.diag([2.0, 2, 2, 1, 1, 1])
    local = weights[:, None, None] * (B.transpose(0, 2, 1) @ C @ B)
    dofs = (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(-1, 12)
    K = np.zeros((3 * mesh.n_vertices, 3 * mesh.n_vertices))
    np.add.at(K, (dofs[:, :, None], dofs[:, None, :]), local)
    return K


def components(P):
    """Rows of a factor's first level per vertex of that level: 3 for
    K0, 1 for L_w."""
    return len(P.inverses[0]) // (P.bounds[1] - P.bounds[0])


def factored_mask(mesh):
    used = np.zeros(mesh.n_vertices, bool)
    used[mesh.tets] = True
    return used & ~mesh.dirichlet_vertex_mask()


def check_blocks(mesh, weights):
    """The level blocks are L_w's blocks, and L_w is block tridiagonal
    in level order."""
    levels, _ = vertex_levels(mesh, factored_mask(mesh))
    L = dense_laplacian(mesh, weights)
    scale = np.abs(L).max()
    members = [np.flatnonzero(levels == k) for k in range(levels.max() + 1)]
    for k, (A, B) in enumerate(dense_level_blocks(mesh, levels, weights)):
        np.testing.assert_allclose(A, L[np.ix_(members[k], members[k])],
                                   rtol=0, atol=1e-13 * scale)
        if k:
            np.testing.assert_allclose(
                B, L[np.ix_(members[k - 1], members[k])],
                rtol=0, atol=1e-13 * scale)
        for far in members[k + 2:]:
            assert not L[np.ix_(members[k], far)].any()


def check_inverse(mesh, weights, seed=0):
    """P (c L_w x) = x to float32 accuracy, with the diagonal raised by
    REGULARISATION when a level had to be seeded; rows outside the
    factored vertices come out zero."""
    factored = factored_mask(mesh)
    _, seeded = vertex_levels(mesh, factored)
    c = identity_stiffness(4.0, st.stress_free_s(4.0))
    A = c * dense_laplacian(mesh, weights)[np.ix_(factored, factored)]
    if seeded:
        A[np.diag_indices_from(A)] *= 1.0 + REGULARISATION
    x = np.zeros((mesh.n_vertices, 3))
    x[factored] = np.random.default_rng(seed).standard_normal(
        (factored.sum(), 3))
    Ax = np.zeros_like(x)
    Ax[factored] = A @ x[factored]
    P = LaplacianFactor(mesh, ~mesh.dirichlet_vertex_mask(), c * weights)
    got = P(Ax)
    assert not got[~factored].any()
    assert np.abs(got - x).max() <= 1e-5 * np.abs(x).max()
    return seeded


@settings(max_examples=15)
@given(dims=hs.tuples(*[hs.integers(1, 5)] * 3),
       seed=hs.integers(0, 2**32 - 1))
def test_factor_inverts_jittered_box_laplacian(dims, seed):
    rng = np.random.default_rng(seed)
    mesh = jittered_box_mesh(dims, rng, 0.1)
    weights = mesh.volumes * rng.uniform(0.2, 2.0, mesh.n_tets)
    check_blocks(mesh, weights)
    assert not check_inverse(mesh, weights, seed)


@pytest.mark.parametrize("make", [
    l_shape_mesh,
    lambda: wedge_fold()[0],                   # no DIRICHLET face
    lambda: st.build_box_mesh(4, 3, 3),        # all faces FREE
], ids=["l-shape", "wedge-fold", "free-box"])
def test_factor_inverts_laplacian_off_box_meshes(make):
    mesh = make()
    weights = mesh.volumes * np.random.default_rng(1).uniform(
        0.2, 2.0, mesh.n_tets)
    check_blocks(mesh, weights)
    seeded = check_inverse(mesh, weights)
    assert seeded == (not mesh.dirichlet_vertex_mask().any())


def test_levels_of_l_shape_are_uneven_and_skip_unused_vertices():
    mesh = l_shape_mesh()
    levels, seeded = vertex_levels(mesh, factored_mask(mesh))
    assert not seeded
    assert len(set(np.bincount(levels[levels >= 0]).tolist())) > 1
    used = np.zeros(mesh.n_vertices, bool)
    used[mesh.tets] = True
    assert (~used).any() and np.all(levels[~used] == -1)
    assert np.all(levels[mesh.dirichlet_vertex_mask()] == -1)


@pytest.mark.parametrize("make", [
    lambda: st.build_box_mesh(5, 4, 3, tagging=clamp_bottom_pull_top),
    l_shape_mesh,
    lambda: wedge_fold()[0],                   # seeded levels
    lambda: st.build_box_mesh(4, 3, 3),        # all faces FREE: seeded
], ids=["box", "l-shape", "wedge-fold", "free-box"])
def test_levels_match_the_all_tet_scan(make):
    """The front-only walk gives the levels and the seeded flag of a
    scan over every tet at every level."""
    mesh = make()
    levels, seeded = vertex_levels(mesh, factored_mask(mesh))
    want, want_seeded = vertex_levels_oracle(mesh, factored_mask(mesh))
    assert levels.dtype == want.dtype
    assert np.array_equal(levels, want)
    assert seeded == want_seeded


def random_spd(n, rng):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


@pytest.mark.parametrize("n", [1, BASE - 1, BASE, BASE + 1, 2 * BASE + 1,
                               289])
def test_spd_inverse_matches_numpy_and_is_symmetric(n):
    A = random_spd(n, np.random.default_rng(n))
    got, want = spd_inverse(A), np.linalg.inv(A)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale
    assert np.abs(got - got.T).max() <= 1e-14 * scale


def test_spd_inverse_rejects_indefinite_blocks():
    rng = np.random.default_rng(0)
    A = random_spd(BASE, rng)
    A[-1, -1] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        spd_inverse(A)
    # leading block SPD, trailing Schur complement R - Q^T P^-1 Q not
    n, h = 2 * BASE + 1, BASE
    A = random_spd(n, rng)
    A[h:, h:] -= 2.0 * np.abs(np.linalg.eigvalsh(A)).max() * np.eye(n - h)
    assert np.linalg.eigvalsh(A[:h, :h]).min() > 0
    with pytest.raises(np.linalg.LinAlgError):
        spd_inverse(A)


def two_components():
    """Two disjoint 3x3x2 boxes, all FREE: levels of 1, 7, 19, 21
    vertices each, and no coupling between the last level of the first
    box and the first of the second."""
    vertices, tets, faces, tags = two_boxes(st.build_box_mesh(3, 3, 2))
    return st.ReferenceMesh(vertices=vertices, tets=tets,
                            boundary_faces=faces, boundary_tags=tags)


ORACLE_MESHES = pytest.mark.parametrize("make", [
    lambda: st.build_box_mesh(8, 8, 8, tagging=clamp_bottom_pull_top),
    lambda: jittered_box_mesh((5, 4, 3), np.random.default_rng(2), 0.1),
    lambda: wedge_fold()[0],                   # seeded levels
    two_components,
], ids=["clamped-8", "jittered", "wedge-fold", "two-component"])


@ORACLE_MESHES
def test_factor_matches_cholesky_oracle(make):
    """Same blocks and couplings bit for bit, and float32 inverses within
    one ulp of the Cholesky build; 0 entries differed on these meshes
    when the blocked inverse replaced it."""
    mesh = make()
    free = ~mesh.dirichlet_vertex_mask()
    weights = mesh.volumes * np.random.default_rng(1).uniform(
        0.2, 2.0, mesh.n_tets)
    blocks, inverses, couplings = cholesky_factor_oracle(mesh, free, weights)
    used = np.zeros(mesh.n_vertices, bool)
    used[mesh.tets] = True
    levels, _ = vertex_levels(mesh, free & used)
    for (A, B), (A0, B0) in zip(dense_level_blocks(mesh, levels, weights),
                                blocks, strict=True):
        assert np.array_equal(A, A0)
        assert (B is None) == (B0 is None)
        assert B is None or np.array_equal(B, B0)
    P = LaplacianFactor(mesh, free, weights)
    for got, want in zip(P.inverses, inverses, strict=True):
        ulps = np.abs(got.view(np.int32).astype(np.int64)
                      - want.view(np.int32))
        assert ulps.max() <= 1
    for got, (rows, cols, values) in zip(P.couplings, couplings,
                                         strict=True):
        assert np.array_equal(got[0], _flat(rows))
        assert np.array_equal(got[1], _flat(cols))
        assert np.array_equal(got[2], np.repeat(values, 3))


@ORACLE_MESHES
def test_coupled_schur_matches_bincount_oracle(make, monkeypatch,
                                                request):
    """The gathered Schur update of every level equals the np.bincount
    sums it replaced, sign bits included: one entry per column on
    clamped-8, up to 4 on the jittered mesh, none on the second box's
    first level."""
    mesh = make()
    weights = mesh.volumes * np.random.default_rng(1).uniform(
        0.2, 2.0, mesh.n_tets)
    entries, coupled_schur = [], laplacian._coupled_schur

    def checked(inverse, rows, cols, values, n):
        got = coupled_schur(inverse, rows, cols, values, n)
        want = bincount_coupled_schur(inverse, rows, cols, values, n)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        entries.append(np.bincount(cols, minlength=n).max(initial=0))
        return got

    monkeypatch.setattr(laplacian, "_coupled_schur", checked)
    P = LaplacianFactor(mesh, ~mesh.dirichlet_vertex_mask(), weights)
    assert len(entries) == len(P.inverses) - 1
    assert {"clamped-8": {1}, "jittered": {4}, "wedge-fold": {1},
            "two-component": {0, 1}}[request.node.callspec.id] == set(entries)


def clamped(mesh):
    """The mesh and the vertices off its Dirichlet faces."""
    return mesh, ~mesh.dirichlet_vertex_mask()


def pinned_wedge():
    """wedge_fold's mesh, with its vertices at z = 0 pinned."""
    mesh = wedge_fold()[0]
    return mesh, mesh.vertices[:, 2] > 0.0


@pytest.mark.parametrize("make", [
    lambda: clamped(st.build_box_mesh(8, 8, 8,
                                      tagging=clamp_bottom_pull_top)),
    lambda: clamped(jittered_box_mesh((5, 4, 3), np.random.default_rng(2),
                                      0.1)),
    pinned_wedge,
], ids=["clamped-8", "jittered", "wedge-fold"])
def test_elastic_factor_inverts_dense_elasticity(make, monkeypatch):
    """The K0 factor's apply equals the dense float64 inverse of K0 on
    the free components to float32 accuracy, with K0 assembled from Voigt
    strains; clamped-8's 243-component levels are factored by raising
    ELASTIC_WIDTH."""
    monkeypatch.setattr(laplacian, "ELASTIC_WIDTH", 243)
    mesh, free = make()
    weights = mesh.volumes * np.random.default_rng(1).uniform(
        0.2, 2.0, mesh.n_tets)
    two_mu, lam = 1.2, -0.3   # 2 mu + 3 lambda = 0.3 > 0
    P = LaplacianFactor(mesh, free, weights, (two_mu, lam))
    assert components(P) == 3
    dofs = np.repeat(free, 3)
    K = dense_elasticity(mesh, weights, two_mu, lam)[np.ix_(dofs, dofs)]
    v = np.zeros((mesh.n_vertices, 3))
    v[free] = np.random.default_rng(0).standard_normal((free.sum(), 3))
    want = np.zeros_like(v)
    want.ravel()[dofs] = np.linalg.inv(K) @ v.ravel()[dofs]
    got = P(v)
    assert not got[~free].any()
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_elastic_factor_rejects_indefinite_elasticity():
    """2 mu + 3 lambda < 0 makes K0 indefinite (compression lowers the
    energy): the factor raises, as spd_inverse does."""
    mesh = st.build_box_mesh(3, 3, 3, tagging=clamp_bottom_pull_top)
    with pytest.raises(np.linalg.LinAlgError):
        LaplacianFactor(mesh, ~mesh.dirichlet_vertex_mask(), mesh.volumes,
                        (1.0, -1.0))


def hinged_boxes():
    """Two 2x2x2 unit boxes sharing the edge x = y = 1, the first
    clamped at z = 0: one vertex-connected mesh of two face-connected
    components, and the second box turns about the shared edge."""
    box = st.build_box_mesh(2, 2, 2)
    vertices = np.vstack([box.vertices, box.vertices + [1.0, 1.0, 0.0]])
    merged, index = np.unique(np.round(vertices, 9), axis=0,
                              return_inverse=True)
    index = index.ravel()
    tets = index[np.vstack([box.tets, box.tets + box.n_vertices])]
    faces = index[np.vstack([box.boundary_faces,
                             box.boundary_faces + box.n_vertices])]
    bottom = np.all(merged[faces][:, :, 2] == 0.0, axis=1) & np.all(
        merged[faces][:, :, :2] <= 1.0, axis=(1, 2))
    return clamped(st.ReferenceMesh(
        vertices=merged, tets=tets, boundary_faces=faces,
        boundary_tags=np.where(bottom, DIRICHLET, FREE)))


def pinned_box(pinned):
    """A free 3x3x3 box with the vertices `pinned(vertices)` excluded."""
    mesh = st.build_box_mesh(3, 3, 3)
    return mesh, ~pinned(mesh.vertices)


def first_box_clamped():
    """conftest.two_boxes of 2x2x2 boxes, the first clamped at z = 0."""
    vertices, tets, faces, tags = two_boxes(st.build_box_mesh(2, 2, 2))
    mesh = st.ReferenceMesh(vertices=vertices, tets=tets,
                            boundary_faces=faces, boundary_tags=tags)
    return mesh, ~((vertices[:, 2] == 0.0) & (vertices[:, 0] <= 1.0))


@pytest.mark.parametrize("make", [
    lambda: pinned_box(lambda x: np.all(x == 0.0, axis=1)),
    lambda: pinned_box(lambda x: (x[:, 1] == 0.0) & (x[:, 2] == 0.0)),
    first_box_clamped,
    lambda: pinned_box(lambda x: np.zeros(len(x), bool)),   # self-balanced
    hinged_boxes,
], ids=["one-vertex", "one-edge", "two-boxes", "free-cube", "hinged"])
def test_singular_elasticity_takes_the_laplacian_factor(make):
    """Where K0 on the free components is singular (a rigid motion is
    free), the preconditioner factors c L_w, bit for bit as a factor
    built without Lame parameters."""
    mesh, free = make()
    K = dense_elasticity(mesh, mesh.volumes, 1.2, -0.3)
    eigenvalues = np.linalg.eigvalsh(K[np.ix_(*[np.repeat(free, 3)] * 2)])
    assert eigenvalues[0] <= 1e-10 * eigenvalues[-1]
    model = st.EnergyModel()
    weights = bulk_weights(mesh, st.PhaseLabeling(
        np.ones(mesh.n_tets, np.int8)), model)
    H0 = Preconditioner(mesh, free, weights, model)
    v = np.random.default_rng(0).standard_normal((mesh.n_vertices, 3))
    got = H0(v)
    P = H0._factor
    want = LaplacianFactor(mesh, free, identity_stiffness(model.r, model.s)
                           * weights)
    assert components(P) == 1
    for x, y in zip(P.inverses + [c for c3 in P.couplings for c in c3],
                    want.inverses + [c for c3 in want.couplings for c in c3],
                    strict=True):
        assert x.tobytes() == y.tobytes()
    assert got.tobytes() == want(v).tobytes()


@pytest.mark.parametrize("n, vector", [(6, True), (16, False)])
def test_preconditioner_takes_elasticity_on_narrow_levels(n, vector):
    """A clamped and pulled n^3 box: at 6^3 its 147-component levels take
    K0, at 16^3 its 867-component levels take c L_w."""
    mesh = st.build_box_mesh(n, n, n, tagging=clamp_bottom_pull_top)
    model = st.EnergyModel(scale0=0.2)
    H0 = Preconditioner(mesh, ~mesh.dirichlet_vertex_mask(),
                        bulk_weights(mesh, slab_labels(mesh, 0.5, axis=0),
                                     model), model)
    H0(np.zeros((mesh.n_vertices, 3)))
    assert len(H0._factor.inverses[0]) == (3 if vector else 1) * (n + 1)**2
