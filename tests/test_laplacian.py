from hypothesis import given, settings, strategies as hs
import numpy as np
import pytest

import sharptop as st
from sharptop import laplacian
from sharptop.energy import identity_stiffness
from sharptop.laplacian import (BASE, REGULARISATION, LaplacianFactor,
                                _flat, spd_inverse, vertex_levels)
from sharptop.surfaces import wedge_fold

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
