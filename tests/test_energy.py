import math

import numpy as np
import pytest

import sharptop as st
from sharptop.energy import (INFEASIBLE, bulk_energy_gradient,
                             load_potential_gradient, stress_free_s)

from conftest import random_feasible_state


def random_feasible_F(rng, spread=0.4):
    while True:
        F = np.eye(3) + spread * rng.standard_normal((3, 3))
        if np.linalg.det(F) > 0.1:
            return F


def test_density_at_identity():
    model = st.EnergyModel(r=4, s=2, scale1=1.0)
    assert st.bulk_density(np.eye(3), 1, model) == pytest.approx(
        9.0 + 3.0**4.5 + 1.0, rel=1e-14)


def test_density_infeasible_sentinel():
    model = st.EnergyModel()
    F = np.diag([-1.0, 1.0, 1.0])
    assert st.bulk_density(F, 0, model) == INFEASIBLE
    assert st.bulk_density(np.zeros((3, 3)), 1, model) == INFEASIBLE


def test_density_at_two_identity():
    model = st.EnergyModel(r=4, s=2)
    expected = 144.0 + 81.0 * math.sqrt(3.0) + 1.0 / 64.0
    assert st.bulk_density(2.0 * np.eye(3), 1, model) == pytest.approx(
        expected, rel=1e-14)


def test_density_is_polyconvex_composition():
    # the density only sees F through (|F|, det F), i.e. through minors
    model = st.EnergyModel(r=4.5, s=1.5, scale1=2.0)

    def h(F, cof, det):
        if det <= 0:
            return INFEASIBLE
        n = np.sqrt(np.sum(F * F))
        return model.scale1 * (n**model.r + (n**3 / det) ** (model.r - 1)
                               + det ** (-model.s))

    rng = np.random.default_rng(0)
    for _ in range(100):
        F = random_feasible_F(rng)
        assert st.bulk_density(F, 1, model) == h(*st.minors(F))


def test_density_equals_coercivity_bound():
    # the model density *is* its own coercivity right-hand side
    model = st.EnergyModel(r=4, s=2, scale0=0.7, scale1=1.3)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        F = random_feasible_F(rng)
        _, _, det = st.minors(F)
        n = np.sqrt(np.sum(F * F))
        bound = n**4 + st.distortion(F) ** 3 + det**-2
        for phase in (0, 1):
            w = st.bulk_density(F, phase, model)
            assert w == pytest.approx(model.scale(phase) * bound, rel=1e-12)


def test_density_blows_up_as_det_vanishes():
    model = st.EnergyModel()
    values = [st.bulk_density(np.diag([eps, 1.0, 1.0]), 1, model)
              for eps in (0.5, 0.1, 0.02, 0.004)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_density_rotation_invariance():
    model = st.EnergyModel(r=3.7, s=1.1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        F = random_feasible_F(rng)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        assert st.bulk_density(q @ F, 1, model) == pytest.approx(
            st.bulk_density(F, 1, model), rel=1e-10)


def fd_stress(F, phase, model, h=None):
    if h is None:
        h = 1e-5 * np.sqrt(np.sum(F * F))
    P = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            Fp, Fm = F.copy(), F.copy()
            Fp[i, j] += h
            Fm[i, j] -= h
            P[i, j] = (st.bulk_density(Fp, phase, model)
                       - st.bulk_density(Fm, phase, model)) / (2 * h)
    return P


def test_stress_matches_finite_differences():
    model = st.EnergyModel(r=4, s=2, scale0=0.5)
    rng = np.random.default_rng(3)
    for _ in range(100):
        F = random_feasible_F(rng)
        P = st.bulk_stress(F, 0, model)
        ref = fd_stress(F, 0, model)
        assert np.max(np.abs(P - ref)) < 1e-6 * max(1.0, np.max(np.abs(ref)))


def test_stress_at_identity_isotropic():
    model = st.EnergyModel(r=4, s=2)
    P = st.bulk_stress(np.eye(3), 1, model)
    lam = P[0, 0]
    np.testing.assert_allclose(P, lam * np.eye(3), atol=1e-12)
    assert lam == pytest.approx(fd_stress(np.eye(3), 1, model)[0, 0],
                                rel=1e-6)


def test_stress_linear_in_scale():
    rng = np.random.default_rng(4)
    F = random_feasible_F(rng)
    m1 = st.EnergyModel(scale1=1.0)
    m2 = st.EnergyModel(scale1=2.0)
    np.testing.assert_allclose(st.bulk_stress(F, 1, m2),
                               2.0 * st.bulk_stress(F, 1, m1), rtol=1e-14)


def test_stress_free_normalization():
    r = 4.0
    model = st.EnergyModel(r=r, s=stress_free_s(r))
    P = st.bulk_stress(np.eye(3), 1, model)
    assert np.max(np.abs(P)) < 1e-12


def test_bulk_energy_identity_uniform(small_mesh, uniform_phase1):
    model = st.EnergyModel(r=4, s=2, scale1=1.0)
    phases = uniform_phase1(small_mesh)
    state = st.identity_state(small_mesh)
    expected = (10.0 + 3.0**4.5) * small_mesh.total_volume()
    assert st.bulk_energy(small_mesh, state, phases, model) == pytest.approx(
        expected, rel=1e-12)


def test_bulk_energy_phase_symmetry(small_mesh):
    model = st.EnergyModel(scale0=1.0, scale1=1.0)
    state = st.identity_state(small_mesh)
    all0 = st.PhaseLabeling(np.zeros(small_mesh.n_tets, np.int8))
    all1 = st.PhaseLabeling(np.ones(small_mesh.n_tets, np.int8))
    assert st.bulk_energy(small_mesh, state, all0, model) == pytest.approx(
        st.bulk_energy(small_mesh, state, all1, model), rel=1e-14)


def test_bulk_energy_inverted_tet_infeasible(small_mesh, uniform_phase1):
    model = st.EnergyModel()
    pos = np.array(small_mesh.vertices)
    tet = small_mesh.tets[0]
    # collapse one tet through its opposite face
    pos[tet[0]] = pos[tet[1:]].mean(axis=0) * 2 - pos[tet[0]] * 3
    state = st.identity_state(small_mesh).with_positions(pos)
    assert st.bulk_energy(small_mesh, state, uniform_phase1(small_mesh),
                          model) == INFEASIBLE


def test_interface_density_values():
    model = st.EnergyModel(c_int=1.0, p=2.0)
    assert st.interface_density(0.0, model) == pytest.approx(1.0)
    assert st.interface_density(3.0, model) == pytest.approx(10.0)
    grid = np.linspace(0, 5, 101)
    vals = st.interface_density(grid, model)
    diffs = np.diff(vals)
    assert np.all(diffs > 0)            # monotone
    assert np.all(np.diff(diffs) > -1e-12)  # convex


def test_load_potential_zero_loads(small_mesh, uniform_phase1):
    model = st.EnergyModel()
    state = st.identity_state(small_mesh)
    assert st.load_potential(small_mesh, state, uniform_phase1(small_mesh),
                             model) == 0.0


def test_load_potential_gravity(small_mesh, uniform_phase1):
    model = st.EnergyModel(f=[0.0, 0.0, -1.0])
    state = st.identity_state(small_mesh)
    val = st.load_potential(small_mesh, state, uniform_phase1(small_mesh),
                            model)
    assert val == pytest.approx(-0.5, rel=1e-12)


def test_load_potential_traction_linearity(clamped_mesh, uniform_phase1):
    phases = uniform_phase1(clamped_mesh)
    state = st.identity_state(clamped_mesh)
    g = np.array([0.1, -0.2, 0.3])
    v1 = st.load_potential(clamped_mesh, state, phases,
                           st.EnergyModel(g=g))
    v2 = st.load_potential(clamped_mesh, state, phases,
                           st.EnergyModel(g=2 * g))
    assert v2 == pytest.approx(2 * v1, rel=1e-13)


def test_gradient_scatter_matches_add_at(clamped_mesh):
    """bincount assembly equals the per-corner np.add.at sums bit for bit."""
    mesh = clamped_mesh
    model = st.EnergyModel(r=4.5, s=1.5, scale0=0.3, scale1=2.0,
                           f=[0.3, 0.1, -0.4], g=[0.2, -0.1, 0.7])
    phases = st.PhaseLabeling(np.arange(mesh.n_tets) % 2)
    state = random_feasible_state(mesh, seed=4)
    F, cof, det = st.minors(st.deformation_gradients(mesh, state.positions))
    r, s = model.r, model.s
    norm = np.sqrt(np.sum(F * F, axis=(-2, -1)))[:, None, None]
    det = det[:, None, None]
    P = r * norm ** (r - 2.0) * F
    P += (r - 1.0) * (norm**3 / det) ** (r - 2.0) * (
        3.0 * norm / det * F - norm**3 / det**2 * cof)
    P += -s * det ** (-s - 1.0) * cof
    labels = np.asarray(phases.labels, float)
    P *= (mesh.volumes * (model.scale0 * (1.0 - labels)
                          + model.scale1 * labels))[:, None, None]
    corner = P @ np.transpose(mesh.ref_inv, (0, 2, 1))
    ref = np.zeros_like(state.positions)
    for c in range(3):
        np.add.at(ref, mesh.tets[:, c + 1], corner[:, :, c])
    np.add.at(ref, mesh.tets[:, 0], -corner.sum(axis=2))
    ref[state.dirichlet_mask] = 0.0
    assert np.array_equal(bulk_energy_gradient(mesh, state, phases, model),
                          ref)

    faces = mesh.boundary_faces[mesh.boundary_tags == "NEUMANN"]
    v = mesh.vertices[faces]
    areas = 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0],
                                          v[:, 2] - v[:, 0]), axis=1)
    ref = np.zeros_like(state.positions)
    for c in range(4):
        np.add.at(ref, mesh.tets[:, c],
                  (mesh.volumes * labels)[:, None] * model.f / 4.0)
    for c in range(3):
        np.add.at(ref, faces[:, c], areas[:, None] * model.g / 3.0)
    ref[state.dirichlet_mask] = 0.0
    assert np.array_equal(load_potential_gradient(mesh, state, phases, model),
                          ref)


def test_bulk_terms_equal_per_tet_sums(clamped_mesh):
    """The batched energy and gradient are per-tet sums of the scalar W, P."""
    mesh = clamped_mesh
    model = st.EnergyModel(r=4.5, s=1.5, scale0=0.3, scale1=2.0)
    phases = st.PhaseLabeling(np.arange(mesh.n_tets) % 2)
    state = random_feasible_state(mesh, seed=5)
    energy = 0.0
    grad = np.zeros_like(state.positions)
    for t in range(mesh.n_tets):
        F = st.deformation_gradient(mesh, state, t)
        label = int(phases.labels[t])
        energy += mesh.volumes[t] * st.bulk_density(F, label, model)
        P = mesh.volumes[t] * st.bulk_stress(F, label, model)
        corner = P @ mesh.ref_inv[t].T      # column i: force on corner i+1
        grad[mesh.tets[t, 1:]] += corner.T
        grad[mesh.tets[t, 0]] -= corner.sum(axis=1)
    grad[state.dirichlet_mask] = 0.0
    assert st.bulk_energy(mesh, state, phases, model) == pytest.approx(
        energy, rel=1e-12)
    batched = bulk_energy_gradient(mesh, state, phases, model)
    assert np.max(np.abs(batched - grad)) <= 1e-12 * np.max(np.abs(grad))


def full_load_terms(mesh, state, phases, model):
    """load_potential and its gradient with the body term always formed."""
    labels = np.asarray(phases.labels, float)
    f = np.broadcast_to(model.f, (mesh.n_tets, 3))
    ybar = state.positions[mesh.tets].mean(axis=1)
    body = float(np.sum(mesh.volumes * labels * np.sum(f * ybar, axis=1)))
    faces = mesh.boundary_faces[mesh.neumann_index]
    g = np.broadcast_to(model.g, (len(faces), 3))
    fbar = state.positions[faces].mean(axis=1)
    surface = float(np.sum(mesh.neumann_areas * np.sum(g * fbar, axis=1)))
    weights = np.concatenate([
        np.tile(((mesh.volumes * labels)[:, None] * f / 4.0).ravel(), 4),
        np.tile((mesh.neumann_areas[:, None] * g / 3.0).ravel(), 3)])
    grad = np.bincount(mesh.load_scatter_index, weights,
                       minlength=3 * mesh.n_vertices).reshape(-1, 3)
    grad[state.dirichlet_mask] = 0.0
    return body + surface, grad


@pytest.mark.parametrize("f", [[0.0, 0.0, 0.0], [0.0, -0.0, 0.0],
                               [0.3, 0.0, -0.4]])
@pytest.mark.parametrize("g", [[0.0, 0.0, 0.0], [0.2, -0.1, 0.7]])
def test_load_terms_equal_full_formula(clamped_mesh, f, g):
    """Skipping a zero body force changes no bit, sign bits included;
    f != 0 keeps the body term."""
    mesh = clamped_mesh
    model = st.EnergyModel(f=f, g=g)
    phases = st.PhaseLabeling(np.arange(mesh.n_tets) % 2)
    state = random_feasible_state(mesh, seed=5)
    state = state.with_positions(state.positions - 0.5)  # signs of both kinds
    potential, grad = full_load_terms(mesh, state, phases, model)
    got = st.load_potential(mesh, state, phases, model)
    assert np.float64(got).view(np.int64) == np.float64(potential).view(
        np.int64)
    got = load_potential_gradient(mesh, state, phases, model)
    assert np.array_equal(got.view(np.int64), grad.view(np.int64))


def test_total_energy_uniform_phase(small_mesh, uniform_phase1):
    model = st.EnergyModel(r=4, s=2)
    state = st.identity_state(small_mesh)
    total = st.total_energy(small_mesh, state, uniform_phase1(small_mesh),
                            model)
    assert total == pytest.approx((10.0 + 3.0**4.5), rel=1e-12)


def test_total_energy_halfspace_split(small_mesh):
    from sharptop.surfaces import halfspace_labels
    model = st.EnergyModel(r=4, s=2, scale0=1.0, scale1=1.0, c_int=1.0)
    state = st.identity_state(small_mesh)
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    total = st.total_energy(small_mesh, state, phases, model)
    # flat midplane: bulk + c_int * interface area, curvature zero
    assert total == pytest.approx(10.0 + 3.0**4.5 + 1.0, rel=1e-12)


def test_total_energy_dominates_interface_mass(small_mesh):
    from sharptop.surfaces import halfspace_labels
    model = st.EnergyModel()
    state = st.identity_state(small_mesh)
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    V = st.extract_interface(small_mesh, state, phases)
    total = st.total_energy(small_mesh, state, phases, model)
    assert total >= model.c_int * st.varifold_mass(V)


def test_model_invariants():
    with pytest.raises(ValueError):
        st.EnergyModel(r=3.0)
    with pytest.raises(ValueError):
        st.EnergyModel(s=-1.0)
    with pytest.raises(ValueError):
        st.EnergyModel(p=1.0)
    with pytest.raises(ValueError):
        st.EnergyModel(eta=1.0)
    with pytest.raises(ValueError):
        st.EnergyModel(scale0=0.0)
    with pytest.raises(ValueError, match="g must be a finite 3-vector"):
        st.EnergyModel(g=[0.0, 0.0, np.inf])
    with pytest.raises(ValueError, match="f must be a finite 3-vector"):
        st.EnergyModel(f=np.zeros((4, 3)))
