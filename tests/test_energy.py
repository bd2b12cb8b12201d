import math

from hypothesis import assume, given, settings, strategies as hs
import numpy as np
import pytest

import sharptop as st
from sharptop.energy import (INFEASIBLE, Bulk, bulk_energy_gradient,
                             identity_stiffness, identity_tangent,
                             load_potential_gradient, stress_free_s)

from conftest import (brute_force_corner_scatter,
                      brute_force_deformation_gradients, decimal_stress,
                      density_oracle, jittered_box_mesh, kernel_stress_oracle,
                      random_feasible_state, stress_oracle)


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


@pytest.mark.parametrize("r, s", [(3.1, 0.7), (3.5, stress_free_s(3.5)),
                                  (4.0, stress_free_s(4.0)), (4.0, 5.0),
                                  (4.5, 2.0), (6.0, stress_free_s(6.0))])
def test_identity_stiffness_matches_finite_differences(r, s):
    """c = tr(d^2 W / dF^2 (I)) / 9 in closed form against nine central
    differences of the stress at I, stress-free or not."""
    model, h = st.EnergyModel(r=r, s=s), 1e-5
    trace = 0.0
    for i in range(3):
        for j in range(3):
            E = np.zeros((3, 3))
            E[i, j] = h
            plus = Bulk(st.minors(np.eye(3) + E), 1.0, model).stress()
            minus = Bulk(st.minors(np.eye(3) - E), 1.0, model).stress()
            trace += (plus[i, j] - minus[i, j]) / (2 * h)
    assert identity_stiffness(r, s) == pytest.approx(trace / 9, rel=1e-7)
    assert identity_stiffness(r, s) > 0


@pytest.mark.parametrize("r, s", [(3.1, 0.7), (3.5, stress_free_s(3.5)),
                                  (4.0, stress_free_s(4.0)), (4.0, 5.0),
                                  (4.5, 2.0), (6.0, stress_free_s(6.0))])
def test_identity_tangent_matches_finite_differences(r, s):
    """d^2 W / dF_ij dF_kl (I) = a d_ik d_jl + b d_ij d_kl + d d_il d_jk
    in closed form against central differences of the stress at I,
    stress-free or not; c = a + (b + d) / 3, and linear elasticity with
    2 mu = a + d and lambda = b has 2 mu > 0 and 2 mu + 3 lambda > 0."""
    model, h = st.EnergyModel(r=r, s=s), 1e-5
    a, b, d = identity_tangent(r, s)
    I = np.eye(3)
    for i in range(3):
        for j in range(3):
            E = np.zeros((3, 3))
            E[i, j] = h
            plus = Bulk(st.minors(I + E), 1.0, model).stress()
            minus = Bulk(st.minors(I - E), 1.0, model).stress()
            want = (a * np.outer(I[i], I[j]) + b * (i == j) * I
                    + d * np.outer(I[j], I[i]))
            np.testing.assert_allclose((plus - minus) / (2 * h), want,
                                       rtol=0, atol=1e-7 * abs(a))
    assert a + (b + d) / 3 == pytest.approx(identity_stiffness(r, s),
                                            rel=1e-12)
    assert a + d > 0
    assert a + d + 3 * b == pytest.approx(
        r * (r - 1) * 3 ** (r / 2 - 1) + s + 3 * s**2, rel=1e-12)
    assert a + d + 3 * b > 0
    assert (a == pytest.approx(d, rel=1e-12)) == (s == stress_free_s(r))


def test_identity_stiffness_value():
    assert identity_stiffness(4.0, stress_free_s(4.0)) == pytest.approx(
        534.3203847, rel=1e-9)


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


@settings(max_examples=40)
@given(entries=hs.lists(hs.floats(-0.6, 0.6), min_size=18, max_size=54),
       labels=hs.lists(hs.integers(0, 1), min_size=6, max_size=6),
       r=hs.sampled_from([4.0, 4.5]))
def test_bulk_kernel_matches_oracles(entries, labels, r):
    """One batched Bulk over 2-6 gradients with det F > 0 in both phases
    gives sum w W and the stresses w (a F + b Cof F) of bulk_density, of
    the term-by-term derivative and of 50-digit central differences, to
    1e-12; so does bulk_stress."""
    Fs = np.eye(3) + np.reshape(entries[:len(entries) // 9 * 9], (-1, 3, 3))
    assume((np.linalg.det(Fs) > 0.05).all())
    model = st.EnergyModel(r=r, s=1.5, scale0=0.3, scale1=2.0)
    phases = labels[:len(Fs)]
    weights = np.array([model.scale(p) for p in phases])
    _, cof, det = st.minors(Fs)
    bulk = Bulk((np.ascontiguousarray(Fs.transpose(1, 2, 0)),
                 np.ascontiguousarray(cof.transpose(1, 2, 0)), det),
                weights, model)
    densities = [st.bulk_density(F, p, model) for F, p in zip(Fs, phases)]
    assert bulk.energy == pytest.approx(sum(densities), rel=1e-12)
    P = bulk.stress()
    for k, (F, p) in enumerate(zip(Fs, phases)):
        ref = decimal_stress(F, model.scale(p), model)
        term_by_term = model.scale(p) * stress_oracle(
            F, cof[k], np.sqrt(np.sum(F * F)), det[k], model)
        for got in (P[:, :, k], st.bulk_stress(F, p, model), term_by_term):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    norm2 = np.sum(np.ascontiguousarray(F * F), axis=(-2, -1))
    labels = np.asarray(phases.labels, float)
    P = kernel_stress_oracle(F, cof, norm2, det, mesh.volumes * (
        model.scale0 * (1.0 - labels) + model.scale1 * labels), model)
    corner = P @ np.transpose(mesh.ref_inv, (0, 2, 1))
    ref = np.zeros_like(state.positions)
    for c in range(3):
        np.add.at(ref, mesh.tets[:, c + 1], corner[:, :, c])
    np.add.at(ref, mesh.tets[:, 0], -corner.sum(axis=2))
    ref[state.dirichlet_mask] = 0.0
    assert np.array_equal(bulk_energy_gradient(mesh, state, phases, model),
                          ref)

    # the load vector: per-vertex weights summed element by element,
    # corner by corner within an element, then one product per load; on
    # a jittered mesh, so that the order of each sum shows
    mesh = jittered_box_mesh((3, 2, 2), np.random.default_rng(4), 0.1)
    phases = st.PhaseLabeling(np.arange(mesh.n_tets) % 2)
    labels = np.asarray(phases.labels, float)
    state = random_feasible_state(mesh, seed=4)
    faces = mesh.boundary_faces[mesh.boundary_tags == "NEUMANN"]
    v = mesh.vertices[faces]
    areas = 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0],
                                          v[:, 2] - v[:, 0]), axis=1)
    t = np.zeros(mesh.n_vertices)
    np.add.at(t, faces.ravel(), np.repeat(areas / 3.0, 3))
    w = np.zeros(mesh.n_vertices)
    np.add.at(w, mesh.tets.ravel(), np.repeat(mesh.volumes * labels / 4.0, 4))
    ref = np.zeros_like(state.positions)
    ref += t[:, None] * model.g
    ref += w[:, None] * model.f
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
    F_all = st.deformation_gradients(mesh, state.positions)
    for t in range(mesh.n_tets):
        F = F_all[t]
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


# The Python-float oracles brute_force_deformation_gradients and
# brute_force_corner_scatter never fuse a multiply-add, so this is the test
# that catches a NumPy build whose einsum or ufunc loops do.
@settings(max_examples=30)
@given(dims=hs.tuples(*[hs.integers(1, 5)] * 3),
       seed=hs.integers(0, 2**32 - 1))
def test_bulk_kernels_match_python_float_oracle(dims, seed):
    """F, the energy and the gradient equal the per-tet Python-float sums
    in the documented order bit for bit, and the stacked-matmul formulas
    they replaced to 1e-12, on jittered meshes with two phases."""
    rng = np.random.default_rng(seed)
    mesh = jittered_box_mesh(dims, rng, 0.05)
    h = 1.0 / max(dims)
    state = st.identity_state(mesh)
    positions = state.positions + 0.02 * h * rng.uniform(
        -1, 1, state.positions.shape)
    positions[state.dirichlet_mask] = mesh.vertices[state.dirichlet_mask]
    state = state.with_positions(positions)
    phases = st.PhaseLabeling(rng.integers(0, 2, mesh.n_tets))
    model = st.EnergyModel(r=4.5, s=1.5, scale0=0.3, scale1=2.0)

    F = st.deformation_gradients(mesh, positions)
    assert np.moveaxis(F, 0, -1).flags.c_contiguous
    assert np.moveaxis(mesh.ref_inv, 0, -1).flags.c_contiguous
    F_oracle, norm2 = brute_force_deformation_gradients(mesh, positions)
    assert np.array_equal(F, F_oracle)
    _, cof, det = st.minors(F_oracle)
    labels = phases.labels.astype(float)
    weight = mesh.volumes * (model.scale0 * (1.0 - labels)
                             + model.scale1 * labels)
    energy = st.bulk_energy(mesh, state, phases, model)
    norm = np.sqrt(norm2)
    assert energy == float(np.sum(weight * density_oracle(norm, det, model)))
    P = kernel_stress_oracle(F_oracle, cof, norm2, det, weight, model)
    grad = bulk_energy_gradient(mesh, state, phases, model)
    assert np.array_equal(
        grad, brute_force_corner_scatter(mesh, P, state.dirichlet_mask))

    x = positions[mesh.tets]
    G = np.ascontiguousarray(mesh.ref_inv)
    F_old = np.transpose(x[:, 1:] - x[:, :1], (0, 2, 1)) @ G
    assert np.max(np.abs(F - F_old)) <= 1e-12 * np.max(np.abs(F_old))
    F_old, cof, det = st.minors(F_old)
    norm = np.sqrt(np.sum(F_old * F_old, axis=(-2, -1)))
    assert energy == pytest.approx(
        float(np.sum(weight * density_oracle(norm, det, model))), rel=1e-12)
    P = stress_oracle(F_old, cof, norm[:, None, None], det[:, None, None],
                      model)
    corner = (P * weight[:, None, None]) @ np.transpose(G, (0, 2, 1))
    grad_old = np.zeros_like(positions)
    for c in range(3):
        np.add.at(grad_old, mesh.tets[:, c + 1], corner[:, :, c])
    np.add.at(grad_old, mesh.tets[:, 0], -corner.sum(axis=2))
    grad_old[state.dirichlet_mask] = 0.0
    assert np.max(np.abs(grad - grad_old)) <= 1e-12 * np.max(np.abs(grad_old))


def full_load_terms(mesh, state, phases, model):
    """load_potential and its gradient with the body term always formed."""
    labels = np.asarray(phases.labels, float)
    w = np.bincount(mesh.tets.ravel(),
                    np.repeat(mesh.volumes * labels / 4.0, 4),
                    minlength=mesh.n_vertices)
    b = np.zeros((mesh.n_vertices, 3))
    b += mesh.traction_weights[:, None] * model.g
    b += w[:, None] * model.f
    potential = float(np.sum(b * state.positions))
    b[state.dirichlet_mask] = 0.0
    return potential, b


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


def corner_mean_load_terms(mesh, state, phases, model):
    """The load work as sums of element-centroid values, and its gradient
    as per-corner shares of each element's load."""
    labels = np.asarray(phases.labels, float)
    faces = mesh.boundary_faces[mesh.boundary_tags == "NEUMANN"]
    v = mesh.vertices[faces]
    areas = 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0],
                                          v[:, 2] - v[:, 0]), axis=1)
    ybar = state.positions[mesh.tets].mean(axis=1)
    fbar = state.positions[faces].mean(axis=1)
    potential = (np.sum(mesh.volumes * labels * (ybar @ model.f))
                 + np.sum(areas * (fbar @ model.g)))
    grad = np.zeros_like(state.positions)
    for c in range(4):
        np.add.at(grad, mesh.tets[:, c],
                  (mesh.volumes * labels)[:, None] * model.f / 4.0)
    for c in range(3):
        np.add.at(grad, faces[:, c], areas[:, None] * model.g / 3.0)
    grad[state.dirichlet_mask] = 0.0
    return potential, grad


@settings(max_examples=20)
@given(dims=hs.tuples(*[hs.integers(1, 4)] * 3),
       seed=hs.integers(0, 2**32 - 1))
def test_load_terms_match_corner_means(dims, seed):
    """The nodal load vector gives the corner-mean load work and its
    per-corner gradient to 1e-12 on jittered two-phase meshes."""
    rng = np.random.default_rng(seed)
    mesh = jittered_box_mesh(dims, rng, 0.05)
    state = random_feasible_state(mesh, seed=seed)
    phases = st.PhaseLabeling(rng.integers(0, 2, mesh.n_tets))
    model = st.EnergyModel(f=[0.3, 0.1, 0.4], g=[0.2, -0.1, 0.7])
    potential, grad = corner_mean_load_terms(mesh, state, phases, model)
    assert st.load_potential(mesh, state, phases, model) == pytest.approx(
        potential, rel=1e-12)
    got = load_potential_gradient(mesh, state, phases, model)
    assert np.max(np.abs(got - grad)) <= 1e-12 * np.max(np.abs(grad))


def test_load_potential_is_its_gradient_times_y():
    """With no Dirichlet vertex the load work is sum(gradient * y) bit
    for bit: one load vector serves both."""
    rng = np.random.default_rng(8)
    mesh = st.build_box_mesh(3, 2, 2, tagging=lambda c: (
        "NEUMANN" if c[2] > 1.0 - 1e-9 else "FREE"))
    state = random_feasible_state(mesh, scale=0.05, seed=8)
    assert not state.dirichlet_mask.any()
    phases = st.PhaseLabeling(rng.integers(0, 2, mesh.n_tets))
    model = st.EnergyModel(f=[0.3, -0.2, 0.45], g=[0.2, -0.1, 0.7])
    grad = load_potential_gradient(mesh, state, phases, model)
    assert st.load_potential(mesh, state, phases, model) == float(
        np.sum(grad * state.positions))


def total_energy(mesh, state, phases, model):
    """E = bulk energy + interface energy of the extracted interface."""
    return st.bulk_energy(mesh, state, phases, model) + st.interface_energy(
        st.extract_interface(mesh, state, phases), model)


def test_total_energy_uniform_phase(small_mesh, uniform_phase1):
    model = st.EnergyModel(r=4, s=2)
    state = st.identity_state(small_mesh)
    total = total_energy(small_mesh, state, uniform_phase1(small_mesh),
                         model)
    assert total == pytest.approx((10.0 + 3.0**4.5), rel=1e-12)


def test_total_energy_halfspace_split(small_mesh):
    from sharptop.surfaces import halfspace_labels
    model = st.EnergyModel(r=4, s=2, scale0=1.0, scale1=1.0, c_int=1.0)
    state = st.identity_state(small_mesh)
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    total = total_energy(small_mesh, state, phases, model)
    # flat midplane: bulk + c_int * interface area, curvature zero
    assert total == pytest.approx(10.0 + 3.0**4.5 + 1.0, rel=1e-12)


def test_total_energy_dominates_interface_mass(small_mesh):
    from sharptop.surfaces import halfspace_labels
    model = st.EnergyModel()
    state = st.identity_state(small_mesh)
    phases = halfspace_labels(small_mesh, axis=0, threshold=0.5)
    V = st.extract_interface(small_mesh, state, phases)
    total = total_energy(small_mesh, state, phases, model)
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
