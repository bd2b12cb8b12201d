import numpy as np
import pytest

import sharptop as st
import sharptop.solve
from sharptop.energy import stress_free_s
from sharptop.kinematics import deformation_minors
from sharptop.solve import (DET_FLOOR, SolveOptions, equilibrium_gradient,
                            equilibrium_objective)

from conftest import random_feasible_state


def fd_gradient(mesh, state, phases, model, h=1e-6):
    g = np.zeros_like(state.positions)
    base = state.positions
    for i in range(mesh.n_vertices):
        if state.dirichlet_mask[i]:
            continue
        for d in range(3):
            plus, minus = np.array(base), np.array(base)
            plus[i, d] += h
            minus[i, d] -= h
            g[i, d] = (equilibrium_objective(mesh, state.with_positions(plus),
                                             phases, model)
                       - equilibrium_objective(mesh,
                                               state.with_positions(minus),
                                               phases, model)) / (2 * h)
    return g


def test_gradient_matches_finite_differences(clamped_mesh, uniform_phase1):
    model = st.EnergyModel(g=[0.0, 0.0, 0.3], f=[0.0, 0.0, -0.1])
    phases = uniform_phase1(clamped_mesh)
    for seed in (0, 1, 2):
        state = random_feasible_state(clamped_mesh, seed=seed)
        g = equilibrium_gradient(clamped_mesh, state, phases, model)
        ref = fd_gradient(clamped_mesh, state, phases, model)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(g - ref)) < 1e-5 * scale


def test_gradient_dirichlet_rows_zero(clamped_mesh, uniform_phase1):
    model = st.EnergyModel(g=[0.1, 0.0, 0.3])
    state = random_feasible_state(clamped_mesh, seed=3)
    g = equilibrium_gradient(clamped_mesh, state, uniform_phase1(clamped_mesh),
                             model)
    assert np.all(g[state.dirichlet_mask] == 0.0)


def test_identity_is_equilibrium_for_uniform_all_dirichlet(uniform_phase1):
    # spatially constant stress with every boundary vertex pinned: the
    # interior gradient of the bulk energy vanishes at the identity
    mesh = st.build_box_mesh(3, 3, 3, tagging=lambda c: "DIRICHLET")
    model = st.EnergyModel(r=4, s=2)
    state = st.identity_state(mesh)
    g = equilibrium_gradient(mesh, state, uniform_phase1(mesh), model)
    assert np.max(np.abs(g)) < 1e-10


def test_stress_free_model_converges_immediately(uniform_phase1):
    mesh = st.build_box_mesh(2, 2, 2, tagging=lambda c: "DIRICHLET")
    model = st.EnergyModel(r=4, s=stress_free_s(4))
    state0 = st.identity_state(mesh)
    state, report = st.minimize_equilibrium(mesh, state0,
                                            uniform_phase1(mesh), model)
    assert report.converged
    assert report.iterations == 0
    np.testing.assert_array_equal(state.positions, state0.positions)


def test_zero_iteration_solve_builds_minors_once(uniform_phase1,
                                                  monkeypatch):
    # the det floor is absolute: no F is built at the reference positions
    calls = []

    def counting(mesh, positions):
        calls.append(positions)
        return deformation_minors(mesh, positions)

    monkeypatch.setattr(sharptop.solve, "deformation_minors", counting)
    mesh = st.build_box_mesh(2, 2, 2, tagging=lambda c: "DIRICHLET")
    model = st.EnergyModel(r=4, s=stress_free_s(4))
    _, report = st.minimize_equilibrium(mesh, st.identity_state(mesh),
                                        uniform_phase1(mesh), model)
    assert report.iterations == 0
    assert len(calls) == 1


def test_solver_converges_and_decreases(clamped_mesh, uniform_phase1):
    model = st.EnergyModel(r=4, s=stress_free_s(4), g=[0.0, 0.0, 2.0])
    phases = uniform_phase1(clamped_mesh)
    opts = SolveOptions(gradient_tolerance=1e-5, max_iterations=400)
    state, report = st.minimize_equilibrium(
        clamped_mesh, st.identity_state(clamped_mesh), phases, model, opts)
    assert report.converged, report.message
    assert report.grad_norm <= 1e-5
    objs = [row[1] for row in report.history]
    start = equilibrium_objective(clamped_mesh,
                                  st.identity_state(clamped_mesh), phases,
                                  model)
    assert all(b < a for a, b in zip([start] + objs, objs))
    # pulled upward: the top moved up
    assert state.positions[:, 2].max() > 1.0


def test_solver_preserves_dirichlet_bit_exactly(clamped_mesh,
                                                uniform_phase1):
    model = st.EnergyModel(g=[0.3, 0.0, 1.0])
    state0 = st.identity_state(clamped_mesh)
    opts = SolveOptions(gradient_tolerance=1e-4, max_iterations=200)
    state, _ = st.minimize_equilibrium(clamped_mesh, state0,
                                       uniform_phase1(clamped_mesh), model,
                                       opts)
    mask = state0.dirichlet_mask
    np.testing.assert_array_equal(state.positions[mask],
                                  state0.positions[mask])


def test_solver_never_returns_inverted_state(clamped_mesh, uniform_phase1):
    # strong compression exercises the det guard
    model = st.EnergyModel(r=4, s=stress_free_s(4), g=[0.0, 0.0, -6.0])
    opts = SolveOptions(gradient_tolerance=1e-4, max_iterations=150)
    state, report = st.minimize_equilibrium(
        clamped_mesh, st.identity_state(clamped_mesh),
        uniform_phase1(clamped_mesh), model, opts)
    assert report.min_det > 0.0
    dets = [row[3] for row in report.history]
    assert min(dets) > 0.0


def test_solver_rejects_infeasible_start(clamped_mesh, uniform_phase1):
    pos = np.array(clamped_mesh.vertices)
    pos[:, 0] *= -1.0
    state0 = st.identity_state(clamped_mesh).with_positions(pos)
    with pytest.raises(ValueError, match="infeasible"):
        st.minimize_equilibrium(clamped_mesh, state0,
                                uniform_phase1(clamped_mesh),
                                st.EnergyModel())


def test_solver_rejects_start_below_det_floor(small_mesh, uniform_phase1):
    # a uniform shrink by 0.005 gives det F = 1.25e-7 in every tet: finite
    # energy, but below the absolute floor DET_FLOOR = 1e-6
    state0 = st.identity_state(small_mesh).with_positions(
        0.005 * small_mesh.vertices)
    det = st.minors(st.deformation_gradients(small_mesh,
                                             state0.positions))[2]
    assert 0.0 < det.max() <= DET_FLOOR
    phases, model = uniform_phase1(small_mesh), st.EnergyModel()
    assert np.isfinite(equilibrium_objective(small_mesh, state0, phases,
                                             model))
    with pytest.raises(ValueError, match="infeasible"):
        st.minimize_equilibrium(small_mesh, state0, phases, model)


def test_solver_deterministic(clamped_mesh, uniform_phase1):
    model = st.EnergyModel(g=[0.0, 0.1, 0.8])
    opts = SolveOptions(gradient_tolerance=1e-4, max_iterations=100, seed=11)
    runs = []
    for _ in range(2):
        state, report = st.minimize_equilibrium(
            clamped_mesh, st.identity_state(clamped_mesh),
            uniform_phase1(clamped_mesh), model, opts)
        runs.append((state.positions.copy(), tuple(map(tuple,
                                                       report.history))))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(max_iterations=0)
    with pytest.raises(ValueError):
        SolveOptions(gradient_tolerance=0.0)
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="max_iterations"):
            SolveOptions(max_iterations=bad)
    assert SolveOptions(max_iterations=np.int64(3)).max_iterations == 3
