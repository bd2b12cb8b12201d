import numpy as np
import pytest

import sharptop as st
import sharptop.energy
import sharptop.laplacian
import sharptop.solve
from sharptop.energy import bulk_weights, stress_free_s
from sharptop.kinematics import boundary_self_intersects, deformation_minors
from sharptop.laplacian import LaplacianFactor
from sharptop.solve import (DET_FLOOR, Preconditioner, SolveOptions,
                            _descend, equilibrium_gradient,
                            equilibrium_objective)

from conftest import clamp_bottom_pull_top, random_feasible_state


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


def test_factor_is_built_once_and_only_when_a_step_is_taken(
        uniform_phase1, monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return LaplacianFactor(*args)

    monkeypatch.setattr(sharptop.solve, "LaplacianFactor", counting)
    mesh = st.build_box_mesh(2, 2, 2, tagging=lambda c: "DIRICHLET")
    _, report = st.minimize_equilibrium(
        mesh, st.identity_state(mesh), uniform_phase1(mesh),
        st.EnergyModel(r=4, s=stress_free_s(4)))
    assert report.iterations == 0 and built == []
    mesh = st.build_box_mesh(2, 2, 2, tagging=clamp_bottom_pull_top)
    _, report = st.minimize_equilibrium(
        mesh, st.identity_state(mesh), uniform_phase1(mesh),
        st.EnergyModel(g=[0.0, 0.0, 1.0]))
    assert report.iterations > 1 and len(built) == 1


def test_solve_hoists_constants_and_counts_kernel_calls(uniform_phase1,
                                                         monkeypatch):
    """The weights and the load vector are built once per solve; F and
    its minors and the objective once per trial point, the gradient once
    per accepted point."""
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module in (sharptop.solve, sharptop.energy):
        counting(module, "bulk_weights")
        counting(module, "load_vector")
    for name in ("deformation_minors", "equilibrium_objective",
                 "equilibrium_gradient"):
        counting(sharptop.solve, name)
    # a shear load large enough that some full steps fail the Armijo test
    mesh = st.build_box_mesh(3, 3, 3, tagging=clamp_bottom_pull_top)
    model = st.EnergyModel(r=4, s=stress_free_s(4), g=[100.0, 0.0, 0.0])
    _, report = st.minimize_equilibrium(
        mesh, st.identity_state(mesh), uniform_phase1(mesh), model,
        SolveOptions(gradient_tolerance=1e-5))
    assert report.converged and report.armijo_backtracks > 0
    accepted = len(report.history)
    objectives = 1 + accepted + report.armijo_backtracks \
        + report.injectivity_backtracks
    assert calls == {"bulk_weights": 1, "load_vector": 1,
                     "deformation_minors":
                         objectives + report.det_floor_backtracks,
                     "equilibrium_objective": objectives,
                     "equilibrium_gradient": 1 + accepted}


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


def _counting_check(monkeypatch, verdicts=None):
    """Record the positions of every injectivity check; the n-th check
    answers verdicts[n] (default: the real check)."""
    calls = []

    def check(mesh, positions):
        calls.append(np.array(positions))
        if verdicts is None:
            return boundary_self_intersects(mesh, positions)
        return verdicts[len(calls) - 1]

    monkeypatch.setattr(sharptop.solve, "boundary_self_intersects", check)
    return calls


# a large shear of a stress-free model: no step is guarded before the
# line search first gives out, at iteration 40, and |g| is still about
# 2e-4 at iteration 30, so the check of iteration 25 and the iteration
# limit are reached
PULL = st.EnergyModel(s=stress_free_s(4), g=[250.0, 0.0, 0.0])


def _pull(clamped_mesh, uniform_phase1, max_iterations):
    return st.minimize_equilibrium(
        clamped_mesh, st.identity_state(clamped_mesh),
        uniform_phase1(clamped_mesh), PULL,
        SolveOptions(gradient_tolerance=1e-12, max_iterations=max_iterations))


def test_zero_iteration_solve_makes_no_injectivity_check(uniform_phase1,
                                                          monkeypatch):
    calls = _counting_check(monkeypatch)
    mesh = st.build_box_mesh(2, 2, 2, tagging=lambda c: "DIRICHLET")
    _, report = st.minimize_equilibrium(
        mesh, st.identity_state(mesh), uniform_phase1(mesh),
        st.EnergyModel(r=4, s=stress_free_s(4)))
    assert report.iterations == 0 and calls == []


def test_short_solve_checks_its_returned_state_once(clamped_mesh,
                                                    uniform_phase1,
                                                    monkeypatch):
    calls = _counting_check(monkeypatch)
    state, report = _pull(clamped_mesh, uniform_phase1, 10)
    assert report.iterations == 10 and len(report.history) == 10
    assert len(calls) == 1
    assert np.array_equal(calls[0], state.positions)
    assert report.injectivity_backtracks == 0


def test_rejected_injectivity_checks_count_as_backtracks(clamped_mesh,
                                                         uniform_phase1,
                                                         monkeypatch):
    # every check fails: iteration 25 backtracks until the line search
    # gives up, and the unchecked state of iteration 24 fails on return;
    # the history's guard column shows no guard in iterations 1-24
    calls = _counting_check(monkeypatch, [True] * 100)
    state, report = _pull(clamped_mesh, uniform_phase1, 30)
    assert report.iterations == 25 and len(report.history) == 24
    assert report.injectivity_backtracks == len(calls) - 1 > 0
    assert report.guard_activations == (report.det_floor_backtracks
                                        + report.injectivity_backtracks)
    assert [row[4] for row in report.history] == [0] * 24
    assert not report.converged and "crosses itself" in report.message
    np.testing.assert_array_equal(state.positions, clamped_mesh.vertices)


def test_final_rejection_returns_last_checked_state(clamped_mesh,
                                                    uniform_phase1,
                                                    monkeypatch):
    # the check at iteration 25 passes; the returned state's check fails
    calls = _counting_check(monkeypatch, [False, True])
    state, report = _pull(clamped_mesh, uniform_phase1, 30)
    assert len(calls) == 2 and len(report.history) == 30
    assert not report.converged and "crosses itself" in report.message
    monkeypatch.undo()
    at_25, report_25 = _pull(clamped_mesh, uniform_phase1, 25)
    np.testing.assert_array_equal(state.positions, at_25.positions)
    assert (report.objective, report.grad_norm, report.min_det) == (
        report_25.objective, report_25.grad_norm, report_25.min_det)
    assert report.history[24] == report_25.history[24]


@pytest.mark.parametrize("max_iterations, checks", [(10, 0), (25, 1),
                                                    (30, 1)])
def test_descent_is_the_solve_without_its_closing_check(
        clamped_mesh, uniform_phase1, monkeypatch, max_iterations, checks):
    """`_descend` makes the solve's in-loop checks and no other, and hands
    back the last state that passed one beside a state that did not take
    one; `minimize_equilibrium` adds the check of the returned state."""
    calls = _counting_check(monkeypatch)
    mesh, phases = clamped_mesh, uniform_phase1(clamped_mesh)
    args = (mesh, st.identity_state(mesh), phases, PULL,
            SolveOptions(gradient_tolerance=1e-12,
                         max_iterations=max_iterations))
    state, report, passed = _descend(*args)
    assert len(calls) == report.injectivity_checks == checks
    if max_iterations == 25:
        assert passed is None
    elif max_iterations == 10:
        assert np.array_equal(passed[0].positions, mesh.vertices)
    else:
        assert passed[1:3] == report.history[24][1:3]
    full_state, full = st.minimize_equilibrium(*args)
    closing = passed is not None
    assert len(calls) == 2 * checks + closing
    assert full.injectivity_checks == checks + closing
    assert full_state.positions.tobytes() == state.positions.tobytes()
    assert (full.converged, full.message, full.history) == (
        report.converged, report.message, report.history)


@pytest.mark.parametrize("scale0", [0.2, 1.0])
@pytest.mark.parametrize("swaps", [2, 3, 4])
def test_solve_with_a_stale_factor(scale0, swaps):
    """A solve preconditioned by the factor of a labeling `swaps` swaps
    away, warm started from that labeling's equilibrium as an annealer's
    proposal is, converges to the objective of a solve with its own
    factor within 1e-7 relative.  With equal phase scales the weights do
    not depend on the labels, and the two solves agree bit for bit; the
    body load on phase 1 makes them take steps."""
    mesh = st.build_box_mesh(4, 4, 4, tagging=clamp_bottom_pull_top)
    model = st.EnergyModel(r=4, s=stress_free_s(4), scale0=scale0,
                           g=[0.0, 0.0, 1.0], f=[0.0, 0.0, -1.0])
    options = SolveOptions(gradient_tolerance=1e-5)
    stale = st.surfaces.slab_labels(mesh, 0.5, axis=0)
    phases, rng = stale, np.random.default_rng(swaps)
    for _ in range(swaps):
        phases = st.mass_preserving_move(mesh, phases, rng)
    assert np.count_nonzero(phases.labels != stale.labels) == 2 * swaps
    warm, _ = st.minimize_equilibrium(mesh, st.identity_state(mesh), stale,
                                      model, options)
    factor = Preconditioner(mesh, ~warm.dirichlet_mask,
                            bulk_weights(mesh, stale, model), model)
    state, report = st.minimize_equilibrium(mesh, warm, phases, model,
                                            options, factor=factor)
    fresh_state, fresh = st.minimize_equilibrium(mesh, warm, phases, model,
                                                 options)
    assert report.converged and report.grad_norm < 1e-5
    assert report.iterations > 0 and factor.built
    assert abs(report.objective - fresh.objective) <= 1e-7 * abs(
        fresh.objective)
    if scale0 == model.scale1:
        assert state.positions.tobytes() == fresh_state.positions.tobytes()
        assert report.history == fresh.history


def test_elasticity_preconditions_a_loaded_cold_solve(monkeypatch):
    """A clamped 6^3 box pulled at its top, two phases in slabs: K0 is
    the Hessian at the identity of the stress-free model, and the cold
    solve takes at most 6 iterations, against at least 20 with c L_w,
    to the same objective within the tolerance's reach."""
    mesh = st.build_box_mesh(6, 6, 6, tagging=clamp_bottom_pull_top)
    model = st.EnergyModel(r=4, s=stress_free_s(4), scale0=0.2,
                           g=[0.0, 0.0, 2.0])
    args = (mesh, st.identity_state(mesh),
            st.surfaces.slab_labels(mesh, 0.5, axis=0), model,
            SolveOptions(gradient_tolerance=1e-5))
    _, report = st.minimize_equilibrium(*args)
    monkeypatch.setattr(sharptop.laplacian, "ELASTIC_WIDTH", 0)
    _, laplacian = st.minimize_equilibrium(*args)
    assert report.converged and laplacian.converged
    assert report.iterations <= 6 and laplacian.iterations >= 20
    assert report.objective == pytest.approx(laplacian.objective, rel=1e-9)
