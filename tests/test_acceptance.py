"""End-to-end acceptance criteria with analytic and statistical oracles.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible with pytest -s or on failure).
"""

import time

import numpy as np
import pytest

import sharptop as st
from sharptop.energy import stress_free_s
from sharptop.export import write_csv
from sharptop.kinematics import deformation_gradients
from sharptop.solve import (SolveOptions, equilibrium_gradient,
                            equilibrium_objective)
from sharptop.surfaces import (ball_labels, halfspace_labels, slab_labels,
                               sphere_varifold, wedge_fold)
from sharptop.topopt import (EULERIAN, REFERENTIAL, TopOptConfig,
                             mass_preserving_move, objective,
                             optimize_topology)
from sharptop.varifold import curvature_integral, random_bump_fields

from conftest import clamp_bottom_pull_top, random_feasible_state


class _criterion:
    def __init__(self, num, name, budget):
        self.num, self.name, self.budget = num, name, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance {self.num}] {self.name}: {status} "
              f"({elapsed:.1f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.num} exceeded its runtime budget")
        return False


def test_criterion_1_feasibility_constructions():
    with _criterion(1, "feasibility constructions", 1.0):
        mesh = st.build_box_mesh(2, 2, 2)
        model = st.EnergyModel(r=4, s=2, scale1=1.0, c_int=1.0)
        state = st.identity_state(mesh)
        phases = st.PhaseLabeling(np.ones(mesh.n_tets, np.int8))
        energy = st.bulk_energy(mesh, state, phases, model)
        expected = (10.0 + 3.0**4.5) * mesh.total_volume()
        assert abs(energy - expected) < 1e-12 * expected

        # flat slab at eta = 0.5: interface energy is exactly the
        # cross-section area and the interface is curvature-free
        slab = slab_labels(mesh, 0.5, axis=0)
        V = st.extract_interface(mesh, state, slab)
        assert st.interface_energy(V, model) == pytest.approx(
            model.c_int * 1.0, rel=1e-12)
        assert np.max(V.a_norm[V.interior_vertex], initial=0.0) < 1e-12


def test_criterion_2_curvature_oracle():
    with _criterion(2, "sphere curvature refinement", 30.0):
        R = 0.3
        mass_err, bend_err = [], []
        for level in (1, 2, 3, 4):
            V = sphere_varifold(level, radius=R)
            mass_err.append(abs(st.varifold_mass(V) - 4 * np.pi * R**2))
            bend_err.append(abs(curvature_integral(V) - 16 * np.pi))
        assert mass_err[-1] < 0.02 * 4 * np.pi * R**2
        assert bend_err[-1] < 0.10 * 16 * np.pi
        # monotone error decrease across (at least) the last two levels
        assert mass_err[-1] < mass_err[-2] < mass_err[-3]
        assert bend_err[-1] < bend_err[-2] < bend_err[-3]


def test_criterion_3_coupling_identity():
    with _criterion(3, "phase-gradient / varifold coupling", 10.0):
        configs = []
        mesh = st.build_box_mesh(6, 6, 6)
        state = st.identity_state(mesh)
        configs.append((mesh, state,
                        halfspace_labels(mesh, axis=0, threshold=0.5)))
        configs.append((mesh, state,
                        ball_labels(mesh, (0.5, 0.5, 0.5), 0.3)))
        fields = random_bump_fields(10, center=(0.5, 0.5, 0.5),
                                    radius=0.45, seed=42)
        sup = max(Y.sup_norm() for Y in fields)
        for mesh, state, phases in configs:
            V = st.extract_interface(mesh, state, phases)
            r2 = st.coupling_residual(mesh, state, phases, V, fields,
                                      quad_order=2)
            r4 = st.coupling_residual(mesh, state, phases, V, fields,
                                      quad_order=4)
            assert r2 < 1e-3 * sup * st.varifold_mass(V)
            assert r4 <= 0.5 * r2


def test_criterion_4_gradient_correctness():
    with _criterion(4, "equilibrium gradient vs finite differences", 30.0):
        mesh = st.build_box_mesh(2, 2, 2, tagging=clamp_bottom_pull_top)
        model = st.EnergyModel(g=[0.1, 0.0, 0.5], f=[0.0, 0.0, -0.2])
        phases = st.PhaseLabeling(np.ones(mesh.n_tets, np.int8))
        h = 1e-6
        for seed in range(20):
            state = random_feasible_state(mesh, seed=seed)
            g = equilibrium_gradient(mesh, state, phases, model)
            ref = np.zeros_like(g)
            base = state.positions
            for i in range(mesh.n_vertices):
                if state.dirichlet_mask[i]:
                    continue
                for d in range(3):
                    plus, minus = np.array(base), np.array(base)
                    plus[i, d] += h
                    minus[i, d] -= h
                    ref[i, d] = (
                        equilibrium_objective(
                            mesh, state.with_positions(plus), phases, model)
                        - equilibrium_objective(
                            mesh, state.with_positions(minus), phases,
                            model)) / (2 * h)
            rel = np.linalg.norm(g - ref) / np.linalg.norm(ref)
            assert rel < 1e-5, f"seed {seed}: relative error {rel:.2e}"


def test_criterion_5_injectivity_detection():
    with _criterion(5, "overlap detection by image-volume deficit", 10.0):
        n_samples = 100_000
        # constructed fold: residual matches the analytic doubly-covered
        # volume and is statistically distinguishable from zero
        mesh, image, info = wedge_fold()
        state = st.DeformationState(
            positions=image, dirichlet_mask=np.zeros(len(image), bool))
        res = st.ciarlet_necas_residual(mesh, state, samples=n_samples,
                                        seed=0)
        assert abs(res.residual - info["overlap_volume"]) <= 3 * res.mc_std
        assert res.residual > 3 * res.mc_std

        # identity and affine stretches: residual indistinguishable from 0
        # (3 sigma plus a floating-point floor for zero-variance cases)
        box = st.build_box_mesh(2, 2, 2)
        identity = st.identity_state(box)
        stretch = identity.with_positions(
            box.vertices @ np.diag([2.0, 1.0, 0.7]))
        for k, s in enumerate((identity, stretch)):
            r = st.ciarlet_necas_residual(box, s, samples=n_samples, seed=k)
            assert abs(r.residual) <= 3 * r.mc_std + 1e-12 * \
                r.jacobian_integral


def test_criterion_6_equilibrium_solve():
    with _criterion(6, "clamped cube under traction", 120.0):
        mesh = st.build_box_mesh(8, 8, 8, tagging=clamp_bottom_pull_top)
        model = st.EnergyModel(r=4, s=stress_free_s(4), g=[0.0, 0.0, 2.0])
        phases = st.PhaseLabeling(np.ones(mesh.n_tets, np.int8))
        opts = SolveOptions(gradient_tolerance=1e-5, max_iterations=500)
        state0 = st.identity_state(mesh)
        state, report = st.minimize_equilibrium(mesh, state0, phases, model,
                                                opts)
        assert report.converged, report.message
        assert report.grad_norm < opts.gradient_tolerance
        assert report.min_det > 0.0
        objs = [equilibrium_objective(mesh, state0, phases, model)]
        objs += [row[1] for row in report.history]
        assert all(b < a for a, b in zip(objs, objs[1:]))
        last_iter = report.history[-1][0]
        assert not any(guards for it, *_, guards in report.history
                       if it > last_iter - 10)


def _perturbed_slab(mesh, eta, seed, n_moves=12):
    rng = np.random.default_rng(seed)
    phases = slab_labels(mesh, eta, axis=0)
    for _ in range(n_moves):
        phases = mass_preserving_move(mesh, phases, rng,
                                      interface_bias=0.5)
    return phases


def _annealing_setup(mesh_n=8):
    mesh = st.build_box_mesh(mesh_n, mesh_n, mesh_n,
                             tagging=lambda c: "DIRICHLET")
    model = st.EnergyModel(r=4, s=stress_free_s(4), scale0=1.0, scale1=1.0)
    return mesh, model


def _annealing_config(seed, checker=None):
    return TopOptConfig(
        mode=EULERIAN, eta=0.5, t_initial=0.05, t_decay=0.5, t_final=0.001,
        steps_per_temperature=20, seed=seed,
        solve_options=SolveOptions(gradient_tolerance=1e-5,
                                   max_iterations=50),
        snapshot_every=1 if checker else 0)


def test_criterion_7_topology_optimization_smoke():
    with _criterion(7, "annealing smoke and mode consistency", 600.0):
        mesh, model = _annealing_setup(8)
        init = _perturbed_slab(mesh, 0.5, seed=1)
        target = 0.5 * mesh.total_volume()

        accepted_checks = []

        def check(step, state, phases):
            V = st.extract_interface(mesh, state, phases)
            F = deformation_gradients(mesh, state.positions)
            _, _, det = st.minors(F)
            accepted_checks.append(
                (abs(phases.phase1_volume(mesh) - target),
                 st.boundary_defect(V), float(det.min())))

        config = _annealing_config(seed=2, checker=check)
        result = optimize_topology(mesh, init, model, config,
                                   snapshot_callback=check)
        # best-so-far strictly reduced; interface mass did not grow
        assert result.best_objective < result.initial_objective
        assert result.final_mass <= result.initial_mass + 1e-12
        # every accepted configuration: exact mass, closed interface,
        # feasible equilibrium
        assert accepted_checks
        for dm, defect, mdet in accepted_checks:
            assert dm < 1e-12 * mesh.total_volume()
            assert defect == 0
            assert mdet > 0.0

        # referential and Eulerian objectives agree at the zero-load
        # identity equilibrium
        state = st.identity_state(mesh)
        oe = objective(mesh, state, init, model, EULERIAN)
        orf = objective(mesh, state, init, model, REFERENTIAL)
        assert abs(oe - orf) <= 1e-12 * max(1.0, abs(oe))


def _run_trace(tmp_path, name, seed):
    mesh, model = _annealing_setup(4)
    init = _perturbed_slab(mesh, 0.5, seed=3, n_moves=6)
    config = TopOptConfig(
        mode=EULERIAN, eta=0.5, t_initial=1.0, t_decay=0.5, t_final=0.2,
        steps_per_temperature=6, seed=seed,
        solve_options=SolveOptions(gradient_tolerance=1e-5,
                                   max_iterations=50))
    result = optimize_topology(mesh, init, model, config)
    path = tmp_path / f"{name}.csv"
    write_csv(path, ["step", "temperature", "objective", "compliance",
                     "interface_energy", "mass", "accepted"],
              [(r.step, f"{r.temperature:.17g}", f"{r.objective:.17g}",
                f"{r.compliance:.17g}", f"{r.interface_energy:.17g}",
                f"{r.mass:.17g}", int(r.accepted)) for r in result.trace])
    return path.read_bytes()


def test_criterion_8_determinism(tmp_path):
    with _criterion(8, "byte-identical traces for equal seeds", 600.0):
        a = _run_trace(tmp_path, "a", seed=11)
        b = _run_trace(tmp_path, "b", seed=11)
        assert a == b
        c = _run_trace(tmp_path, "c", seed=12)
        assert c != a
