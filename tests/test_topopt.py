import math

from hypothesis import given, settings, strategies as hs
import numpy as np
import pytest

import sharptop as st
from sharptop.energy import stress_free_s
from sharptop.solve import SolveOptions
from sharptop.surfaces import slab_labels
from sharptop.topopt import (EULERIAN, REFERENTIAL, TopOptConfig, TopOptError,
                             compliance, mass_preserving_move, objective,
                             optimize_topology)

from conftest import brute_force_mass_preserving_move, perturbed_slab_labels


def pinned_mesh(n=4):
    return st.build_box_mesh(n, n, n, tagging=lambda c: "DIRICHLET")


def annealing_model():
    # stress-free at the identity so inner solves converge instantly
    return st.EnergyModel(r=4, s=stress_free_s(4), scale0=1.0, scale1=1.0)


def fast_config(mode=EULERIAN, seed=0, **kw):
    return TopOptConfig(mode=mode, eta=0.5, t_initial=1.0, t_decay=0.5,
                        t_final=0.2, steps_per_temperature=5, seed=seed,
                        solve_options=SolveOptions(gradient_tolerance=1e-5,
                                                   max_iterations=50), **kw)


def test_compliance_gravity(small_mesh, uniform_phase1):
    model = st.EnergyModel(f=[0.0, 0.0, -1.0])
    val = compliance(small_mesh, st.identity_state(small_mesh),
                     uniform_phase1(small_mesh), model)
    assert val == pytest.approx(-0.5, rel=1e-12)


def test_objective_modes_agree_at_identity(small_mesh):
    model = st.EnergyModel(f=[0.0, 0.0, -0.3])
    phases = slab_labels(small_mesh, 0.5, axis=0)
    state = st.identity_state(small_mesh)
    oe = objective(small_mesh, state, phases, model, EULERIAN)
    orf = objective(small_mesh, state, phases, model, REFERENTIAL)
    assert oe == pytest.approx(orf, rel=1e-12)


def test_objective_modes_differ_under_deformation(small_mesh):
    model = st.EnergyModel()
    phases = slab_labels(small_mesh, 0.5, axis=0)
    A = np.diag([1.0, 1.7, 1.0])
    state = st.identity_state(small_mesh).with_positions(
        small_mesh.vertices @ A.T)
    oe = objective(small_mesh, state, phases, model, EULERIAN)
    orf = objective(small_mesh, state, phases, model, REFERENTIAL)
    assert oe > orf  # stretched interface carries more Eulerian area


def test_mass_preserving_move_exact(small_mesh):
    rng = np.random.default_rng(0)
    phases = slab_labels(small_mesh, 0.5, axis=0)
    mass0 = phases.phase1_volume(small_mesh)
    for _ in range(200):
        phases = mass_preserving_move(small_mesh, phases, rng)
        assert phases.phase1_volume(small_mesh) == pytest.approx(
            mass0, rel=1e-12)
        V = st.extract_interface(small_mesh, None, phases,
                                 positions=small_mesh.vertices)
        assert st.boundary_defect(V) == 0


def test_mass_preserving_move_changes_exactly_two(small_mesh):
    rng = np.random.default_rng(1)
    phases = slab_labels(small_mesh, 0.5, axis=0)
    moved = mass_preserving_move(small_mesh, phases, rng)
    changed = np.flatnonzero(moved.labels != phases.labels)
    assert len(changed) == 2
    assert sorted(int(phases.labels[c]) for c in changed) == [0, 1]


def test_move_matches_full_extraction_oracle():
    """From equal seeds the topology-only proposal returns the same labels
    as one that runs a full extraction on every candidate."""
    rejections = []

    def step(move, mesh, phases, rng, bias, **kw):
        try:
            return move(mesh, phases, rng, interface_bias=bias, **kw)
        except TopOptError:
            return None

    @settings(max_examples=20, deadline=None)
    @given(n=hs.integers(3, 5), axis=hs.integers(0, 2),
           seed=hs.integers(0, 2**16), flips=hs.integers(0, 6),
           bias=hs.sampled_from([0.0, 0.5, 0.9, 1.0]))
    def check(n, axis, seed, flips, bias):
        mesh = st.build_box_mesh(n, n, n)
        fast = oracle = perturbed_slab_labels(mesh, axis, seed, flips)
        rng_fast = np.random.default_rng(seed)
        rng_oracle = np.random.default_rng(seed)
        for _ in range(8):
            fast = step(mass_preserving_move, mesh, fast, rng_fast, bias)
            oracle = step(brute_force_mass_preserving_move, mesh, oracle,
                          rng_oracle, bias, rejections=rejections)
            assert (fast is None) == (oracle is None)
            if fast is None:
                break
            assert np.array_equal(fast.labels, oracle.labels)
        assert rng_fast.random() == rng_oracle.random()

    check()
    assert any(r.startswith("non-manifold") for r in rejections)


def test_move_rejects_empty_phase(small_mesh, uniform_phase1):
    rng = np.random.default_rng(2)
    with pytest.raises(TopOptError):
        mass_preserving_move(small_mesh, uniform_phase1(small_mesh), rng)


def test_annealing_runs_and_tracks_best():
    mesh = pinned_mesh(4)
    model = annealing_model()
    config = fast_config(seed=3)
    result = optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0),
                               model, config)
    assert result.trace
    assert result.best_objective <= result.initial_objective + 1e-12
    assert result.best_objective <= min(r.objective for r in result.trace) \
        + 1e-12
    assert result.accepted_moves + result.rejected_moves == len(result.trace)
    # mass constraint held at the best labeling
    target = config.eta * mesh.total_volume()
    assert result.best_phases.phase1_volume(mesh) == pytest.approx(
        target, rel=1e-12)
    # the returned state is a converged equilibrium of the best labeling
    V = st.extract_interface(mesh, result.best_state, result.best_phases)
    assert st.boundary_defect(V) == 0


def test_annealing_deterministic():
    mesh = pinned_mesh(3)
    model = annealing_model()
    traces = []
    for _ in range(2):
        result = optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0),
                                   model, fast_config(seed=7))
        traces.append([(r.step, r.temperature, r.objective, r.compliance,
                        r.interface_energy, r.mass, r.accepted)
                       for r in result.trace])
    assert traces[0] == traces[1]


def test_annealing_seed_changes_trace():
    mesh = pinned_mesh(3)
    model = annealing_model()
    r1 = optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0), model,
                           fast_config(seed=1))
    r2 = optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0), model,
                           fast_config(seed=2))
    t1 = [(r.objective, r.accepted) for r in r1.trace]
    t2 = [(r.objective, r.accepted) for r in r2.trace]
    assert t1 != t2


def test_referential_mode_runs():
    mesh = pinned_mesh(3)
    result = optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0),
                               annealing_model(),
                               fast_config(mode=REFERENTIAL, seed=5))
    assert result.best_objective <= result.initial_objective + 1e-12


def test_rejects_mass_violating_start():
    mesh = pinned_mesh(3)
    labels = np.zeros(mesh.n_tets, np.int8)
    labels[:3] = 1  # far below eta = 0.5
    with pytest.raises(TopOptError, match="mass"):
        optimize_topology(mesh, st.PhaseLabeling(labels), annealing_model(),
                          fast_config())


def test_config_validation():
    with pytest.raises(ValueError):
        TopOptConfig(mode="LAGRANGIAN")
    with pytest.raises(ValueError):
        TopOptConfig(eta=0.0)
    with pytest.raises(ValueError):
        TopOptConfig(t_decay=1.0)
    with pytest.raises(ValueError):
        TopOptConfig(t_initial=-1.0)
    for key in ("t_initial", "t_final"):   # infinity never cools below
        with pytest.raises(ValueError, match="finite"):
            TopOptConfig(**{key: math.inf})
    for key, bad in (("steps_per_temperature", 2.5),
                     ("steps_per_temperature", 0),
                     ("steps_per_temperature", True),
                     ("snapshot_every", -1), ("snapshot_every", 1.0)):
        with pytest.raises(ValueError, match=key):
            TopOptConfig(**{key: bad})
    assert TopOptConfig(snapshot_every=0).snapshot_every == 0


def test_snapshot_callback_invoked():
    mesh = pinned_mesh(3)
    seen = []
    config = fast_config(seed=3, snapshot_every=1)
    optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0),
                      annealing_model(), config,
                      snapshot_callback=lambda step, s, p: seen.append(step))
    assert seen  # every accepted move snapshots at cadence 1


def test_programming_error_in_inner_solve_propagates(monkeypatch):
    """A ValueError from a candidate's solve is a bug, not a rejected move."""
    import sharptop.topopt as topopt
    real = topopt.minimize_equilibrium
    calls = []

    def broken_after_first(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise ValueError("bug in the inner solve")
        return real(*args, **kwargs)

    monkeypatch.setattr(topopt, "minimize_equilibrium", broken_after_first)
    mesh = pinned_mesh(3)
    with pytest.raises(ValueError, match="bug in the inner solve"):
        optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0),
                          annealing_model(), fast_config(seed=3))
    assert len(calls) == 2
