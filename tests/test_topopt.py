from dataclasses import replace
import math

from hypothesis import given, settings, strategies as hs
import numpy as np
import pytest

import sharptop as st
from sharptop.energy import stress_free_s
from sharptop.solve import SolveOptions
from sharptop.surfaces import slab_labels
from sharptop.topopt import (COLD_SOLVE_EVERY, EULERIAN, REFERENTIAL,
                             TopOptConfig, TopOptError, compliance,
                             mass_preserving_move, objective,
                             optimize_topology)

from conftest import (brute_force_annealing, brute_force_mass_preserving_move,
                      clamp_bottom_pull_top, even_corner_shuffle,
                      jittered_box_mesh, l_shape_mesh, perturbed_slab_labels,
                      random_feasible_state)


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


def test_move_chains_leave_no_dangling_edges():
    """An interface edge off the domain boundary lies on interior faces
    only, whose tets close a cycle around it, so an even number of cut
    faces meet there: no interface along a chain of moves, on meshes of
    every kind, has a dangling edge."""
    meshes = {"l-shape": l_shape_mesh(), "wedge": st.surfaces.wedge_fold()[0]}
    interfaces = dict.fromkeys(("jittered", "l-shape", "wedge", "shuffled"),
                               0)

    @settings(max_examples=40, deadline=None)
    @given(kind=hs.sampled_from(sorted(interfaces)), axis=hs.integers(0, 2),
           seed=hs.integers(0, 2**16), bias=hs.sampled_from([0.0, 0.9]))
    def check(kind, axis, seed, bias):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(2, 5, 3))
        if kind == "jittered":   # small enough to keep swaps volume-matched
            mesh = jittered_box_mesh(dims, rng, 0.002)
        elif kind == "shuffled":
            mesh = even_corner_shuffle(st.build_box_mesh(*dims), seed)
        else:
            mesh = meshes[kind]
        phases = slab_labels(mesh, 0.5, axis=axis)
        for _ in range(30):
            try:
                phases = mass_preserving_move(mesh, phases, rng,
                                              interface_bias=bias)
            except TopOptError:
                break
            V = st.extract_interface(mesh, None, phases,
                                     positions=mesh.vertices)
            assert len(V.dangling_edges) == 0
            interfaces[kind] += 1

    check()
    assert min(interfaces.values()) > 0, interfaces


@pytest.mark.parametrize("moved, solves", [(False, 1), (True, 2)])
def test_failed_solve_is_retried_only_from_a_moved_start(monkeypatch, moved,
                                                        solves):
    """A solve that fails from the identity is not repeated: it is
    deterministic.  One that fails from a moved state is retried cold."""
    import sharptop.topopt as topopt
    real, starts = topopt.minimize_equilibrium, []

    def counting(mesh, state, *args, **kwargs):
        starts.append(state.positions.copy())
        return real(mesh, state, *args, **kwargs)

    monkeypatch.setattr(topopt, "minimize_equilibrium", counting)
    mesh = st.build_box_mesh(3, 3, 3, tagging=clamp_bottom_pull_top)
    state = st.identity_state(mesh)
    if moved:
        state = state.with_positions(mesh.vertices * [1.0, 1.0, 1.01])
    config = replace(fast_config(), solve_options=SolveOptions(
        max_iterations=1))
    with pytest.raises(TopOptError, match="did not converge"):
        optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0),
                          st.EnergyModel(g=[0.0, 0.0, 1.0]), config,
                          state0=state)
    assert len(starts) == solves
    assert np.array_equal(starts[-1], mesh.vertices)


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
    # two phases under a traction: a swap moves the equilibrium, so the
    # candidate's solve runs (a stress-free pinned cube would skip it)
    mesh = st.build_box_mesh(3, 3, 3, tagging=clamp_bottom_pull_top)
    model = st.EnergyModel(r=4, s=stress_free_s(4), scale0=0.2,
                           g=[0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="bug in the inner solve"):
        optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0), model,
                          fast_config(seed=3))
    assert len(calls) == 2


ORACLE_CASES = {
    # zero load: every candidate but the cold restarts' is converged at
    # its start; 25 steps per temperature pass a cold restart
    "referential-3": (3, REFERENTIAL, {}, 11, 25),
    "referential-5": (5, REFERENTIAL, {}, 16, 5),
    # ring-local energies from the terms of uneven faces, on a box
    # jittered by 0.002 cells: small enough to keep swaps volume-matched
    "referential-jittered-4": (4, REFERENTIAL, {}, 17, 5, 0.002),
    # a traction and a stiff phase 1: candidates take steps
    "loaded-3": (3, EULERIAN, {"scale0": 0.2, "g": [0.0, 0.0, 1.0]}, 13, 5),
    # equal phases under a body load that puts the gradient of the start
    # near half the tolerance: swaps move it across, so some candidates
    # are skipped and some are solved
    "body-load-4": (4, EULERIAN, {"f": [0.0, 0.0, 7.9e-5]}, 14, 5),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_annealing_matches_full_recompute_oracle(case):
    """From equal seeds the annealer, with its kept interface topology,
    ring-local referential energies and converged-at-start shortcut,
    gives the trace, counts and best labels of one that extracts in full
    and solves in full on every proposal."""
    n, mode, loads, seed, steps, *jitter = ORACLE_CASES[case]
    if jitter:
        mesh = jittered_box_mesh((n, n, n), np.random.default_rng(seed),
                                 *jitter)
        model = annealing_model()
    elif mode == REFERENTIAL:
        mesh, model = pinned_mesh(n), annealing_model()
    else:
        mesh = st.build_box_mesh(n, n, n, tagging=clamp_bottom_pull_top)
        model = st.EnergyModel(r=4, s=stress_free_s(4), **loads)
    phases = perturbed_slab_labels(mesh, 0, seed, flips=1)
    # hot enough that most moves are accepted
    config = replace(fast_config(mode=mode, seed=seed), t_initial=100.0,
                     t_final=20.0, steps_per_temperature=steps)
    result = optimize_topology(mesh, phases, model, config)
    trace, accepted, rejected, best = brute_force_annealing(
        mesh, phases, model, config)
    assert result.trace == trace
    assert (result.accepted_moves, result.rejected_moves) == (accepted,
                                                              rejected)
    assert accepted > 0
    assert np.array_equal(result.best_phases.labels, best)
    proposals = len(trace) - result.rejected_no_move
    if case == "referential-3":
        assert accepted > COLD_SOLVE_EVERY
        assert result.skipped_solves == proposals - 1
    elif case in ("referential-5", "referential-jittered-4"):
        assert result.skipped_solves == proposals
    elif case == "loaded-3":
        assert result.skipped_solves == 0
    else:
        assert 0 < result.skipped_solves < proposals


def test_rejections_add_up_by_cause():
    mesh = pinned_mesh(4)
    result = optimize_topology(mesh, perturbed_slab_labels(mesh, 1, 6, 2),
                               annealing_model(), fast_config(seed=5))
    causes = (result.rejected_no_move, result.rejected_interface,
              result.rejected_solve, result.rejected_metropolis)
    assert sum(causes) == result.rejected_moves
    assert result.rejected_metropolis > 0
    assert result.nonmanifold_draws > 0


def test_skipped_solve_touches_only_the_swapped_tets(monkeypatch):
    """A candidate converged at its start runs the kinematics, the
    constitutive kernel and the corner forces on its two swapped tets
    only, and neither the inner solve nor a full gradient: the one full
    gradient of the run is the first solve's, which the annealer reuses."""
    import sharptop.solve as solve
    import sharptop.topopt as topopt
    sizes, calls = [], {"minimize_equilibrium": 0, "equilibrium_gradient": 0}

    def sized(kernel, size):
        def wrapper(*args, **kwargs):
            sizes.append(size(*args, **kwargs))
            return kernel(*args, **kwargs)
        return wrapper

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(topopt, "deformation_minors", sized(
        topopt.deformation_minors, lambda mesh, x, tets: len(tets)))
    monkeypatch.setattr(topopt, "Bulk", sized(
        topopt.Bulk, lambda terms, weights, model: len(weights)))
    monkeypatch.setattr(topopt, "corner_forces", sized(
        topopt.corner_forces, lambda mesh, P, tets: P.shape[2]))
    assert not hasattr(topopt, "equilibrium_gradient")
    counted(topopt, "minimize_equilibrium")
    counted(solve, "equilibrium_gradient")
    mesh = pinned_mesh(4)
    result = optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0),
                               annealing_model(), fast_config(seed=3))
    proposals = len(result.trace) - result.rejected_no_move
    assert result.skipped_solves == proposals > 0
    assert calls == {"minimize_equilibrium": 1, "equilibrium_gradient": 1}
    assert sizes == [2] * (3 * proposals)


def test_referential_proposals_sum_only_their_ring(monkeypatch):
    """A referential run extracts no interface and runs no full curvature
    pass, for its start or for any proposal: the start's energy shares
    are summed over every interface vertex, and each proposal's over at
    most the 8 vertices of its two swapped tets."""
    import sharptop.topopt as topopt
    import sharptop.varifold as varifold
    calls, rings = [], []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(topopt, "extract_interface")
    counted(varifold, "extract_interface")
    counted(varifold, "discrete_curvature_inplace")
    ring_energy = varifold.InterfaceTopology._ring_energy

    def sized(self, ring):
        rings.append(len(ring))
        return ring_energy(self, ring)
    monkeypatch.setattr(varifold.InterfaceTopology, "_ring_energy", sized)
    mesh = pinned_mesh(4)
    phases = slab_labels(mesh, 0.5, axis=0)
    result = optimize_topology(mesh, phases, annealing_model(),
                               fast_config(mode=REFERENTIAL, seed=3))
    proposals = len(result.trace) - result.rejected_no_move
    cut = st.InterfaceTopology(mesh, phases).cut
    assert calls == []
    assert rings[0] == len(np.unique(mesh.interior_faces[cut]))
    assert len(rings) == 1 + proposals > 1
    assert all(1 <= n <= 8 for n in rings[1:])


@pytest.mark.parametrize("g", [[0.0, 0.0, 0.0], [0.1, 0.0, 1.0]])
def test_compliance_from_kept_loads(g):
    """With no body load, one labeling's load vector is every labeling's,
    so the compliance from it equals the compliance that builds its own,
    bit for bit."""
    from sharptop.energy import load_vector
    mesh = st.build_box_mesh(3, 3, 3, tagging=clamp_bottom_pull_top)
    model = st.EnergyModel(g=g)
    state = random_feasible_state(mesh, scale=0.03, seed=2)
    phases = slab_labels(mesh, 0.5, axis=1)
    loads = load_vector(mesh, phases, model)
    rng = np.random.default_rng(1)
    for _ in range(5):
        phases = mass_preserving_move(mesh, phases, rng)
        assert compliance(mesh, state, phases, model, loads) == compliance(
            mesh, state, phases, model)


@pytest.mark.parametrize("f", [[0.0, 0.0, 0.0], [0.3, -0.2, 1.0]])
def test_swapped_gradient_matches_full_recompute(f):
    """The gradient updated by two tets' weights and body loads equals a
    full recompute at the swapped labels, to 1e-12 relative."""
    from sharptop.topopt import _swapped_gradient
    mesh = st.build_box_mesh(3, 3, 3, tagging=clamp_bottom_pull_top)
    model = st.EnergyModel(r=4, s=3.0, scale0=0.2, scale1=1.5, f=f,
                           g=[0.1, 0.0, 1.0])
    state = random_feasible_state(mesh, scale=0.03, seed=4)
    phases = slab_labels(mesh, 0.5, axis=1)
    grad = st.equilibrium_gradient(mesh, state, phases, model)
    rng = np.random.default_rng(0)
    for _ in range(10):
        src = rng.choice(np.flatnonzero(phases.labels == 1))
        dst = rng.choice(np.flatnonzero(phases.labels == 0))
        swapped = phases.with_swap(tet_to_0=src, tet_to_1=dst)
        got = _swapped_gradient(mesh, state, model, grad, (src, dst))
        want = st.equilibrium_gradient(mesh, state, swapped, model)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert not got[state.dirichlet_mask].any()
        phases, grad = swapped, got
