from dataclasses import replace
import math

from hypothesis import example, given, settings, strategies as hs
import numpy as np
import pytest

import sharptop as st
from sharptop.energy import stress_free_s
from sharptop.solve import SolveOptions
from sharptop.surfaces import slab_labels
from sharptop.topopt import (COLD_SOLVE_EVERY, EULERIAN,
                             INTERFACE_MOVE_BIAS, LOOK_AHEAD, REFERENTIAL,
                             TopOptConfig, TopOptError,
                             _LookAhead, _second_stage, _swaps,
                             compliance, mass_preserving_move, objective,
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


LAST = 1.0 - 2.0**-53   # the largest uniform below 1


@pytest.mark.parametrize("n, flips", [(3, 0), (4, 2), (5, 5)])
def test_swaps_pick_the_ends_of_each_list(n, flips):
    """Uniforms of 0 and of the largest double below 1 pick the first and
    the last tet of each list: of the near lists on a draw whose first
    uniform lies below the bias, of the phases' tets otherwise.  The
    largest uniform picks the last of a list of any length a mesh of up
    to 10^5 tets can have."""
    mesh = st.build_box_mesh(n, n, n)
    topology = st.InterfaceTopology(
        mesh, perturbed_slab_labels(mesh, 0, n, flips))
    rows = np.array([[0.0, 0.0, 0.0], [0.0, LAST, LAST],
                     [LAST, 0.0, 0.0], [LAST, LAST, LAST]])
    tet_to_0, tet_to_1, matched = _swaps(mesh, topology, rows, 0.5)
    (near1, near0), (ones, zeros) = topology.near(), topology.tets()
    assert tet_to_0.tolist() == [near1[0], near1[-1], ones[0], ones[-1]]
    assert tet_to_1.tolist() == [near0[0], near0[-1], zeros[0], zeros[-1]]
    assert matched.all()   # a box's tets have one volume
    assert all(int(LAST * k) == k - 1 for k in range(1, 10**5 + 1))


def two_cubes():
    """Two 2^3 boxes side by side, not touching, with the first box's tets
    in phase 1: both phases are filled and neither near list is."""
    box = st.build_box_mesh(2, 2, 2)
    nv = box.n_vertices
    mesh = st.ReferenceMesh(
        vertices=np.concatenate([box.vertices, box.vertices + [2.0, 0, 0]]),
        tets=np.concatenate([box.tets, box.tets + nv]),
        boundary_faces=np.concatenate([box.boundary_faces,
                                       box.boundary_faces + nv]),
        boundary_tags=np.concatenate([box.boundary_tags,
                                      box.boundary_tags]))
    labels = np.repeat([1, 0], box.n_tets)
    return mesh, st.InterfaceTopology(mesh, st.PhaseLabeling(labels))


def test_swaps_draw_from_the_phases_unless_near_the_interface():
    """A bias of 0 sends every draw to the phases' tets, and a bias of 1
    every draw to the near lists; with a near list empty, every draw goes
    to the phases' tets, whatever the bias."""
    rows = np.concatenate([[[0.0, 0.5, 0.5]],
                           np.random.default_rng(0).random((50, 3))])
    mesh = st.build_box_mesh(4, 4, 4)
    topology = st.InterfaceTopology(mesh, perturbed_slab_labels(mesh, 1, 3,
                                                                2))
    cases = [(mesh, topology, 0.0, topology.tets()),
             (mesh, topology, 1.0, topology.near())]
    mesh, topology = two_cubes()
    assert not any(map(len, topology.near()))
    cases += [(mesh, topology, bias, topology.tets())
              for bias in (0.0, 0.9, 1.0)]
    for mesh, topology, bias, lists in cases:
        picked = _swaps(mesh, topology, rows, bias)[:2]
        for tets, u, tets_k in zip(picked, rows[:, 1:].T, lists):
            assert np.array_equal(tets, tets_k[np.floor(u * len(tets_k))
                                               .astype(int)])


@pytest.mark.parametrize("bias", [0.0, 0.5, 0.9, 1.0])
def test_swaps_of_a_block_are_its_rows_swaps(bias):
    """Mapping an (n, 3) block of draws gives the swaps and volume flags of
    mapping its rows one at a time, and a block read from a generator
    holds the rows that reads of one row each give, in order: so the
    look-ahead's buffered reads and `mass_preserving_move`'s one-row
    reads see the same swaps.  The look-ahead hands its buffered rows,
    and the rows after them, to the moves in stream order."""
    mesh = jittered_box_mesh((3, 4, 3), np.random.default_rng(5), 0.05)
    topology = st.InterfaceTopology(mesh, perturbed_slab_labels(mesh, 2, 5,
                                                                3))
    block = np.random.default_rng(7).random((40, 3))
    rng = np.random.default_rng(7)
    assert np.array_equal(block, np.concatenate([rng.random((1, 3))
                                                 for _ in range(40)]))
    whole = _swaps(mesh, topology, block, bias)
    one_by_one = [_swaps(mesh, topology, row[None], bias) for row in block]
    for k, part in enumerate(whole):
        assert np.array_equal(part, [swap[k][0] for swap in one_by_one])
    assert 0 < np.count_nonzero(whole[2]) < len(block)   # jitter unmatches
    ahead = _LookAhead(topology, annealing_model(), np.random.default_rng(7))
    ahead.fill()
    assert ahead.mapped == LOOK_AHEAD
    read = np.concatenate([ahead.random((1, 3)) for _ in range(40)])
    assert np.array_equal(read, block)
    assert ahead.mapped == 0


def test_lookahead_scores_the_unread_rows_at_the_accepted_labeling():
    """After a fill, the look-ahead holds the scores of exactly the swaps
    that its unread rows give at the accepted labeling, as one call of
    `swap_energy_changes` gives them.  After an accepted move (`apply`,
    then `reset`) it holds none and maps no row until it fills again."""
    mesh, model = pinned_mesh(4), annealing_model()
    phases = perturbed_slab_labels(mesh, 0, 3, 1)
    topology = st.InterfaceTopology(mesh, phases)
    ahead = _LookAhead(topology, model, np.random.default_rng(2))
    for _ in range(4):
        ahead.fill()
        tet_to_0, tet_to_1, matched = _swaps(mesh, topology, ahead.rows,
                                             INTERFACE_MOVE_BIAS)
        swaps = list(dict.fromkeys(zip(tet_to_0[matched].tolist(),
                                       tet_to_1[matched].tolist())))
        assert list(ahead.scored) == swaps
        admissible, _, energy, bound = st.swap_energy_changes(
            topology, *np.array(swaps).T, model)
        np.testing.assert_array_equal(
            np.array(list(ahead.scored.values()), float),
            np.column_stack([admissible, energy, bound]))
        phases = mass_preserving_move(mesh, phases, ahead, topology=ahead)
        ahead.apply()
        ahead.reset()
        assert np.array_equal(topology.labels, phases.labels)
        assert ahead.mapped == 0 and not ahead.scored


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
    # draws non-manifold swaps, so that the assertion below does not rest
    # on the derandomized draws, whose seed comes from this test's source
    @example(n=3, axis=0, seed=0, flips=0, bias=0.9)
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
    # one row per kind, so that the assertion below does not rest on the
    # derandomized draws, whose seed comes from this test's source
    @example(kind="jittered", axis=0, seed=0, bias=0.9)
    @example(kind="l-shape", axis=0, seed=0, bias=0.9)
    @example(kind="wedge", axis=0, seed=0, bias=0.9)
    @example(kind="shuffled", axis=0, seed=0, bias=0.9)
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


@pytest.mark.parametrize("cause", ["no_move", "interface"])
def test_abort_names_the_failures_by_cause(monkeypatch, cause):
    """When more than half the moves at a temperature fail, the error
    counts them by cause, not all as failed inner solves."""
    import sharptop.topopt as topopt
    from sharptop.varifold import InterfaceError
    if cause == "no_move":
        def failing(*args, **kwargs):
            raise TopOptError("no admissible move found")
        monkeypatch.setattr(topopt, "mass_preserving_move", failing)
        counts = "5 found no move, 0 failed interface extraction"
    else:   # every energy after the start's; the look-ahead's scores
        # flag every swap as degenerate, which sends it to the full pass
        real, calls = topopt.referential_energy, []
        scored = topopt.swap_energy_changes

        def failing(topology, model):
            calls.append(1)
            if len(calls) > 1:
                raise InterfaceError("degenerate interface triangle")
            return real(topology, model)

        def degenerate(*args):
            admissible, flagged, *changes = scored(*args)
            assert not flagged.any()
            return (admissible, np.ones_like(flagged),
                    *(np.full_like(c, np.nan) for c in changes))
        monkeypatch.setattr(topopt, "referential_energy", failing)
        monkeypatch.setattr(topopt, "swap_energy_changes", degenerate)
        counts = "0 found no move, 5 failed interface extraction"
    mesh = pinned_mesh(3)
    with pytest.raises(TopOptError, match=(
            rf"^more than half the moves failed at T=1.0: {counts} and 0 "
            r"failed inner solves, of 5$")):
        optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0),
                          annealing_model(),
                          fast_config(mode=REFERENTIAL, seed=1))


def test_move_rejects_empty_phase(small_mesh, uniform_phase1):
    rng = np.random.default_rng(2)
    with pytest.raises(TopOptError):
        mass_preserving_move(small_mesh, uniform_phase1(small_mesh), rng)


def test_referential_run_with_an_empty_phase_finds_no_move():
    """A one-tet mesh at eta = 0.5 meets the mass constraint with its tet
    in phase 1, and phase 0 is then empty: every referential move finds
    none, and the run stops with the failures counted by cause, not with
    an error from the look-ahead's draws."""
    mesh = st.ReferenceMesh(
        vertices=np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        tets=np.array([[0, 1, 2, 3]]),
        boundary_faces=np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2],
                                 [1, 2, 3]]),
        boundary_tags=np.array([st.DIRICHLET] * 4))
    with pytest.raises(TopOptError, match=(
            r"at T=1.0: 5 found no move, 0 failed interface extraction")):
        optimize_topology(mesh, st.PhaseLabeling([1]), annealing_model(),
                          fast_config(mode=REFERENTIAL))


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
    """A ValueError from a candidate's solve is a bug, not a rejected move.
    The start's solve is `minimize_equilibrium`; a candidate's is the
    descent without the closing check."""
    import sharptop.topopt as topopt
    calls = []

    def broken(*args, **kwargs):
        calls.append(1)
        raise ValueError("bug in the inner solve")

    monkeypatch.setattr(topopt, "_descend", broken)
    # two phases: a swap is not inert, so the candidate's solve runs
    mesh = st.build_box_mesh(3, 3, 3, tagging=clamp_bottom_pull_top)
    model = st.EnergyModel(r=4, s=stress_free_s(4), scale0=0.2,
                           g=[0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="bug in the inner solve"):
        optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0), model,
                          fast_config(seed=3))
    assert len(calls) == 1


def test_inner_iterations_add_up_the_solves_that_ran(monkeypatch):
    """`inner_iterations` is the sum of the iterations of every inner
    solve the run made, its start's included."""
    import sharptop.topopt as topopt
    iterations = []

    def recorded(real):
        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            iterations.append(out[1].iterations)
            return out
        return wrapper

    for name in ("minimize_equilibrium", "_descend"):
        monkeypatch.setattr(topopt, name, recorded(getattr(topopt, name)))
    mesh = st.build_box_mesh(3, 3, 3, tagging=clamp_bottom_pull_top)
    model = st.EnergyModel(r=4, s=stress_free_s(4), scale0=0.2,
                           g=[0.0, 0.0, 1.0])
    result = optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0), model,
                               fast_config(seed=3))
    assert len(iterations) > 1
    assert result.inner_iterations == sum(iterations) > 0


def loaded_run_inputs():
    """A two-phase cube under a traction: every candidate is decided in
    two stages, and at fast_config(seed=0) stage 1 rejects some unsolved
    while Metropolis accepts others after their solves took steps."""
    mesh = st.build_box_mesh(3, 3, 3, tagging=clamp_bottom_pull_top)
    model = st.EnergyModel(r=4, s=stress_free_s(4), scale0=0.2,
                           g=[0.0, 0.0, 1.0])
    return mesh, perturbed_slab_labels(mesh, 0, 0, flips=1), model


@pytest.mark.parametrize("case", ["loaded", "inert", "unloaded"])
def test_one_preconditioner_per_run(monkeypatch, case):
    """Every solve of a run, the start's, the proposals' and their
    retries, is handed one `Preconditioner`, whose factor is built once
    by the first solve that takes a step.  A loaded run accepts moves
    after solves that took steps, and an inert one skips its candidates'
    solves: each builds one factor.  With no load no solve takes a step,
    and none is built."""
    import sharptop.solve as solve
    import sharptop.topopt as topopt
    real, built, factors = solve.LaplacianFactor, [], []

    def counted(*args):
        built.append(args)
        return real(*args)

    def recorded(fn):
        def wrapper(*args, **kwargs):
            factors.append(kwargs.get("factor") or args[5])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solve, "LaplacianFactor", counted)
    for name in ("minimize_equilibrium", "_descend"):
        monkeypatch.setattr(topopt, name, recorded(getattr(topopt, name)))
    mesh, phases, model = loaded_run_inputs()
    if case == "inert":
        model = replace(model, scale0=1.0)
    elif case == "unloaded":
        model = replace(model, g=np.zeros(3))
    result = optimize_topology(mesh, phases, model, fast_config(seed=0))
    assert isinstance(factors[0], solve.Preconditioner)
    assert all(factor is factors[0] for factor in factors)
    assert result.accepted_moves > 0
    # an inert run solves only its start
    assert (len(factors) == 1) == (case == "inert")
    assert len(built) == (case != "unloaded")
    assert (result.inner_iterations > 0) == (case != "unloaded")


def _recorded_proposals(monkeypatch, verdicts=None):
    """Record every proposal solve, as (step from 0, warm state, labels,
    state, whether its state is still to be checked), and every check the
    annealer makes; the n-th check answers verdicts[n] (default: the real
    check).  Every interface is asserted to be read from the topology of
    its own labels."""
    import sharptop.topopt as topopt
    seen = {"steps": 0, "solves": [], "checks": []}
    real_move = topopt.mass_preserving_move
    real_descend = topopt._descend
    real_check = topopt.boundary_self_intersects
    real_terms = topopt._interface_terms

    def move(*args, **kwargs):
        seen["steps"] += 1
        return real_move(*args, **kwargs)

    def descend(mesh, warm, phases, *args):
        state, report, passed = real_descend(mesh, warm, phases, *args)
        seen["solves"].append((seen["steps"] - 1, warm, phases, state,
                               passed is not None))
        return state, report, passed

    def check(mesh, positions):
        seen["checks"].append((len(seen["solves"]), np.array(positions)))
        if verdicts is None:
            return real_check(mesh, positions)
        return verdicts[len(seen["checks"]) - 1]

    def terms(mesh, state, phases, model, mode, topology):
        assert np.array_equal(topology.labels, phases.labels)
        return real_terms(mesh, state, phases, model, mode, topology)

    monkeypatch.setattr(topopt, "mass_preserving_move", move)
    monkeypatch.setattr(topopt, "_descend", descend)
    monkeypatch.setattr(topopt, "boundary_self_intersects", check)
    monkeypatch.setattr(topopt, "_interface_terms", terms)
    return seen


def test_only_kept_states_are_checked(monkeypatch):
    """A proposal's solve makes no closing injectivity check.  The
    annealer solves every candidate that passes stage 1, and none that
    it rejects; it checks a candidate once when stage 2 accepts it and
    its solve did not check it on its last iteration, and never a
    candidate that either stage rejects.  On this cool
    schedule both stages reject.  `injectivity_checks` counts every check
    of the run, the solves' own included."""
    import sharptop.solve as solve
    seen = _recorded_proposals(monkeypatch)
    real, everywhere = solve.boundary_self_intersects, []

    def counted(*args):
        everywhere.append(1)
        return real(*args)

    monkeypatch.setattr(solve, "boundary_self_intersects", counted)
    mesh, phases, model = loaded_run_inputs()
    config = replace(fast_config(seed=0), t_initial=0.1, t_final=0.02)
    result = optimize_topology(mesh, phases, model, config)
    solves = seen["solves"]
    steps = [step for step, *_ in solves]
    assert result.rejected_metropolis > result.surrogate_rejections > 0
    assert result.rejected_moves == result.rejected_metropolis
    # one solve per candidate that passed stage 1, in step order
    assert len(solves) == len(result.trace) - result.surrogate_rejections
    assert steps == sorted(set(steps))
    assert all(step in steps for step, row in enumerate(result.trace)
               if row.accepted)
    kept = [(k + 1, state.positions)
            for k, (step, _, _, state, unchecked) in enumerate(solves)
            if result.trace[step].accepted and unchecked]
    assert len(kept) == result.accepted_moves > 0
    assert len(seen["checks"]) == len(kept)
    for (k, positions), (when, checked) in zip(kept, seen["checks"]):
        assert when == k and np.array_equal(checked, positions)
    assert result.injectivity_checks == len(kept) + len(everywhere) > len(kept)


def test_failed_check_of_a_kept_state_rejects_the_move(monkeypatch):
    """When the check of an accepted candidate fails, the move is a
    rejected solve: its trace row reads rejected at the kept objective,
    the topology is undone, and the next solved proposal starts from the
    kept state and labels; the best state is not the candidate's.  The
    schedule is hot, so that candidates pass stage 1 and reach the
    check."""
    mesh, phases, model = loaded_run_inputs()
    config = replace(fast_config(seed=0), t_initial=100.0, t_final=20.0)
    plain = optimize_topology(mesh, phases, model, config)
    seen = _recorded_proposals(monkeypatch, [True] + [False] * 100)
    result = optimize_topology(mesh, phases, model, config)
    i = seen["checks"][0][0] - 1            # the failed solve, from 0
    solves = seen["solves"]
    f = solves[i][0]                        # its step, from 0
    assert plain.trace[:f] == result.trace[:f] and plain.trace[f].accepted
    row = result.trace[f]
    assert not row.accepted
    kept_obj = result.trace[f - 1].objective if f else \
        result.initial_objective
    assert row.objective == kept_obj
    assert result.rejected_solve == 1
    assert result.rejected_moves == 1 + result.rejected_metropolis
    (_, warm, failed, state, *_), (_, next_warm, next_phases, *_) = \
        solves[i], solves[i + 1]
    kept = next((p for step, _, p, *_ in solves[:i][::-1]
                 if result.trace[step].accepted), phases)
    assert np.count_nonzero(failed.labels != kept.labels) == 2
    assert np.count_nonzero(next_phases.labels != kept.labels) == 2
    assert next_warm is warm
    assert not np.array_equal(result.best_state.positions, state.positions)
    assert not np.array_equal(result.best_phases.labels, failed.labels)


@pytest.mark.parametrize("stage", [1, 2])
def test_failed_extraction_at_either_stage_rejects_the_interface(
        monkeypatch, stage):
    """An interface that fails extraction at stage 1 (the candidate's at
    the accepted positions) or in stage 2's reverse term (the accepted
    labels' at the candidate's positions) rejects the move as
    `rejected_interface`, not as a Metropolis rejection.  The topology is
    left with the accepted labels: every later interface is read from the
    topology of its own labels, and the run goes on accepting."""
    import sharptop.topopt as topopt
    from sharptop.varifold import InterfaceError
    real, calls, failed = topopt._interface_terms, [], []
    mesh, phases, model = loaded_run_inputs()

    def terms(mesh, state, labels, model, mode, topology):
        assert np.array_equal(topology.labels, labels.labels)
        calls.append(labels)
        reverse = len(calls) > 1 and labels is phases
        if not failed and (reverse if stage == 2 else len(calls) == 2):
            failed.append(len(calls))
            raise InterfaceError("degenerate interface triangle")
        return real(mesh, state, labels, model, mode, topology)

    monkeypatch.setattr(topopt, "_interface_terms", terms)
    config = replace(fast_config(seed=0), t_initial=100.0, t_final=20.0)
    result = optimize_topology(mesh, phases, model, config)
    assert failed and len(calls) > failed[0]
    assert result.rejected_interface == 1
    assert result.rejected_moves == 1 + result.rejected_metropolis
    assert result.accepted_moves > 0


ORACLE_CASES = {
    # equal phases under zero load: every candidate but the cold restarts'
    # is inert; 25 steps per temperature pass a cold restart
    "referential-3": (3, REFERENTIAL, {}, 11, 25),
    "referential-5": (5, REFERENTIAL, {}, 16, 5),
    # referential energies from the terms of uneven faces, on a box
    # jittered by 0.002 cells: small enough to keep swaps volume-matched
    "referential-jittered-4": (4, REFERENTIAL, {}, 17, 5, 0.002),
    # a traction and a stiff phase 1: candidates that pass stage 1 take
    # steps, and stage 1 rejects some unsolved
    "loaded-3": (3, EULERIAN, {"scale0": 0.2, "g": [0.0, 0.0, 1.0]}, 13, 5),
    "loaded-4": (4, EULERIAN, {"scale0": 0.2, "g": [0.0, 0.0, 1.0]}, 21, 5),
    # equal phases under a body load: every candidate builds its own load
    # vector, and is solved
    "body-load-4": (4, EULERIAN, {"f": [0.0, 0.0, 7.9e-5]}, 14, 5),
    # unequal phases under zero load: the identity stays stationary, but a
    # swap is not inert, so every candidate is solved and takes no step
    "unequal-unloaded-3": (3, EULERIAN, {"scale0": 0.2}, 4, 5),
    # equal phases under a traction: swaps are inert, so every candidate
    # but a cold restart's keeps the accepted solve
    "traction-equal-3": (3, EULERIAN, {"g": [0.0, 0.0, 1.0]}, 13, 5),
    "traction-equal-4": (4, EULERIAN, {"g": [0.0, 0.0, 0.5]}, 7, 5),
    # cold: Metropolis rejects most candidates, so most are decided from
    # the look-ahead's scored energy changes, not by full passes
    "referential-cold-4": (4, REFERENTIAL, {}, 29, 10),
    # referential energies with a traction and a stiff phase 1: stage 1
    # rejects some candidates unsolved, and the others are solved
    "referential-loaded-4": (4, REFERENTIAL,
                             {"scale0": 0.2, "g": [0.0, 0.0, 1.0]}, 23, 5),
}
# (t_initial, t_final) of a case, where not hot enough that most moves are
# accepted
ORACLE_TEMPERATURES = {"referential-cold-4": (0.05, 0.001)}


def oracle_run_inputs(case):
    """The mesh, start labels, model and config of an `ORACLE_CASES`
    entry."""
    n, mode, loads, seed, steps, *jitter = ORACLE_CASES[case]
    if jitter:
        mesh = jittered_box_mesh((n, n, n), np.random.default_rng(seed),
                                 *jitter)
        model = annealing_model()
    elif not loads:
        mesh, model = pinned_mesh(n), annealing_model()
    else:
        mesh = st.build_box_mesh(n, n, n, tagging=clamp_bottom_pull_top)
        model = st.EnergyModel(r=4, s=stress_free_s(4), **loads)
    t_initial, t_final = ORACLE_TEMPERATURES.get(case, (100.0, 20.0))
    config = replace(fast_config(mode=mode, seed=seed), t_initial=t_initial,
                     t_final=t_final, steps_per_temperature=steps)
    return mesh, perturbed_slab_labels(mesh, 0, seed, flips=1), model, config


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_annealing_matches_full_recompute_oracle(case):
    """From equal seeds the annealer, with its kept interface topology,
    stored-term referential energies, kept solve for inert candidates and
    scored look-ahead, gives the trace, counts and best labels of one that
    extracts in full and solves in full every candidate that passes stage
    1; both decide every candidate in the same two stages."""
    mesh, phases, model, config = oracle_run_inputs(case)
    result = optimize_topology(mesh, phases, model, config)
    trace, accepted, rejected, best, stages = brute_force_annealing(
        mesh, phases, model, config)
    assert result.trace == trace
    assert (result.accepted_moves, result.rejected_moves) == (accepted,
                                                              rejected)
    assert accepted > 0
    assert np.array_equal(result.best_phases.labels, best)
    proposals = len(trace) - result.rejected_no_move
    if model.scale0 == model.scale1 and not np.any(model.f):
        # inert: stage 1 decides every candidate that keeps the accepted
        # solve, and stage 2 draws nothing for a cold one, whose solve
        # returns the accepted state
        assert stages["drawn"] == 0
        assert result.surrogate_rejections <= stages["surrogate"]
        assert result.skipped_solves == proposals - (
            case == "referential-3")   # one cold restart
    else:
        assert result.surrogate_rejections == stages["surrogate"]
        assert result.skipped_solves == 0
    if case == "referential-3":
        assert accepted > COLD_SOLVE_EVERY
    elif case == "referential-cold-4":
        assert result.lookahead_decisions > proposals // 2
    elif case == "unequal-unloaded-3":
        assert (accepted, len(trace)) == (12, 15)
        assert result.inner_iterations == 0
    elif case in ("loaded-3", "loaded-4", "referential-loaded-4"):
        # stage 1 rejects some candidates unsolved, the others are solved
        assert stages["surrogate"] > 0 and stages["solved"] > 0
        assert result.inner_iterations > 0
    if case in ("loaded-3", "loaded-4"):
        # and stage 2 accepts by its draws
        assert stages["drawn"] >= stages["accepted_drawn"] > 0


def test_stage_one_rejection_runs_no_solve(monkeypatch):
    """A referential candidate that stage 1 rejects runs no `_descend`:
    the run's proposal solves are its candidates less those rejected at
    stage 1 (from scores or by a full pass), and it has some of each."""
    import sharptop.topopt as topopt
    real, calls = topopt._descend, []

    def counted(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(topopt, "_descend", counted)
    mesh, phases, model, config = oracle_run_inputs("referential-loaded-4")
    result = optimize_topology(mesh, phases, model, config)
    candidates = (len(result.trace) - result.rejected_no_move
                  - result.rejected_interface)
    assert result.surrogate_rejections > 0 and calls
    assert len(calls) == candidates - result.surrogate_rejections


def cold_referential_run():
    """The mesh, start labels and config of `ORACLE_CASES`'s
    referential-cold-4, whose candidates are mostly rejected."""
    mesh, phases, _, config = oracle_run_inputs("referential-cold-4")
    return mesh, phases, config


def test_unbounded_scores_decide_nothing(monkeypatch):
    """A scored change decides a rejection only when its bound keeps the
    full recompute's change positive and beyond the uniform's reach.
    With every bound made infinite, every candidate falls back to the
    full pass, and the cold run keeps the full-recompute oracle's trace."""
    import sharptop.topopt as topopt
    scored = topopt.swap_energy_changes

    def unbounded(*args):
        *changes, bound = scored(*args)
        return (*changes, bound + np.inf)
    monkeypatch.setattr(topopt, "swap_energy_changes", unbounded)
    mesh, phases, config = cold_referential_run()
    model = annealing_model()
    result = optimize_topology(mesh, phases, model, config)
    assert result.lookahead_decisions == 0
    assert result.rejected_metropolis > 0
    assert result.trace == brute_force_annealing(mesh, phases, model,
                                                 config)[0]


def test_lookahead_changes_only_the_work(monkeypatch):
    """A cold referential run with the look-ahead gives the result of one
    without it, whose every candidate is tried on the topology and
    recomputed in full: the same trace, counts by cause, non-manifold
    draws, skipped solves and best labels.  Both call
    `mass_preserving_move` once per step: the look-ahead reads the move
    stream's coming rows without calling it."""
    import sharptop.topopt as topopt
    real, calls = topopt.mass_preserving_move, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(topopt, "mass_preserving_move", counted)
    mesh, phases, config = cold_referential_run()
    runs = [optimize_topology(mesh, phases, annealing_model(), config)]
    monkeypatch.setattr(topopt._LookAhead, "fill", lambda self: None)
    runs.append(optimize_topology(mesh, phases, annealing_model(), config))
    ahead, plain = runs
    assert len(calls) == 2 * len(ahead.trace) == 120
    assert ahead.lookahead_decisions > plain.lookahead_decisions == 0
    assert ahead.nonmanifold_draws > 0
    for name in ("trace", "accepted_moves", "rejected_moves",
                 "rejected_no_move", "rejected_interface", "rejected_solve",
                 "rejected_metropolis", "nonmanifold_draws", "skipped_solves",
                 "best_objective", "final_mass"):
        assert getattr(ahead, name) == getattr(plain, name), name
    assert np.array_equal(ahead.best_phases.labels, plain.best_phases.labels)


class _Uniforms:
    """A stand-in for the uniform stream: every draw is `u`."""

    def __init__(self, u):
        self.u, self.drawn = u, 0

    def random(self):
        self.drawn += 1
        return self.u


@settings(max_examples=300)
@given(t=hs.floats(1e-6, 1e6), u=hs.floats(0.0, 1.0, exclude_max=True),
       ratios=hs.lists(hs.floats(-1e4, 1e4), min_size=3, max_size=3))
@example(t=1.0, u=0.5, ratios=[3.0, 3.0, -3.0])         # exact surrogate
@example(t=1e-6, u=0.0, ratios=[1e4, -1e4, 1e4])
@example(t=1e6, u=0.999, ratios=[-1e4, 1e4, -1e4])
def test_second_stage_keeps_detailed_balance(t, u, ratios):
    """For an objective change d, stage-1 surrogate changes d1 (forward)
    and d2 (reverse) and any T > 0, with a1(x->y) = min(1, exp(-d1 / T))
    and a2 the second stage's probability: a1(x->y) a2(x->y) =
    exp(-d / T) a1(y->x) a2(y->x), the reverse move swapping d1 and d2
    and negating d.  Nothing overflows at |d| / T, |d1| / T and |d2| / T
    up to 1e4.  A uniform is drawn only when log a2 < 0, and the
    candidate is accepted when it is below a2."""
    delta, forward, reverse = (r * t for r in ratios)
    draws = _Uniforms(u)
    log_a2, accepted = _second_stage(delta, forward, reverse, t, draws)
    log_b2 = _second_stage(-delta, reverse, forward, t, _Uniforms(u))[0]
    assert math.isfinite(log_a2) and math.isfinite(log_b2)
    assert log_a2 <= 0 and log_b2 <= 0
    there = -max(forward, 0.0) / t + log_a2
    back = -delta / t - max(reverse, 0.0) / t + log_b2
    scale = 1.0 + sum(map(abs, ratios))
    assert math.isclose(there, back, rel_tol=0.0, abs_tol=1e-13 * scale)
    assert draws.drawn == (log_a2 < 0)
    assert accepted == (log_a2 == 0 or u < math.exp(log_a2))


def test_rejections_add_up_by_cause():
    mesh = pinned_mesh(4)
    result = optimize_topology(mesh, perturbed_slab_labels(mesh, 1, 6, 2),
                               annealing_model(), fast_config(seed=5))
    causes = (result.rejected_no_move, result.rejected_interface,
              result.rejected_solve, result.rejected_metropolis)
    assert sum(causes) == result.rejected_moves
    assert result.rejected_metropolis > 0
    assert result.nonmanifold_draws > 0


def test_inert_candidates_run_no_mechanics(monkeypatch):
    """With equal phase scales and no body load a swap changes no term of
    the equilibrium problem, so a candidate keeps the accepted state and
    compliance: it runs no kinematics, constitutive kernel, corner forces
    or compliance, and neither the inner solve nor a gradient.  The run's
    one solve, with its one pass of each kernel, and its one compliance
    are its start's."""
    import sharptop.energy as energy
    import sharptop.solve as solve
    import sharptop.topopt as topopt
    modules = {"deformation_minors": solve, "Bulk": solve,
               "corner_forces": energy, "equilibrium_gradient": solve,
               "compliance": topopt, "minimize_equilibrium": topopt,
               "_descend": topopt}
    calls = dict.fromkeys(modules, 0)

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name, module in modules.items():
        counted(module, name)
    mesh = pinned_mesh(4)
    result = optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0),
                               annealing_model(), fast_config(seed=3))
    proposals = len(result.trace) - result.rejected_no_move
    assert result.skipped_solves == proposals > 0
    assert result.inner_iterations == 0
    assert calls == {"deformation_minors": 1, "Bulk": 1, "corner_forces": 1,
                     "equilibrium_gradient": 1, "compliance": 1,
                     "minimize_equilibrium": 1, "_descend": 0}


def test_referential_run_reads_the_energy_once_per_candidate(monkeypatch):
    """A referential run extracts no interface and runs no full curvature
    pass, for its start or for any proposal: it reads the interface
    energy from `referential_energy` once for the start and once per
    candidate whose rejection the look-ahead's scored energy changes did
    not decide."""
    import sharptop.topopt as topopt
    import sharptop.varifold as varifold
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(topopt, "extract_interface")
    counted(varifold, "extract_interface")
    counted(varifold, "discrete_curvature_inplace")
    counted(topopt, "referential_energy")
    counted(topopt, "swap_energy_changes")
    mesh = pinned_mesh(4)
    result = optimize_topology(mesh, slab_labels(mesh, 0.5, axis=0),
                               annealing_model(),
                               fast_config(mode=REFERENTIAL, seed=3))
    candidates = len(result.trace) - result.rejected_no_move
    assert candidates >= result.lookahead_decisions > 0
    assert sorted(set(calls)) == ["referential_energy", "swap_energy_changes"]
    assert calls.count("referential_energy") \
        == 1 + candidates - result.lookahead_decisions


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


def test_inert_swap_leaves_the_gradient_as_it_is():
    """With equal phase scales and no body load, a swap leaves the
    equilibrium gradient and objective as they are, bit for bit, at random
    deformed states, swaps and tractions on box and jittered meshes, which
    is why an inert candidate keeps the accepted solve.  Unequal scales,
    or a body load, move both."""
    kinds = set()

    @settings(max_examples=30, deadline=None)
    @given(jittered=hs.booleans(), seed=hs.integers(0, 2**16),
           scale=hs.floats(0.1, 10.0),
           g=hs.lists(hs.floats(-2.0, 2.0), min_size=3, max_size=3))
    def check(jittered, seed, scale, g):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(2, 5, 3))
        mesh = (jittered_box_mesh(dims, rng, 0.2) if jittered else
                st.build_box_mesh(*dims, tagging=clamp_bottom_pull_top))
        state = random_feasible_state(mesh, scale=0.005, seed=seed)
        phases = perturbed_slab_labels(mesh, int(rng.integers(3)), seed, 1)
        swapped = phases.with_swap(
            tet_to_0=rng.choice(np.flatnonzero(phases.labels == 1)),
            tet_to_1=rng.choice(np.flatnonzero(phases.labels == 0)))
        inert = st.EnergyModel(r=4, s=3.0, scale0=scale, scale1=scale, g=g)
        for model in (inert, replace(inert, scale0=0.5 * scale),
                      replace(inert, f=[0.0, 0.0, 1.0])):
            grads, objectives = zip(*(
                (st.equilibrium_gradient(mesh, state, labels, model),
                 st.equilibrium_objective(mesh, state, labels, model))
                for labels in (phases, swapped)))
            assert np.array_equal(*grads) == (model is inert)
            assert (objectives[0] == objectives[1]) == (model is inert)
        kinds.add(jittered)

    check()
    assert kinds == {False, True}
