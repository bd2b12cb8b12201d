"""Outer optimization over phase labelings by simulated annealing.

The design variable is genuinely binary per tet, so moves are
mass-preserving label swaps (biased toward the current interface) with
Metropolis acceptance on compliance + interface energy.  A proposal
that is solved is re-equilibrated by the inner solver, warm started
from the previous equilibrium.

A proposal costs work in the two swapped tets, not in the mesh, where
it can.  The annealer keeps the labeling's `InterfaceTopology` and
updates it per swap, so drawing a candidate and checking it for
non-manifold edges visit only the swapped tets' faces and edges, and
extraction reads its cut faces, flips and edge counts from it.

Every candidate is decided in two stages (Christen and Fox 2005, MCMC
using an approximation).  Stage 1 holds the accepted state: the change
d1 is the accepted compliance plus the candidate's interface energy,
less the accepted objective.  That energy is extracted at the accepted
positions, or in referential mode read by `referential_energy`, one
pass over the cut faces' terms stored on the mesh.  When d1 is not
negative, stage 1 draws the Metropolis stream's next uniform and
rejects the candidate unsolved unless it lies below exp(-d1 / T).  With
equal phase scales and no body load a swap is inert: the bulk weights
and the load vector do not depend on the labels, so a candidate's
equilibrium problem is the accepted one, whose state came from a
converged solve.  Such a candidate keeps that state and compliance and
runs no mechanics, so d1 is its exact change and stage 1 is final.
Stage 2 solves every other candidate, warm started from the accepted
state, and accepts by `_second_stage`, which draws a second uniform
only when its ratio is below one.  While the accepted-move count is a
positive multiple of `COLD_SOLVE_EVERY`, every proposal is solved from
the identity (a cold start) until one of them is accepted.

A solved proposal pays for its iterations and little else.  Every
solve of a run is preconditioned by one `Preconditioner`, the start
labeling's: H0 only steers the descent, so any fixed SPD operator
leaves each solve correct.  Its factor is built by the first solve that
takes a step, so a run in which none does builds none.  With equal
phase scales it is every candidate's own; with unequal ones its weights
differ from a candidate's in the tets whose labels differ from the
start's.  A proposal's solve skips the solver's closing
self-intersection check: the annealer checks only the states it keeps,
its start (`minimize_equilibrium` checks it) and a candidate that
stage 2 accepts and that its solve did not check on its last iteration.
A candidate that fails that check is a rejected solve.

Moves and Metropolis uniforms come from two streams spawned from the
seed, so the draws of the coming moves do not depend on the decisions
made before them.  A referential proposal can be rejected at stage 1
without a full pass.  While at most `LOOK_AHEAD_ACCEPTS` of the last
`LOOK_AHEAD` steps were accepted, the annealer reads the move stream
ahead: it maps the next `LOOK_AHEAD` rows of draws to swaps of the
accepted labeling through `_swaps`, as `mass_preserving_move` maps
them, and scores them in one call of `varifold.swap_energy_changes`.
The scores, and which swaps are admissible, hold until the next
accepted move; a swap drawn that was not scored is a miss, which the
full pass decides.  A move's swap of known admissibility is not applied
to the topology unless a full pass or an acceptance needs it.  A scored
candidate is rejected without a full pass when its d1, less its bound
and a rounding allowance (`_least_change`), is positive and its uniform
lies above exp(-d1 / T) at that least change; every other candidate
runs the full pass.  So every decision, both streams and the trace are
those of a full pass per proposal.
"""

from collections import deque
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import bulk_weights, load_potential, load_vector
from .kinematics import boundary_self_intersects, identity_state
from .solve import (Preconditioner, SolveOptions, _check_count, _descend,
                    minimize_equilibrium)
from .varifold import (ROUNDING, InterfaceError, InterfaceTopology,
                       PhaseLabeling, extract_interface, interface_energy,
                       referential_energy, swap_energy_changes, varifold_mass)

EULERIAN = "EULERIAN"
REFERENTIAL = "REFERENTIAL"
SWAP_VOLUME_RTOL = 0.01    # relative volume mismatch a swap may carry
MOVE_TRIES = 50             # candidates drawn before a move gives up
INTERFACE_MOVE_BIAS = 0.9   # probability of interface-local swaps
COLD_SOLVE_EVERY = 50       # proposals start cold at accepted counts k * this
LOOK_AHEAD = 16             # move draws read and scored ahead per kernel call
LOOK_AHEAD_ACCEPTS = 3      # most acceptances in the last LOOK_AHEAD steps


@dataclass(frozen=True)
class TopOptConfig:
    mode: str = EULERIAN
    eta: float = 0.5
    t_initial: float = 1.0
    t_decay: float = 0.85           # geometric temperature decay
    steps_per_temperature: int = 20
    t_final: float = 1e-3
    solve_options: SolveOptions = field(default_factory=SolveOptions)
    seed: int = 0
    snapshot_every: int = 0         # accepted moves between snapshots (0 = off)

    def __post_init__(self):
        if self.mode not in (EULERIAN, REFERENTIAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")
        if not (0 < self.t_initial < np.inf and 0 < self.t_final < np.inf):
            raise ValueError("temperatures must be positive and finite")
        if not 0 < self.t_decay < 1:
            raise ValueError("decay must lie in (0, 1)")
        _check_count("steps_per_temperature", self.steps_per_temperature, 1)
        _check_count("snapshot_every", self.snapshot_every, 0)


class TopOptError(Exception):
    pass


def compliance(mesh, state, phases, model, loads=None):
    """C(y, phi): work of loads on the equilibrium deformation; `loads`
    is the labeling's `load_vector`, when the caller has it."""
    return load_potential(mesh, state, phases, model, loads)


def objective(mesh, state, phases, model, mode=EULERIAN):
    """Compliance plus interface energy (Eulerian or referential placement).

    In referential mode the interface is extracted at the reference
    positions; in Eulerian mode at the deformed positions.
    """
    positions = mesh.vertices if mode == REFERENTIAL else state.positions
    V = extract_interface(mesh, state, phases, positions=positions)
    return compliance(mesh, state, phases, model) + interface_energy(V, model)


def mass_preserving_move(mesh, phases, rng,
                         interface_bias=INTERFACE_MOVE_BIAS, topology=None):
    """Propose a label swap keeping the phase-1 volume fixed.

    Swaps one phase-1 tet to 0 and one phase-0 tet to 1, biased toward
    interface-adjacent tets; candidates must be volume-matched within
    SWAP_VOLUME_RTOL (exact for uniform meshes).  Proposals leaving
    non-manifold interface edges are rejected and retried; that topology
    check is all a reference-position extraction could reject.  Each try
    draws one row of three uniforms, `rng.random((1, 3))`, which `_swaps`
    maps to a swap.  `topology` is the `InterfaceTopology` of `phases`,
    built here when not given; the accepted swap is applied to it
    (`topology.undo()` reverses it).
    """
    if topology is None:
        topology = InterfaceTopology(mesh, phases)
    if not all(map(len, topology.tets())):
        raise TopOptError("no admissible move: a phase is empty")
    for _ in range(MOVE_TRIES):
        (src,), (dst,), (matched,) = _swaps(mesh, topology,
                                            rng.random((1, 3)), interface_bias)
        if matched and topology.try_swap(int(src), int(dst)):
            return phases.with_swap(tet_to_0=src, tet_to_1=dst)
    raise TopOptError("no admissible move found (frozen configuration)")


def _swaps(mesh, topology, rows, bias):
    """The swaps (tet to 0, tet to 1) that the draws `rows` (n, 3) give on
    `topology`'s labeling, neither of whose phases is empty, and whether
    each is volume-matched within SWAP_VOLUME_RTOL, as three (n,) arrays.

    A row (u, a, b) picks from the `near` lists when u < bias and neither
    of them is empty, and from the `tets` lists otherwise: the tet to 0
    at floor(a * n1) of the phase-1 list of n1 tets, the tet to 1 at
    floor(b * n0) of the phase-0 one."""
    near = topology.near()
    local = (rows[:, 0] < bias) & all(map(len, near))
    ends = []
    for near_k, tets_k, u in zip(near, topology.tets(), rows[:, 1:].T):
        end = tets_k[(u * len(tets_k)).astype(np.intp)]
        end[local] = near_k[(u[local] * len(near_k)).astype(np.intp)]
        ends.append(end)
    va, vb = mesh.volumes[ends[0]], mesh.volumes[ends[1]]
    return (*ends, np.abs(va - vb) <= SWAP_VOLUME_RTOL * np.maximum(va, vb))


class _LookAhead:
    """A read-ahead buffer on the annealer's move stream, the referential
    energy changes of the swaps that its rows give at the accepted
    labeling, and a stand-in for that labeling's `InterfaceTopology` in
    `mass_preserving_move`.

    `fill` reads the stream ahead to LOOK_AHEAD unread rows, maps them
    through `_swaps` and scores the volume-matched swaps in one call of
    `swap_energy_changes`; `random` hands the moves the rows in stream
    order.  A swap's change and admissibility depend on the labeling
    alone, so they hold until the accepted labeling changes (`reset`).
    `try_swap` answers a swap of known admissibility without applying
    it; `apply` applies it to the topology when a full pass or an
    acceptance needs it, and `undo` reverses it if it was applied.
    """

    def __init__(self, topology, model, rng):
        self.topology, self.model, self.rng = topology, model, rng
        self.rows = np.empty((0, 3))   # read from `rng`, not yet drawn
        self.mapped = 0   # leading rows mapped at the accepted labeling
        # swap -> (whether try_swap keeps it, energy change, its bound)
        self.scored = {}
        self.last_swap, self.applied = None, False

    def reset(self):
        self.scored.clear()
        self.mapped = 0

    def random(self, size):
        """The move stream's next `size` (k, 3) uniforms, the rows read
        ahead first."""
        k = size[0]
        rows = np.concatenate([self.rows[:k], self.rng.random(
            (max(k - len(self.rows), 0), 3))])
        self.rows, self.mapped = self.rows[k:], max(self.mapped - k, 0)
        return rows

    def near(self):
        return self.topology.near()

    def tets(self):
        return self.topology.tets()

    def try_swap(self, tet_to_0, tet_to_1):
        swap = tet_to_0, tet_to_1
        kept = self.scored.get(swap, (None,))[0]
        self.applied = kept is None
        if self.applied:   # unchecked: the topology tries it
            kept = self.topology.try_swap(*swap)
        elif not kept:
            self.topology.rejected_swaps += 1
        self.last_swap = swap
        return kept

    def apply(self):
        if not self.applied:
            self.topology.swap(*self.last_swap)
            self.applied = True

    def undo(self):
        if self.applied:
            self.topology.undo()

    def fill(self):
        """Read ahead to LOOK_AHEAD unread rows and score, in one call, the
        volume-matched swaps that they give and that are not yet scored."""
        topology = self.topology
        if not all(map(len, topology.tets())):
            return   # the moves find none
        self.rows = np.concatenate([self.rows, self.rng.random(
            (LOOK_AHEAD - len(self.rows), 3))])
        self.mapped = LOOK_AHEAD
        tet_to_0, tet_to_1, matched = _swaps(topology.mesh, topology,
                                             self.rows, INTERFACE_MOVE_BIAS)
        swaps = [swap for swap in dict.fromkeys(zip(
            tet_to_0[matched].tolist(), tet_to_1[matched].tolist()))
            if swap not in self.scored]
        if swaps:
            admissible, _, energy, bound = swap_energy_changes(
                topology, *np.array(swaps).T, self.model)
            self.scored.update(zip(swaps, zip(
                admissible.tolist(), energy.tolist(), bound.tolist())))

    def change(self):
        """The scored energy change of the move's swap and its bound, or
        None when the swap was not scored or is degenerate."""
        scored = self.scored.get(self.last_swap)
        return None if scored is None or math.isnan(scored[1]) \
            else scored[1:]


def _least_change(scored, comp, eint, obj):
    """The least stage-1 change that the full pass can find for a
    candidate whose interface energy change was scored as (change, bound),
    from an accepted labeling of compliance `comp`, interface energy
    `eint` and objective `obj`: the scored change less its bound and the
    rounding of the two energies and objectives (nan when the change is)."""
    change, bound = scored
    return comp + (eint + change) - obj - bound - 2.0 * ROUNDING * (
        abs(comp) + (eint + abs(change) + bound))


def _second_stage(delta, forward, reverse, temperature, rng):
    """Delayed acceptance's second stage for an objective change `delta`
    whose stage-1 surrogate change was `forward` and whose reverse move's
    is `reverse`: the log of min(1, exp(-delta / T) a1(y->x) / a1(x->y)),
    a1 = min(1, exp(-surrogate / T)), and whether the candidate is
    accepted, drawing a uniform from `rng` only when that log is < 0."""
    log_alpha = min(0.0, -(delta + max(reverse, 0.0) - max(forward, 0.0))
                    / temperature)
    return log_alpha, not log_alpha < 0 or rng.random() < math.exp(log_alpha)


@dataclass
class TraceRow:
    step: int
    temperature: float
    objective: float
    compliance: float
    interface_energy: float
    mass: float
    accepted: bool


@dataclass
class TopOptResult:
    best_state: object
    best_phases: PhaseLabeling
    best_objective: float
    trace: list
    initial_objective: float
    initial_mass: float
    final_mass: float
    accepted_moves: int
    rejected_moves: int
    # rejected moves by cause; the four add up to rejected_moves
    rejected_no_move: int = 0       # MOVE_TRIES draws found no candidate
    rejected_interface: int = 0     # the candidate's interface failed
    rejected_solve: int = 0         # not converged, or crossed itself
    rejected_metropolis: int = 0
    nonmanifold_draws: int = 0      # drawn swaps dropped as non-manifold
    skipped_solves: int = 0         # inert candidates, kept unsolved
    inner_iterations: int = 0       # iterations of the solves that ran
    injectivity_checks: int = 0     # boundary self-intersection checks
    lookahead_decisions: int = 0    # rejections decided from scored changes
    surrogate_rejections: int = 0   # stage-1 rejections of unkept candidates


def _interface_terms(mesh, state, phases, model, mode, topology):
    """A candidate's interface energy and mass; `topology` is the
    `InterfaceTopology` of `phases`."""
    if mode == REFERENTIAL:
        return referential_energy(topology, model)
    V = extract_interface(mesh, state, phases, topology=topology)
    return interface_energy(V, model), varifold_mass(V)


def optimize_topology(mesh, init_phases, model, config, state0=None,
                      snapshot_callback=None):
    """Simulated annealing over labelings with inner equilibrium solves."""
    # moves and Metropolis uniforms come from two streams of the seed
    move_rng, uniform_rng = map(
        np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2))
    target = config.eta * mesh.total_volume()
    mass = init_phases.phase1_volume(mesh)
    if abs(mass - target) > mesh.volumes.max() + 1e-9 * mesh.total_volume():
        raise TopOptError("initial labeling violates the mass constraint")

    state = state0 or identity_state(mesh)
    phases = init_phases
    topology = InterfaceTopology(mesh, phases)
    # with no body load the load vector does not depend on the labels,
    # and with equal phase scales neither do the bulk weights: a swap is
    # inert, it changes no term of the equilibrium problem
    loads = None if np.any(model.f) else load_vector(mesh, phases, model)
    inert = model.scale0 == model.scale1 and loads is not None
    factor = Preconditioner(mesh, ~state.dirichlet_mask,
                            bulk_weights(mesh, phases, model), model)
    iterations = checks = 0

    def checked_solve(warm_state, phases):
        """`minimize_equilibrium`, which checks the state it returns."""
        state, report = minimize_equilibrium(
            mesh, warm_state, phases, model, config.solve_options,
            factor=factor)
        return state, report, None

    def proposal_solve(warm_state, phases):
        """The descent alone: the annealer checks the states it keeps."""
        return _descend(mesh, warm_state, phases, model,
                        config.solve_options, factor)

    def solve(phases, warm_state, run=proposal_solve):
        """The equilibrium state and compliance of `phases`, and whether
        that state's boundary is still to be checked."""
        nonlocal iterations, checks
        state, report, passed = run(warm_state, phases)
        iterations += report.iterations
        checks += report.injectivity_checks
        if not report.converged and not np.array_equal(warm_state.positions,
                                                       mesh.vertices):
            # one retry from a cold start, unless this solve was one: the
            # solve is deterministic and would fail again
            state, report, passed = run(identity_state(mesh), phases)
            iterations += report.iterations
            checks += report.injectivity_checks
        if not report.converged:
            raise TopOptError("inner equilibrium solve did not converge")
        return (state, compliance(mesh, state, phases, model, loads),
                passed is not None)

    def reverse_energy(cand_state):
        """The accepted labeling's interface energy at `cand_state`'s
        positions, the candidate's swap undone on the topology for the
        extraction and redone after it."""
        swap = topology.last_swap
        topology.undo()
        try:
            return _interface_terms(mesh, cand_state, phases, model, EULERIAN,
                                    topology)[0]
        finally:
            topology.swap(*swap)

    state, comp, _ = solve(phases, state, checked_solve)
    eint, mu = _interface_terms(mesh, state, phases, model, config.mode,
                                topology)
    obj = comp + eint
    best = (state, phases, obj)
    initial_obj, initial_mu = obj, mu

    trace = []
    accepted_total = 0
    rejected = dict.fromkeys(("no_move", "interface", "solve", "metropolis"),
                             0)
    skipped = decided = surrogate = 0
    recent = deque(maxlen=LOOK_AHEAD)   # whether each recent step accepted
    ahead = _LookAhead(topology, model, move_rng) \
        if config.mode == REFERENTIAL else None
    # what the moves draw from, and what they swap
    draws, moves = (move_rng, topology) if ahead is None else (ahead, ahead)
    step = 0
    temperature = config.t_initial
    while temperature > config.t_final:
        failed = dict.fromkeys(("no_move", "interface", "solve"), 0)
        for _ in range(config.steps_per_temperature):
            step += 1
            cause = uniform = None
            if (ahead is not None and not ahead.mapped
                    and sum(recent) <= LOOK_AHEAD_ACCEPTS):
                ahead.fill()
            try:
                candidate = mass_preserving_move(mesh, phases, draws,
                                                 topology=moves)
            except TopOptError:
                cause = "no_move"
            cold = accepted_total and accepted_total % COLD_SOLVE_EVERY == 0
            # an inert candidate keeps the accepted solve: stage 1 is final
            kept = cause is None and inert and not cold
            skipped += kept
            scored = None if cause or ahead is None else ahead.change()
            if scored is not None:
                # the scored change decides a stage-1 rejection that no
                # rounding of the full pass could turn; the rest run it
                low = _least_change(scored, comp, eint, obj)
                if low > 0:
                    uniform = uniform_rng.random()
                    if uniform >= math.exp(-low / temperature) * (1 + ROUNDING):
                        decided += 1
                        cause = "metropolis"
            if cause is None:
                # stage 1: the change with the accepted state held
                if ahead is not None:
                    ahead.apply()
                try:
                    c_eint, c_mu = _interface_terms(mesh, state, candidate,
                                                    model, config.mode,
                                                    topology)
                except InterfaceError:
                    cause = "interface"
                else:
                    d1 = comp + c_eint - obj
                    if uniform is None and not d1 < 0:
                        uniform = uniform_rng.random()
                    if not (d1 < 0 or uniform < math.exp(-d1 / temperature)):
                        cause = "metropolis"
            surrogate += cause == "metropolis" and not kept
            cand_state, c_comp, unchecked = state, comp, False
            if cause is None and not kept:
                # stage 2: the solve, and the reverse move's stage-1
                # interface energy, the accepted labels' at its positions
                try:
                    cand_state, c_comp, unchecked = solve(
                        candidate, identity_state(mesh) if cold else state)
                    x_eint = eint
                    if config.mode == EULERIAN:
                        c_eint, c_mu = _interface_terms(
                            mesh, cand_state, candidate, model, EULERIAN,
                            topology)
                        x_eint = reverse_energy(cand_state)
                except InterfaceError:
                    cause = "interface"
                except TopOptError:
                    cause = "solve"
                else:
                    cand_obj = c_comp + c_eint
                    if not _second_stage(cand_obj - obj, d1,
                                         c_comp + x_eint - cand_obj,
                                         temperature, uniform_rng)[1]:
                        cause = "metropolis"
            if cause is None and unchecked:   # a kept state is injective
                checks += 1
                if boundary_self_intersects(mesh, cand_state.positions):
                    cause = "solve"
            recent.append(cause is None)
            if cause is not None:
                if cause != "no_move":
                    moves.undo()
                if cause != "metropolis":
                    failed[cause] += 1
                rejected[cause] += 1
                trace.append(TraceRow(step, temperature, obj, comp, eint,
                                      mu, False))
                continue
            state, phases = cand_state, candidate
            if ahead is not None:
                ahead.reset()
            obj, comp, eint, mu = c_comp + c_eint, c_comp, c_eint, c_mu
            accepted_total += 1
            if obj < best[2]:
                best = (state, phases, obj)
            if (config.snapshot_every and snapshot_callback
                    and accepted_total % config.snapshot_every == 0):
                snapshot_callback(step, state, phases)
            trace.append(TraceRow(step, temperature, obj, comp, eint, mu,
                                  True))
        if sum(failed.values()) > config.steps_per_temperature // 2:
            raise TopOptError(
                f"more than half the moves failed at T={temperature}: "
                f"{failed['no_move']} found no move, {failed['interface']} "
                f"failed interface extraction and {failed['solve']} failed "
                f"inner solves, of {config.steps_per_temperature}")
        temperature *= config.t_decay

    return TopOptResult(best_state=best[0], best_phases=best[1],
                        best_objective=best[2], trace=trace,
                        initial_objective=initial_obj, initial_mass=initial_mu,
                        final_mass=mu, accepted_moves=accepted_total,
                        rejected_moves=sum(rejected.values()),
                        rejected_no_move=rejected["no_move"],
                        rejected_interface=rejected["interface"],
                        rejected_solve=rejected["solve"],
                        rejected_metropolis=rejected["metropolis"],
                        nonmanifold_draws=topology.rejected_swaps,
                        skipped_solves=skipped, inner_iterations=iterations,
                        injectivity_checks=checks, lookahead_decisions=decided,
                        surrogate_rejections=surrogate)
