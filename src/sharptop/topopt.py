"""Outer optimization over phase labelings by simulated annealing.

The design variable is genuinely binary per tet, so moves are
mass-preserving label swaps (biased toward the current interface) with
Metropolis acceptance on compliance + interface energy.  Each proposal is
re-equilibrated by the inner solver, warm started from the previous
equilibrium.

A proposal costs work in the two swapped tets, not in the mesh, where
it can.  The annealer keeps the labeling's `InterfaceTopology` and
updates it per swap, so drawing a candidate and checking it for
non-manifold edges visit only the swapped tets' faces and edges, and
extraction reads its cut faces, flips and edge counts from it.  A
candidate is either inert or solved.  With equal phase scales and no
body load a swap is inert: the bulk weights and the load vector do not
depend on the labels, so a candidate's equilibrium problem is the
accepted one, whose state came from a converged solve, and the
candidate keeps that state and compliance and runs no mechanics.
Every other candidate is solved, warm started from the accepted state.
In referential mode the interface energy and mass come from
`referential_energy`, one pass over the cut faces' terms stored on the
mesh; an Eulerian proposal extracts its interface in full.  While the
accepted-move count is a positive multiple of `COLD_SOLVE_EVERY`, every
proposal is solved from the identity (a cold start) until one of them
is accepted.

A solved proposal pays for its iterations and little else.  Every
solve is preconditioned by the accepted labeling's `Preconditioner`,
which differs from the candidate's in the weights of two tets (in none
with equal phase scales); its factor is built by the first solve after
an acceptance that takes a step.  A proposal's solve skips the solver's
closing self-intersection check: the annealer checks only the states
it keeps, its start (`minimize_equilibrium` checks it) and a candidate
that Metropolis accepts and that its solve did not check on its last
iteration.  A candidate that fails that check is a rejected solve.

A referential proposal that Metropolis rejects runs no full pass.  While
at most `LOOK_AHEAD_ACCEPTS` of the last `LOOK_AHEAD` steps were
accepted, the annealer looks ahead: it copies its generator's state,
replays the next `LOOK_AHEAD` moves' draws through `_draws`, the helper
`mass_preserving_move` draws with, assuming one Metropolis uniform
between moves, and scores the swaps in one call of the kernel of
`varifold.swap_energy_changes`.  The scores, and which swaps are
admissible, hold until the next accepted move; a swap drawn that was
not scored, or not as expected, is a miss, which the full pass decides.
A move's swap of known admissibility is not applied to the topology
unless a full pass or an acceptance needs it.  A scored candidate is
rejected without a full pass when its change, less its bound and a
rounding allowance (`_least_change`), is positive and its uniform lies
above exp(-change / T) at that least change; every other candidate,
acceptances included, runs the full pass.  So every decision, the
random stream and the trace are those of a full pass per proposal.
"""

from collections import deque
import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import bulk_weights, load_potential, load_vector
from .kinematics import boundary_self_intersects, identity_state
from .solve import (Preconditioner, SolveOptions, _check_count, _descend,
                    minimize_equilibrium)
from .varifold import (ROUNDING, InterfaceError, InterfaceTopology,
                       PhaseLabeling, _cut_sums, _joined_flips, _swap_changes,
                       _swap_flips, extract_interface, interface_energy,
                       referential_energy, varifold_mass)

EULERIAN = "EULERIAN"
REFERENTIAL = "REFERENTIAL"
SWAP_VOLUME_RTOL = 0.01    # relative volume mismatch a swap may carry
MOVE_TRIES = 50             # candidates drawn before a move gives up
INTERFACE_MOVE_BIAS = 0.9   # probability of interface-local swaps
COLD_SOLVE_EVERY = 50       # proposals start cold at accepted counts k * this
LOOK_AHEAD = 16             # referential moves scored ahead per kernel call
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
    check is all a reference-position extraction could reject.
    `topology` is the `InterfaceTopology` of `phases`, built here when
    not given; the accepted swap is applied to it (`topology.undo()`
    reverses it).
    """
    if topology is None:
        topology = InterfaceTopology(mesh, phases)
    if not all(map(len, topology.tets())):
        raise TopOptError("no admissible move: a phase is empty")
    for src, dst in _draws(mesh, topology, rng, interface_bias):
        if topology.try_swap(src, dst):
            return phases.with_swap(tet_to_0=src, tet_to_1=dst)
    raise TopOptError("no admissible move found (frozen configuration)")


def _draws(mesh, topology, rng, interface_bias):
    """The volume-matched swaps (tet to 0, tet to 1) that `MOVE_TRIES`
    draws from `rng` give, lazily: `mass_preserving_move`'s draws, which
    the annealer's look-ahead replays.  The tets come from `topology`'s
    `near` lists, or its `tets` lists on a draw away from the interface."""
    near1, near0 = topology.near()
    for _ in range(MOVE_TRIES):
        if rng.random() < interface_bias and len(near1) and len(near0):
            src = near1[rng.integers(len(near1))]
            dst = near0[rng.integers(len(near0))]
        else:
            ones, zeros = topology.tets()
            src = ones[rng.integers(len(ones))]
            dst = zeros[rng.integers(len(zeros))]
        va, vb = mesh.volumes[src], mesh.volumes[dst]
        if abs(va - vb) <= SWAP_VOLUME_RTOL * max(va, vb):
            yield int(src), int(dst)


class _LookAhead:
    """The referential energy changes of the swaps that the coming moves
    are expected to make to the accepted labeling, and a stand-in for its
    `InterfaceTopology` in `mass_preserving_move`.

    `fill` replays the next LOOK_AHEAD moves' draws on a copy of the
    annealer's generator, assuming that Metropolis rejects each move
    after one uniform, and scores their swaps in one call of the kernel
    of `swap_energy_changes`, whose base pass it keeps for the labeling.
    A swap's change and admissibility depend on the labeling alone, so
    they hold until the accepted labeling changes (`reset`), and a wrong
    guess costs a miss, never a wrong value.  `try_swap` answers a swap
    of known admissibility without applying it; `apply` applies it to
    the topology when a full pass or an acceptance needs it, and `undo`
    reverses it if it was applied.
    """

    def __init__(self, topology, model, rng):
        self.topology, self.model, self.rng = topology, model, rng
        self.ahead = copy.deepcopy(rng)
        self.admissible = {}   # swap -> whether try_swap keeps it
        self.scored = {}       # swap -> (energy change, its bound)
        self.coming = []       # the swaps expected next, last first
        self.sums = None       # the labeling's `_cut_sums`, once needed
        self.last_swap, self.applied = None, False

    def reset(self):
        self.admissible.clear()
        self.scored.clear()
        self.coming, self.sums = [], None

    def near(self):
        return self.topology.near()

    def tets(self):
        return self.topology.tets()

    def try_swap(self, tet_to_0, tet_to_1):
        swap = tet_to_0, tet_to_1
        kept = self.admissible.get(swap)
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
        """Score the swaps of the next LOOK_AHEAD moves.  A drawn swap of
        unknown admissibility is taken as kept; where one is not, the
        replay is run again from the start of its move.  Every swap
        checked is scored, in one call."""
        topology, known, ahead = self.topology, self.admissible, self.ahead
        draws = topology.mesh, topology, ahead, INTERFACE_MOVE_BIAS
        ahead.bit_generator.state = self.rng.bit_generator.state
        coming, starts, checked, flips = [], [], [], []
        while True:
            while len(coming) < LOOK_AHEAD:
                starts.append(ahead.bit_generator.state)
                for swap in _draws(*draws):
                    if known.get(swap, True):
                        break
                else:   # the move would find none
                    break
                coming.append(swap)
                ahead.random()   # the uniform of a rejection
            new = [s for s in dict.fromkeys(coming) if s not in known]
            if not new:
                break
            flips.append(_swap_flips(topology, np.array(new)))
            checked += new
            kept = flips[-1][-1]
            known.update(zip(new, kept.tolist()))
            if kept.all():
                break
            first = next(i for i, s in enumerate(coming) if not known[s])
            ahead.bit_generator.state = starts[first]
            del coming[first:], starts[first:]
        if checked:
            if self.sums is None:
                self.sums = _cut_sums(topology)
            _, _, energy, _, bound = _swap_changes(
                topology, _joined_flips(flips), self.sums, self.model)
            self.scored.update(zip(checked, zip(energy.tolist(),
                                                bound.tolist())))
        self.coming = coming[::-1]

    def change(self):
        """The scored energy change of the move's swap and its bound, or
        None when the swap was not scored or is degenerate; the expected
        swaps are dropped unless the move's swap is the next of them."""
        if self.coming and self.coming[-1] == self.last_swap:
            self.coming.pop()
        else:
            self.coming = []
        change = self.scored.get(self.last_swap)
        return None if change is None or math.isnan(change[0]) else change


def _least_change(scored, c_comp, comp, eint, obj):
    """The least objective change that the full recompute can find for a
    candidate of compliance `c_comp` whose interface energy change was
    scored as (change, bound), from an accepted labeling of compliance
    `comp`, interface energy `eint` and objective `obj`: the scored change
    less its bound and the rounding of the two energies and objectives
    (nan when the change is)."""
    change, bound = scored
    return c_comp + (eint + change) - obj - bound - ROUNDING * (
        abs(c_comp) + abs(comp) + 2.0 * (eint + abs(change) + bound))


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
    factor_builds: int = 0          # preconditioner factors built
    injectivity_checks: int = 0     # boundary self-intersection checks
    lookahead_decisions: int = 0    # rejections decided from scored changes


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
    rng = np.random.default_rng(config.seed)
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
    free = ~state.dirichlet_mask
    factor = Preconditioner(mesh, free, bulk_weights(mesh, phases, model),
                            model)   # the accepted labeling's
    iterations = builds = checks = 0

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
    skipped = decided = 0
    recent = deque(maxlen=LOOK_AHEAD)   # whether each recent step accepted
    ahead = _LookAhead(topology, model, rng) \
        if config.mode == REFERENTIAL else None
    moves = topology if ahead is None else ahead   # what the moves swap
    step = 0
    temperature = config.t_initial
    while temperature > config.t_final:
        failed = dict.fromkeys(("no_move", "interface", "solve"), 0)
        for _ in range(config.steps_per_temperature):
            step += 1
            cause = scored = uniform = None
            if (ahead is not None and not ahead.coming
                    and sum(recent) <= LOOK_AHEAD_ACCEPTS):
                ahead.fill()
            try:
                candidate = mass_preserving_move(mesh, phases, rng,
                                                 topology=moves)
            except TopOptError:
                cause = "no_move"
            if cause is None:
                cold = (accepted_total
                        and accepted_total % COLD_SOLVE_EVERY == 0)
                kept = inert and not cold
                skipped += kept
                unchecked = False
                try:
                    if kept:   # the accepted solve is the candidate's
                        cand_state, c_comp = state, comp
                    else:
                        cand_state, c_comp, unchecked = solve(
                            candidate, identity_state(mesh) if cold else state)
                    if ahead is not None:
                        scored = ahead.change()
                        if scored is None:
                            ahead.apply()
                    if scored is None:
                        c_eint, c_mu = _interface_terms(
                            mesh, cand_state, candidate, model, config.mode,
                            topology)
                except InterfaceError:
                    cause = "interface"
                except TopOptError:
                    cause = "solve"
            if scored is not None and cause is None:
                # the scored change decides a rejection that no rounding
                # of the full recompute could turn; the rest recompute
                low = _least_change(scored, c_comp, comp, eint, obj)
                if low > 0:
                    uniform = rng.random()
                    if uniform >= math.exp(-low / temperature) * (1 + ROUNDING):
                        decided += 1
                        cause = "metropolis"
                if cause is None:
                    ahead.apply()
                    c_eint, c_mu = referential_energy(topology, model)
            if cause is None:
                cand_obj = c_comp + c_eint
                delta = cand_obj - obj
                if uniform is None and not delta < 0:
                    uniform = rng.random()
                accept = delta < 0 or uniform < np.exp(-delta / temperature)
                if accept and unchecked:   # a kept state is injective
                    checks += 1
                    if boundary_self_intersects(mesh, cand_state.positions):
                        cause = "solve"
                elif not accept:
                    cause = "metropolis"
            if ahead is not None and cause != "metropolis":
                ahead.coming = []   # no rejection uniform was drawn
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
            builds += factor.built
            factor = Preconditioner(mesh, free,
                                    bulk_weights(mesh, phases, model), model)
            if ahead is not None:
                ahead.reset()
            obj, comp, eint, mu = cand_obj, c_comp, c_eint, c_mu
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
                        factor_builds=builds + factor.built,
                        injectivity_checks=checks, lookahead_decisions=decided)
