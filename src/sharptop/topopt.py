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
extraction reads its cut faces, flips and edge counts from it.  The
annealer also keeps the equilibrium gradient at its state and labels, and
updates it by the two tets' change of weight (and of body load): a
swap leaves the positions alone.  When the updated norm is at most half
the solver's gradient tolerance, the warm state is already converged,
and it is returned as a solve that takes no step would return it,
without the solve.  The half margin absorbs the rounding of the
updates, so every decision is the one a full recompute would make; the
solve's own gradient (`SolveReport.gradient`) clears the rounding at
the start and after every accepted move that was solved, cold restarts
included.  In referential mode the interface energy and mass come from
the topology's per-vertex energy shares, of which a proposal recomputes
those of the vertices of its two tets; an Eulerian proposal extracts
its interface in full.  While the accepted-move count is a positive
multiple of `COLD_SOLVE_EVERY`, every proposal is solved from the
identity (a cold start) until one of them is accepted.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import Bulk, corner_forces, load_potential, load_vector
from .kinematics import deformation_minors, identity_state
from .solve import SolveOptions, _check_count, minimize_equilibrium
from .varifold import (InterfaceError, InterfaceTopology, PhaseLabeling,
                       extract_interface, interface_energy, varifold_mass)

EULERIAN = "EULERIAN"
REFERENTIAL = "REFERENTIAL"
SWAP_VOLUME_RTOL = 0.01    # relative volume mismatch a swap may carry
MOVE_TRIES = 50             # candidates drawn before a move gives up
INTERFACE_MOVE_BIAS = 0.9   # probability of interface-local swaps
COLD_SOLVE_EVERY = 50       # proposals start cold at accepted counts k * this


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
    labels = phases.labels
    if np.count_nonzero(labels) in (0, len(labels)):
        raise TopOptError("no admissible move: a phase is empty")
    if topology is None:
        topology = InterfaceTopology(mesh, phases)
    near1, near0 = topology.near()
    ones = zeros = None   # listed on the first draw that needs them
    for _ in range(MOVE_TRIES):
        if rng.random() < interface_bias and len(near1) and len(near0):
            src, dst = rng.choice(near1), rng.choice(near0)
        else:
            if ones is None:
                ones, zeros = np.flatnonzero(labels), np.flatnonzero(
                    labels == 0)
            src, dst = rng.choice(ones), rng.choice(zeros)
        va, vb = mesh.volumes[src], mesh.volumes[dst]
        if abs(va - vb) > SWAP_VOLUME_RTOL * max(va, vb):
            continue
        if topology.try_swap(src, dst):
            return phases.with_swap(tet_to_0=src, tet_to_1=dst)
    raise TopOptError("no admissible move found (frozen configuration)")


def _swapped_gradient(mesh, state, model, grad, swap):
    """The equilibrium gradient `grad` at `state` after the swap (tet to
    0, tet to 1), from the change of the two tets' bulk weights and body
    loads; the positions, and with them F, do not change."""
    tets = np.array(swap)
    volumes = mesh.volumes[tets]
    scales = np.array([model.scale0, model.scale1])
    forces = corner_forces(mesh, Bulk(
        deformation_minors(mesh, state.positions, tets),
        volumes * scales - volumes * scales[::-1], model).stress(), tets)
    corners = mesh.tets[tets]
    grad = grad.copy()
    np.add.at(grad, corners.T[[1, 2, 3, 0]], forces.transpose(0, 2, 1))
    if np.any(model.f):   # b gains a quarter of each volume at its corners
        loads = volumes * np.array([-0.25, 0.25])
        np.add.at(grad, corners, -loads[:, None, None] * model.f)
    corners = corners.ravel()
    grad[corners[state.dirichlet_mask[corners]]] = 0.0
    return grad


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
    rejected_solve: int = 0         # its inner solve did not converge
    rejected_metropolis: int = 0
    nonmanifold_draws: int = 0      # drawn swaps dropped as non-manifold
    skipped_solves: int = 0         # candidates converged at their start


def _evaluate(mesh, phases, model, config, warm_state, topology,
              gradient=None, loads=None):
    """A candidate's state, equilibrium gradient, compliance, interface
    energy and mass.

    `topology` is the `InterfaceTopology` of `phases`.  `gradient`, when
    given, is the equilibrium gradient at `warm_state` for `phases` and
    meets the gradient tolerance, so the solve, which would take no
    step, is skipped and `gradient` returned.  `loads` is the load
    vector of `phases`, when the caller has it."""
    if gradient is None:
        state, report = minimize_equilibrium(mesh, warm_state, phases, model,
                                             config.solve_options)
        if not report.converged and not np.array_equal(warm_state.positions,
                                                       mesh.vertices):
            # one retry from a cold start, unless this solve was one: the
            # solve is deterministic and would fail again
            state, report = minimize_equilibrium(mesh, identity_state(mesh),
                                                 phases, model,
                                                 config.solve_options)
        if not report.converged:
            raise TopOptError("inner equilibrium solve did not converge")
        warm_state, gradient = state, report.gradient
    if config.mode == REFERENTIAL:
        eint, mass = topology.referential_energy(model)
    else:
        V = extract_interface(mesh, warm_state, phases, topology=topology)
        eint, mass = interface_energy(V, model), varifold_mass(V)
    return (warm_state, gradient,
            compliance(mesh, warm_state, phases, model, loads), eint, mass)


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
    # with no body load the load vector does not depend on the labels
    loads = None if np.any(model.f) else load_vector(mesh, phases, model)
    state, grad, comp, eint, mu = _evaluate(mesh, phases, model, config,
                                            state, topology, loads=loads)
    skip_below = 0.5 * config.solve_options.gradient_tolerance
    obj = comp + eint
    best = (state, phases, obj)
    initial_obj, initial_mu = obj, mu

    trace = []
    accepted_total = 0
    rejected = dict.fromkeys(("no_move", "interface", "solve", "metropolis"),
                             0)
    skipped = 0
    step = 0
    temperature = config.t_initial
    while temperature > config.t_final:
        failures = 0
        for _ in range(config.steps_per_temperature):
            step += 1
            cause = None
            try:
                candidate = mass_preserving_move(mesh, phases, rng,
                                                 topology=topology)
            except TopOptError:
                cause = "no_move"
            if cause is None:
                cold = (accepted_total
                        and accepted_total % COLD_SOLVE_EVERY == 0)
                cand_grad = None if cold else _swapped_gradient(
                    mesh, state, model, grad, topology.last_swap)
                converged = (cand_grad is not None and float(
                    np.linalg.norm(cand_grad)) <= skip_below)
                skipped += converged
                try:
                    cand_state, cand_grad, c_comp, c_eint, c_mu = _evaluate(
                        mesh, candidate, model, config,
                        identity_state(mesh) if cold else state, topology,
                        cand_grad if converged else None, loads)
                except InterfaceError:
                    cause = "interface"
                except TopOptError:
                    cause = "solve"
            if cause is not None:
                if cause != "no_move":
                    topology.undo()
                failures += 1
                rejected[cause] += 1
                trace.append(TraceRow(step, temperature, obj, comp, eint,
                                      mu, False))
                continue
            cand_obj = c_comp + c_eint
            delta = cand_obj - obj
            accept = delta < 0 or rng.random() < np.exp(-delta / temperature)
            if accept:
                state, phases, grad = cand_state, candidate, cand_grad
                obj, comp, eint, mu = cand_obj, c_comp, c_eint, c_mu
                accepted_total += 1
                if obj < best[2]:
                    best = (state, phases, obj)
                if (config.snapshot_every and snapshot_callback
                        and accepted_total % config.snapshot_every == 0):
                    snapshot_callback(step, state, phases)
            else:
                topology.undo()
                rejected["metropolis"] += 1
            trace.append(TraceRow(step, temperature,
                                  cand_obj if accept else obj,
                                  comp, eint, mu, accept))
        if failures > config.steps_per_temperature // 2:
            raise TopOptError(
                f"more than half the moves failed inner solves at T={temperature}")
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
                        skipped_solves=skipped)
