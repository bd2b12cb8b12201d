"""Outer optimization over phase labelings by simulated annealing.

The design variable is genuinely binary per tet, so moves are
mass-preserving label swaps (biased toward the current interface) with
Metropolis acceptance on compliance + interface energy.  Each proposal is
re-equilibrated by the inner solver, warm started from the previous
equilibrium.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import load_potential
from .kinematics import identity_state
from .solve import SolveOptions, _check_count, minimize_equilibrium
from .varifold import (InterfaceError, PhaseLabeling, _cut_faces,
                       _interface_faces, boundary_defect, extract_interface,
                       interface_energy, varifold_mass)

EULERIAN = "EULERIAN"
REFERENTIAL = "REFERENTIAL"
SWAP_VOLUME_RTOL = 0.01    # relative volume mismatch a swap may carry
MOVE_TRIES = 50             # candidates drawn before a move gives up
INTERFACE_MOVE_BIAS = 0.9   # probability of interface-local swaps
COLD_SOLVE_EVERY = 50       # accepted moves between cold restarts


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
        if not (self.t_initial > 0 and self.t_final > 0):
            raise ValueError("temperatures must be positive")
        if not 0 < self.t_decay < 1:
            raise ValueError("decay must lie in (0, 1)")
        _check_count("steps_per_temperature", self.steps_per_temperature, 1)
        _check_count("snapshot_every", self.snapshot_every, 0)


class TopOptError(Exception):
    pass


def compliance(mesh, state, phases, model):
    """C(y, phi): work of loads on the equilibrium deformation."""
    return load_potential(mesh, state, phases, model)


def _mode_interface(mesh, state, phases, mode):
    """The interface placed where `mode` measures it."""
    positions = mesh.vertices if mode == REFERENTIAL else state.positions
    return extract_interface(mesh, state, phases, positions=positions)


def objective(mesh, state, phases, model, mode=EULERIAN):
    """Compliance plus interface energy (Eulerian or referential placement).

    In referential mode the interface is extracted at the reference
    positions; in Eulerian mode at the deformed positions.
    """
    V = _mode_interface(mesh, state, phases, mode)
    return compliance(mesh, state, phases, model) + interface_energy(V, model)


def _interface_adjacent_tets(mesh, phases):
    """Tets incident to at least one interface face, per phase (sorted)."""
    _, pairs = _cut_faces(mesh, phases)
    return np.unique(pairs[:, 1]), np.unique(pairs[:, 0])


def mass_preserving_move(mesh, phases, rng,
                         interface_bias=INTERFACE_MOVE_BIAS):
    """Propose a label swap keeping the phase-1 volume fixed.

    Swaps one phase-1 tet to 0 and one phase-0 tet to 1, biased toward
    interface-adjacent tets; candidates must be volume-matched within
    SWAP_VOLUME_RTOL (exact for uniform meshes).  Proposals creating
    non-manifold interface edges are rejected and retried; that topology
    check is all a reference-position extraction could reject.
    """
    labels = phases.labels
    ones = np.where(labels == 1)[0]
    zeros = np.where(labels == 0)[0]
    if len(ones) == 0 or len(zeros) == 0:
        raise TopOptError("no admissible move: a phase is empty")
    near1, near0 = _interface_adjacent_tets(mesh, phases)
    for _ in range(MOVE_TRIES):
        local = rng.random() < interface_bias and len(near1) and len(near0)
        src = rng.choice(near1 if local else ones)
        dst = rng.choice(near0 if local else zeros)
        va, vb = mesh.volumes[src], mesh.volumes[dst]
        if abs(va - vb) > SWAP_VOLUME_RTOL * max(va, vb):
            continue
        candidate = phases.with_swap(tet_to_0=src, tet_to_1=dst)
        try:
            _interface_faces(mesh, candidate)
        except InterfaceError:
            continue
        return candidate
    raise TopOptError("no admissible move found (frozen configuration)")


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


def _evaluate(mesh, phases, model, config, warm_state):
    state, report = minimize_equilibrium(mesh, warm_state, phases, model,
                                         config.solve_options)
    if not report.converged:
        # one retry from a cold start before counting the move as failed
        state, report = minimize_equilibrium(mesh, identity_state(mesh),
                                             phases, model,
                                             config.solve_options)
        if not report.converged:
            raise TopOptError("inner equilibrium solve did not converge")
    V = _mode_interface(mesh, state, phases, config.mode)
    defect = boundary_defect(V)
    if defect:
        raise InterfaceError(f"interface has {defect} dangling edges")
    comp = compliance(mesh, state, phases, model)
    eint = interface_energy(V, model)
    return state, comp, eint, varifold_mass(V), report


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
    state, comp, eint, mu, _ = _evaluate(mesh, phases, model, config, state)
    obj = comp + eint
    best = (state, phases, obj)
    initial_obj, initial_mu = obj, mu

    trace = []
    accepted_total = 0
    rejected_total = 0
    step = 0
    temperature = config.t_initial
    while temperature > config.t_final:
        failures = 0
        for _ in range(config.steps_per_temperature):
            step += 1
            try:
                candidate = mass_preserving_move(mesh, phases, rng)
                warm = state
                if accepted_total and accepted_total % COLD_SOLVE_EVERY == 0:
                    warm = identity_state(mesh)
                cand_state, c_comp, c_eint, c_mu, report = _evaluate(
                    mesh, candidate, model, config, warm)
            except (InterfaceError, TopOptError):
                failures += 1
                rejected_total += 1
                trace.append(TraceRow(step, temperature, obj, comp, eint,
                                      mu, False))
                continue
            cand_obj = c_comp + c_eint
            delta = cand_obj - obj
            accept = delta < 0 or rng.random() < np.exp(-delta / temperature)
            if accept:
                state, phases = cand_state, candidate
                obj, comp, eint, mu = cand_obj, c_comp, c_eint, c_mu
                accepted_total += 1
                if obj < best[2]:
                    best = (state, phases, obj)
                if (config.snapshot_every and snapshot_callback
                        and accepted_total % config.snapshot_every == 0):
                    snapshot_callback(step, state, phases)
            else:
                rejected_total += 1
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
                        rejected_moves=rejected_total)
