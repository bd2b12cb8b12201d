"""Inner equilibrium solver: minimize bulk energy minus load work.

Limited-memory quasi-Newton descent with Armijo backtracking.  Steps are
accepted only if the objective strictly decreases, every tet keeps
det F above DET_FLOOR, and (every CN_CHECK_EVERY iterations) the
Ciarlet-Necas residual stays within tolerance.  The interface energy is
deliberately not part of this objective; it enters the outer topology
objective.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .energy import (INFEASIBLE, bulk_energy, bulk_energy_gradient,
                     load_potential, load_potential_gradient)
from .kinematics import ciarlet_necas_residual, deformation_minors

CONTRACTION = 0.5            # line-search backtracking factor
SUFFICIENT_DECREASE = 1e-4   # Armijo constant
DET_FLOOR = 1e-6             # absolute det F floor (det F = 1 at the reference)
CN_CHECK_EVERY = 25          # iterations between Ciarlet-Necas checks
CN_SAMPLES = 10_000
CN_TOLERANCE_FACTOR = 1e-3   # times the Jacobian integral, plus 3 MC std
HISTORY = 10                 # L-BFGS memory
MAX_LINE_SEARCH = 40


def _check_count(name, value, minimum):
    """Raise ValueError unless `value` is an int (not a bool) >= minimum."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-6
    seed: int = 0                      # Monte Carlo injectivity-check stream

    def __post_init__(self):
        _check_count("max_iterations", self.max_iterations, 1)
        if not self.gradient_tolerance > 0:
            raise ValueError("gradient_tolerance must be positive")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    objective: float
    grad_norm: float
    min_det: float
    guard_activations: int
    guard_iterations: list          # iterations where a guard shrank a step
    cn_residual: float
    message: str
    history: list = field(default_factory=list)  # (iter, obj, |g|, min_det, guards)


def equilibrium_objective(mesh, state, phases, model, F_minors=None):
    """bulk_energy - load_potential; +inf when infeasible.

    `F_minors` is `deformation_minors` of the state, when the caller
    already has it.
    """
    bulk = bulk_energy(mesh, state, phases, model, F_minors)
    if bulk == INFEASIBLE:
        return INFEASIBLE
    return bulk - load_potential(mesh, state, phases, model)


def equilibrium_gradient(mesh, state, phases, model, F_minors=None):
    """Nodal gradient of the equilibrium objective; Dirichlet rows zero."""
    return (bulk_energy_gradient(mesh, state, phases, model, F_minors)
            - load_potential_gradient(mesh, state, phases, model))


def _min_det(F_minors):
    return float(F_minors[2].min())


def minimize_equilibrium(mesh, state0, phases, model, options=None):
    """Descent to an equilibrium deformation at fixed phase labeling.

    Returns (state, SolveReport).  The returned state always satisfies
    min det F > 0 and preserves Dirichlet positions bit-exactly.  F and
    its minors are built once per trial point and shared by the det
    floor, the objective, the injectivity check and the gradient.
    """
    options = options or SolveOptions()
    free = ~state0.dirichlet_mask

    state = state0
    terms = deformation_minors(mesh, state.positions)
    obj = equilibrium_objective(mesh, state, phases, model, terms)
    min_det = _min_det(terms)
    if obj == INFEASIBLE or min_det <= DET_FLOOR:
        raise ValueError("initial state is infeasible")

    grad = equilibrium_gradient(mesh, state, phases, model, terms)
    gnorm = float(np.linalg.norm(grad))
    pairs = deque(maxlen=HISTORY)   # (s, y, rho) for L-BFGS
    guard_total = 0
    guard_iters = []
    cn_res = 0.0
    log = []
    message = "converged"
    converged = gnorm <= options.gradient_tolerance
    it = 0

    def cn_ok(positions, F_minors):
        nonlocal cn_res
        res = ciarlet_necas_residual(
            mesh, state.with_positions(positions),
            samples=CN_SAMPLES, seed=options.seed, F_minors=F_minors)
        cn_res = res.residual
        tol = 3.0 * res.mc_std + CN_TOLERANCE_FACTOR * res.jacobian_integral
        return res.residual <= tol

    while not converged and it < options.max_iterations:
        it += 1
        direction = _lbfgs_direction(grad, pairs)
        if float(np.sum(direction * grad)) >= 0.0:
            direction = -grad  # fallback to steepest descent
        step = 1.0
        accepted = False
        guards_this_iter = 0
        gd = float(np.sum(direction * grad))
        for _ in range(MAX_LINE_SEARCH):
            trial = state.positions + step * direction
            trial[~free] = state0.positions[~free]
            terms = deformation_minors(mesh, trial)
            trial_det = _min_det(terms)
            if trial_det <= DET_FLOOR:
                guards_this_iter += 1
                step *= CONTRACTION
                continue
            trial_state = state.with_positions(trial)
            trial_obj = equilibrium_objective(mesh, trial_state, phases, model,
                                              terms)
            if not (trial_obj < obj + SUFFICIENT_DECREASE * step * gd):
                step *= CONTRACTION
                continue
            if it % CN_CHECK_EVERY == 0 and not cn_ok(trial, terms):
                guards_this_iter += 1
                step *= CONTRACTION
                continue
            accepted = True
            break
        if guards_this_iter:
            guard_total += guards_this_iter
            guard_iters.append(it)
        if not accepted:
            message = "line search exhausted; returning best feasible state"
            break
        new_grad = equilibrium_gradient(mesh, trial_state, phases, model,
                                        terms)
        s = (trial_state.positions - state.positions).ravel()
        y = (new_grad - grad).ravel()
        sy = float(np.dot(s, y))
        if sy > 1e-12 * float(np.dot(y, y)):
            pairs.append((s, y, 1.0 / sy))
        state, obj, grad = trial_state, trial_obj, new_grad
        min_det = trial_det
        gnorm = float(np.linalg.norm(grad))
        log.append((it, obj, gnorm, min_det, guards_this_iter))
        converged = gnorm <= options.gradient_tolerance

    report = SolveReport(
        converged=converged, iterations=it, objective=obj, grad_norm=gnorm,
        min_det=min_det, guard_activations=guard_total,
        guard_iterations=guard_iters, cn_residual=cn_res,
        message=message if not converged else "converged", history=log)
    return state, report


def _lbfgs_direction(grad, pairs):
    """Two-loop recursion; returns a descent direction candidate."""
    q = -grad.ravel().copy()
    if not pairs:
        return q.reshape(grad.shape)
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    s, y, rho = pairs[-1]
    q *= float(np.dot(s, y)) / float(np.dot(y, y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return q.reshape(grad.shape)
