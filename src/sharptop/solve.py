"""Inner equilibrium solver: minimize bulk energy minus load work.

Limited-memory quasi-Newton descent with Armijo backtracking.  Steps are
accepted only if the objective strictly decreases, every tet keeps
det F above DET_FLOOR, and (every INJECTIVITY_CHECK_EVERY iterations)
the deformed boundary surface does not cross itself.  The interface
energy is deliberately not part of this objective; it enters the outer
topology objective.

The L-BFGS two-loop recursion starts, at every iteration, from the
inverse H0 of a reference stiffness operator, weighted by the bulk
weights vol * scale of the solve's phases and taken on the free
vertices (`laplacian.LaplacianFactor`, a block-tridiagonal level factor
stored in float32).  Where the mesh allows it (`laplacian._elastic_fits`:
levels of at most `laplacian.ELASTIC_WIDTH` components, one
face-connected component, Dirichlet vertices not collinear), the
operator is K0, linear elasticity with the tangent at the identity
(`energy.identity_tangent`: 2 mu = a + d, lambda = b), the exact
Hessian at the identity of a stress-free model.  Elsewhere it is c L_w
(Liu, Bouaziz and Kavan 2017): L_w is the P1 stiffness matrix of the
reference mesh, shared by the three displacement components, and
c = tr(d^2 W / dF^2 (I)) / 9 (`energy.identity_stiffness`), the
component average of the tangent, which also charges c |w|^2 for an
infinitesimal rotation w that costs nothing at a stress-free identity.
A `Preconditioner` holds H0 for one labeling and builds its factor on
its first application, so a solve that takes no step builds none.  A
solve builds one from its own phases, unless it is handed one: the
annealer hands every solve of a run the one of its start labeling.

`minimize_equilibrium` is `_descend`, the descent, plus a closing
self-intersection check of the state the descent returns.  The
annealer runs its proposals' solves through `_descend` and checks only
the states it keeps.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .energy import (INFEASIBLE, Bulk, bulk_energy, bulk_energy_gradient,
                     bulk_weights, identity_stiffness, identity_tangent,
                     load_potential, load_potential_gradient, load_vector)
from .kinematics import boundary_self_intersects, deformation_minors
from .laplacian import LaplacianFactor

CONTRACTION = 0.5            # line-search backtracking factor
SUFFICIENT_DECREASE = 1e-4   # Armijo constant
DET_FLOOR = 1e-6             # absolute det F floor (det F = 1 at the reference)
INJECTIVITY_CHECK_EVERY = 25  # iterations between self-intersection checks
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
    seed: int = 0                      # unused; accepted for old callers

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
    guard_activations: int          # det floor plus injectivity backtracks
    message: str
    det_floor_backtracks: int       # line-search backtracks, by cause
    armijo_backtracks: int
    injectivity_backtracks: int
    injectivity_checks: int         # self-intersection checks run
    history: list = field(default_factory=list)  # (iter, obj, |g|, min_det, guards)


def equilibrium_objective(mesh, state, phases, model, bulk=None, loads=None):
    """bulk_energy - load_potential; +inf when infeasible.  `bulk` (the
    state's `Bulk`) and `loads` are passed on when the caller has them."""
    energy = bulk_energy(mesh, state, phases, model, bulk)
    if energy == INFEASIBLE:
        return INFEASIBLE
    return energy - load_potential(mesh, state, phases, model, loads)


def equilibrium_gradient(mesh, state, phases, model, bulk=None,
                         free_loads=None):
    """Nodal gradient of the equilibrium objective; Dirichlet rows zero.
    `bulk` and `free_loads` (`load_potential_gradient`) are optional."""
    if free_loads is None:
        free_loads = load_potential_gradient(mesh, state, phases, model)
    return bulk_energy_gradient(mesh, state, phases, model, bulk) - free_loads


def _min_det(F_minors):
    return float(F_minors[2].min())


class Preconditioner:
    """H0 = K0^-1, or (c L_w)^-1 where the mesh does not allow K0, both
    weighted by the bulk weights `weights` of one labeling on the free
    vertices `free`, for any solve on those free vertices: H0 only steers
    the descent.  Its factor is built on its first application, once:
    c L_w's from the weights c w, and K0's from the same weights with the
    tangent's Lame parameters divided by c."""

    def __init__(self, mesh, free, weights, model):
        self._inputs = (mesh, free, weights, model)
        self._factor = None

    @property
    def built(self):
        return self._factor is not None

    def __call__(self, v):
        if self._factor is None:
            mesh, free, weights, model = self._inputs
            c = identity_stiffness(model.r, model.s)
            a, b, d = identity_tangent(model.r, model.s)
            self._factor = LaplacianFactor(mesh, free, c * weights,
                                           ((a + d) / c, b / c))
        return self._factor(v)


def minimize_equilibrium(mesh, state0, phases, model, options=None,
                         factor=None):
    """Descent to an equilibrium deformation at fixed phase labeling.

    Returns (state, SolveReport).  The state always satisfies
    min det F > 0 and preserves Dirichlet positions bit-exactly.  Its
    boundary surface was checked for self-intersection, unless no step
    was taken: when the last accepted step was not checked on its
    iteration, it is checked on return, and if it fails the last state
    that passed is returned instead, unconverged.  The weights and the
    loads are built once per solve, and the preconditioner's factor at
    most once; F, its minors and one `Bulk` once per trial point, shared
    by the det floor, the objective and the gradient, and freed once the
    point is rejected or its gradient is built.  `factor` (internal) is
    a `Preconditioner` on the free vertices of `state0`, used in place
    of one of `phases`.
    """
    state, report, passed = _descend(mesh, state0, phases, model, options,
                                     factor)
    if passed is not None:
        report.injectivity_checks += 1
        if boundary_self_intersects(mesh, state.positions):
            (state, report.objective, report.grad_norm,
             report.min_det) = passed
            report.converged = False
            report.message = ("the boundary surface of the final state "
                              "crosses itself; returning the last state "
                              "that did not")
    return state, report


def _descend(mesh, state0, phases, model, options=None, factor=None):
    """`minimize_equilibrium` without its closing self-intersection check.

    Returns (state, report, passed).  `passed` is None when `state` was
    checked on its iteration or is `state0`; otherwise it is the last
    state that was, as (state, objective, |g|, min det F), the start
    counting as checked.
    """
    options = options or SolveOptions()
    free = ~state0.dirichlet_mask
    weights = bulk_weights(mesh, phases, model)
    loads = load_vector(mesh, phases, model)
    free_loads = load_potential_gradient(mesh, state0, phases, model, loads)
    if factor is None:
        factor = Preconditioner(mesh, free, weights, model)

    state = state0
    terms = deformation_minors(mesh, state.positions)
    min_det = _min_det(terms)
    bulk = Bulk(terms, weights, model)
    obj = equilibrium_objective(mesh, state, phases, model, bulk, loads)
    if obj == INFEASIBLE or min_det <= DET_FLOOR:
        raise ValueError("initial state is infeasible")

    grad = equilibrium_gradient(mesh, state, phases, model, bulk, free_loads)
    terms = bulk = None
    gnorm = float(np.linalg.norm(grad))
    pairs = deque(maxlen=HISTORY)   # (s, y, rho) for L-BFGS
    det_floor = armijo = injectivity = 0   # backtracks by cause
    checks = 0
    log = []
    message = "iteration limit reached"
    converged = gnorm <= options.gradient_tolerance
    passed = (state, obj, gnorm, min_det)  # last checked injective
    checked = True
    it = 0

    while not converged and it < options.max_iterations:
        it += 1
        check = it % INJECTIVITY_CHECK_EVERY == 0
        direction = _lbfgs_direction(grad, pairs, factor)
        gd = float(np.sum(direction * grad))
        if gd >= 0.0:
            direction = -grad  # fallback to steepest descent
            gd = float(np.sum(direction * grad))
        step, accepted, guards_this_iter = 1.0, False, 0
        for _ in range(MAX_LINE_SEARCH):
            trial = state.positions + step * direction
            trial[~free] = state0.positions[~free]
            terms = bulk = None  # free the last point's arrays first
            terms = deformation_minors(mesh, trial)
            trial_det = _min_det(terms)
            if trial_det <= DET_FLOOR:
                det_floor += 1
                guards_this_iter += 1
                step *= CONTRACTION
                continue
            trial_state = state.with_positions(trial)
            bulk = Bulk(terms, weights, model)
            trial_obj = equilibrium_objective(mesh, trial_state, phases, model,
                                              bulk, loads)
            if not (trial_obj < obj + SUFFICIENT_DECREASE * step * gd):
                armijo += 1
            elif not check:
                accepted = True
                break
            else:
                checks += 1
                if not boundary_self_intersects(mesh, trial):
                    accepted = True
                    break
                injectivity += 1
                guards_this_iter += 1
            step *= CONTRACTION
        if not accepted:
            message = "line search exhausted; returning best feasible state"
            break
        new_grad = equilibrium_gradient(mesh, trial_state, phases, model,
                                        bulk, free_loads)
        terms = bulk = None
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
        checked = check
        if checked:
            passed = (state, obj, gnorm, min_det)

    if converged:
        message = "converged"
    report = SolveReport(
        converged=converged, iterations=it, objective=obj, grad_norm=gnorm,
        min_det=min_det, guard_activations=det_floor + injectivity,
        message=message,
        det_floor_backtracks=det_floor, armijo_backtracks=armijo,
        injectivity_backtracks=injectivity, injectivity_checks=checks,
        history=log)
    return state, report, None if checked else passed


def _lbfgs_direction(grad, pairs, h0):
    """Two-loop recursion from the initial inverse Hessian `h0`, a map of
    nodal arrays; returns a descent direction candidate."""
    q = -grad.ravel()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    q = h0(q.reshape(grad.shape)).ravel()
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return q.reshape(grad.shape)
