"""Stored-energy densities, loads, and energy assembly.

The per-phase density is the polyconvex model

    W_i(F) = scale_i * (|F|^r + (|F|^3/det F)^(r-1) + (det F)^(-s)),

extended by +inf when det F <= 0.  The interface density is
Psi(a) = c_int * (1 + a^p).  Infeasible values are represented by the
explicit float('inf') sentinel, never by a large finite number.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .kinematics import deformation_minors, minors

INFEASIBLE = math.inf


@dataclass(frozen=True)
class EnergyModel:
    r: float = 4.0            # growth exponent, > 3
    s: float = 2.0            # compressibility exponent, > 0
    scale0: float = 1.0       # phase-0 (Ersatz) multiplier
    scale1: float = 1.0       # phase-1 multiplier
    c_int: float = 1.0        # interface scale
    p: float = 2.0            # curvature exponent, > 1
    f: np.ndarray = field(default_factory=lambda: np.zeros(3))  # body force
    g: np.ndarray = field(default_factory=lambda: np.zeros(3))  # traction
    eta: float = 0.5          # target phase-1 mass fraction

    def __post_init__(self):
        for name in ("f", "g"):
            load = np.asarray(getattr(self, name), float)
            if load.shape != (3,) or not np.isfinite(load).all():
                raise ValueError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, load)
        if not self.r > 3:
            raise ValueError("r must exceed 3")
        if not (self.s > 0 and self.p > 1 and self.c_int > 0):
            raise ValueError("need s > 0, p > 1, c_int > 0")
        if not (self.scale0 > 0 and self.scale1 > 0):
            raise ValueError("phase scales must be positive")
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")

    def scale(self, phase):
        return self.scale1 if phase else self.scale0


def stress_free_s(r):
    """Compressibility exponent making the identity stress-free.

    dW/dF at I is (r 3^((r-2)/2) - s) I for this density; the returned s
    cancels it.
    """
    return r * 3.0 ** ((r - 2.0) / 2.0)


def _density(norm, det, model):
    """Unscaled W for Frobenius norm(s) `norm` and det F > 0 `det`.

    Scalars (a Python float norm, a NumPy scalar det) and arrays take the
    same expression, so each path keeps its own `pow` bit for bit.
    """
    return norm**model.r + (norm**3 / det) ** (model.r - 1.0) + det ** (-model.s)


def _stress(F, cof, norm, det, model):
    """Unscaled dW/dF; `norm` and `det` broadcast against F and cof."""
    r, s = model.r, model.s
    P = r * norm ** (r - 2.0) * F
    P += (r - 1.0) * (norm**3 / det) ** (r - 2.0) * (
        3.0 * norm / det * F - norm**3 / det**2 * cof)
    P += -s * det ** (-s - 1.0) * cof
    return P


def bulk_density(F, phase, model):
    """W_phase(F); +inf when det F <= 0."""
    F, _, det = minors(F)
    if det <= 0:
        return INFEASIBLE
    norm = float(np.sqrt(np.sum(F * F)))
    return model.scale(phase) * _density(norm, det, model)


def bulk_stress(F, phase, model):
    """First derivative dW/dF of the model density; requires det F > 0."""
    F, cof, det = minors(F)
    if det <= 0:
        raise ValueError("bulk_stress requires det F > 0")
    norm = float(np.sqrt(np.sum(F * F)))
    return model.scale(phase) * _stress(F, cof, norm, det, model)


def _scale(phases, model):
    labels = np.asarray(phases.labels, float)
    return model.scale0 * (1.0 - labels) + model.scale1 * labels


def _scatter(mesh, index, weights):
    """Nodal (nv, 3) sums of `weights` over a flat (vertex, axis) index."""
    return np.bincount(index, weights.ravel(),
                       minlength=3 * mesh.n_vertices).reshape(-1, 3)


def bulk_energy(mesh, state, phases, model, F_minors=None):
    """Sum over tets of vol_ref * W_label(F); +inf on any inverted tet.

    Labels are constant per tet, so midpoint quadrature is exact in phase
    and exact for the piecewise-affine deformation.  `F_minors` is
    `deformation_minors` of the state, when the caller already has it.
    """
    if F_minors is None:
        F_minors = deformation_minors(mesh, state.positions)
    F, _, det = F_minors
    if np.any(det <= 0):
        return INFEASIBLE
    norm = np.sqrt(np.sum(F * F, axis=(-2, -1)))
    return float(np.sum(mesh.volumes * _scale(phases, model)
                        * _density(norm, det, model)))


def bulk_energy_gradient(mesh, state, phases, model, F_minors=None):
    """Nodal gradient of bulk_energy, shape (nv, 3); Dirichlet rows zeroed."""
    if F_minors is None:
        F_minors = deformation_minors(mesh, state.positions)
    F, cof, det = F_minors
    if np.any(det <= 0):
        raise ValueError("gradient requires det F > 0 on all tets")
    norm = np.sqrt(np.sum(F * F, axis=(-2, -1)))[:, None, None]
    P = _stress(F, cof, norm, det[:, None, None], model)
    P *= (mesh.volumes * _scale(phases, model))[:, None, None]
    # F = Dx G with G = ref_inv: d(vol W)/dx_i = P G_i (G_i = i-th row);
    # grad_corner[:, :, i] is the force on local vertex i+1.
    grad_corner = P @ np.transpose(mesh.ref_inv, (0, 2, 1))
    forces = np.concatenate([np.moveaxis(grad_corner, 2, 0),
                             -grad_corner.sum(axis=2)[None]])
    g = _scatter(mesh, mesh.scatter_index, forces)
    g[state.dirichlet_mask] = 0.0
    return g


def interface_density(a_norm, model):
    """Psi(a) = c_int (1 + a^p) for curvature magnitude a >= 0."""
    a = np.asarray(a_norm, float)
    if np.any(a < 0):
        raise ValueError("curvature magnitude must be nonnegative")
    return model.c_int * (1.0 + a**model.p)


def load_potential(mesh, state, phases, model):
    """Work of the referential loads; equilibrium minimizes bulk - loads.

    sum_{label=1} vol_ref f . ybar  +  sum_{Neumann faces} area_ref g . ybar
    with deformed centroid values ybar (exact for affine y per element).
    The body term is skipped when f is identically zero.
    """
    faces = mesh.boundary_faces[mesh.neumann_index]
    fbar = state.positions[faces].mean(axis=1)
    potential = float(np.sum(mesh.neumann_areas
                             * np.sum(model.g * fbar, axis=1)))
    if np.any(model.f):
        labels = np.asarray(phases.labels, float)
        ybar = state.positions[mesh.tets].mean(axis=1)
        potential += float(np.sum(mesh.volumes * labels
                                  * np.sum(model.f * ybar, axis=1)))
    return potential


def load_potential_gradient(mesh, state, phases, model):
    """Nodal gradient of load_potential; Dirichlet rows zeroed."""
    trac = mesh.neumann_areas[:, None] * model.g / 3.0
    weights = np.tile(trac.ravel(), 3)
    if np.any(model.f):
        labels = np.asarray(phases.labels, float)
        body = (mesh.volumes * labels)[:, None] * model.f / 4.0
        weights = np.concatenate([np.tile(body.ravel(), 4), weights])
    # the Neumann corners close load_scatter_index, after the tet corners
    index = mesh.load_scatter_index
    g = _scatter(mesh, index[len(index) - len(weights):], weights)
    g[state.dirichlet_mask] = 0.0
    return g

