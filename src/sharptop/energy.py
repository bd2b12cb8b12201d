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

from .kinematics import (component_first, deformation_minors,
                         frobenius_norm, minors)

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
    norm = float(frobenius_norm(F))
    return model.scale(phase) * _density(norm, det, model)


def bulk_stress(F, phase, model):
    """First derivative dW/dF of the model density; requires det F > 0."""
    F, cof, det = minors(F)
    if det <= 0:
        raise ValueError("bulk_stress requires det F > 0")
    norm = float(frobenius_norm(F))
    return model.scale(phase) * _stress(F, cof, norm, det, model)


def _scale(phases, model):
    labels = np.asarray(phases.labels, float)
    return model.scale0 * (1.0 - labels) + model.scale1 * labels


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
    return float(np.sum(mesh.volumes * _scale(phases, model)
                        * _density(frobenius_norm(F), det, model)))


def bulk_energy_gradient(mesh, state, phases, model, F_minors=None):
    """Nodal gradient of bulk_energy, shape (nv, 3); Dirichlet rows zeroed."""
    if F_minors is None:
        F_minors = deformation_minors(mesh, state.positions)
    F, cof, det = F_minors
    if np.any(det <= 0):
        raise ValueError("gradient requires det F > 0 on all tets")
    P = _stress(component_first(F), component_first(cof), frobenius_norm(F),
                det, model)
    P *= mesh.volumes * _scale(phases, model)
    # F = Dx G with G = ref_inv, so the force on corner c + 1 is P G[c]
    # (G[c] the c-th row of G) and corner 0 takes minus their sum;
    # forces[c, i] runs over the tets, corners in scatter_index order
    G = component_first(mesh.ref_inv)
    forces = np.empty((4, 3, mesh.n_tets))
    np.multiply(G[:, 0, None], P[:, 0], out=forces[:3])
    forces[:3] += G[:, 1, None] * P[:, 1]
    forces[:3] += G[:, 2, None] * P[:, 2]
    np.add(forces[0], forces[1], out=forces[3])
    forces[3] += forces[2]
    np.negative(forces[3], out=forces[3])
    g = np.bincount(mesh.scatter_index, forces.ravel(),
                    minlength=3 * mesh.n_vertices).reshape(-1, 3)
    g[state.dirichlet_mask] = 0.0
    return g


def interface_density(a_norm, model):
    """Psi(a) = c_int (1 + a^p) for curvature magnitude a >= 0."""
    a = np.asarray(a_norm, float)
    if np.any(a < 0):
        raise ValueError("curvature magnitude must be nonnegative")
    return model.c_int * (1.0 + a**model.p)


def _load_vector(mesh, phases, model):
    """Nodal load vector b(phi), shape (nv, 3), of the load work sum(b * y).

    b = t g + w f, for t = mesh.traction_weights and w a quarter of each
    phase-1 tet's reference volume summed at its corners; exact for y
    affine per element.  The body term is skipped when f = 0; b starts
    from +0.0, so no entry is -0.0 and the skip changes no bit.
    """
    b = np.zeros((mesh.n_vertices, 3))
    b += mesh.traction_weights[:, None] * model.g
    if np.any(model.f):
        labels = np.asarray(phases.labels, float)
        w = np.bincount(mesh.tets.ravel(),
                        np.repeat(mesh.volumes * labels / 4.0, 4),
                        minlength=mesh.n_vertices)
        b += w[:, None] * model.f
    return b


def load_potential(mesh, state, phases, model):
    """Work of the referential loads, sum(b * y) for the load vector b;
    equilibrium minimizes bulk - loads."""
    return float(np.sum(_load_vector(mesh, phases, model) * state.positions))


def load_potential_gradient(mesh, state, phases, model):
    """Nodal gradient of load_potential: b with Dirichlet rows zeroed."""
    b = _load_vector(mesh, phases, model)
    b[state.dirichlet_mask] = 0.0
    return b
