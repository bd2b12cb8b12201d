"""Stored-energy densities, loads, and energy assembly.

The per-phase density is the polyconvex model

    W_i(F) = scale_i * (|F|^r + (|F|^3/det F)^(r-1) + (det F)^(-s)),

extended by +inf when det F <= 0.  The interface density is
Psi(a) = c_int * (1 + a^p).  Infeasible values are represented by the
explicit float('inf') sentinel, never by a large finite number.
"""

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .kinematics import deformation_minors, minors, squared_norm

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


def identity_stiffness(r, s):
    """c = tr(d^2 W / dF^2 (I)) / 9 for the unscaled density, in closed form:

        c = (r (r + 7) 3^(r/2 - 1) + 10 (r - 1) 3^(3 (r - 1) / 2)
             + 3 s (s + 1)) / 9,

    534.32 at r = 4, s = stress_free_s(4).  The tangent at I is isotropic
    for every s, so this holds also when I is not stress-free.  Each term
    is positive for r > 3 and s > 0, so c > 0 for every valid model.
    """
    return (r * (r + 7.0) * 3.0 ** (r / 2.0 - 1.0)
            + 10.0 * (r - 1.0) * 3.0 ** (1.5 * (r - 1.0))
            + 3.0 * s * (s + 1.0)) / 9.0


def identity_tangent(r, s):
    """(a, b, d) of the tangent d^2 W / dF^2 (I)[H, H] = a |H|^2 +
    b (tr H)^2 + d tr(H^2) of the unscaled density, in closed form:

        a = r 3^(r/2 - 1) + (r - 1) 3^(3 (r - 1) / 2),
        b = r (r - 2) 3^(r/2 - 2) - (2 (r - 1) / 3) 3^(3 (r - 1) / 2) + s^2,
        d = (r - 1) 3^(3 (r - 1) / 2) + s,

    so that `identity_stiffness` is a + (b + d) / 3.  On symmetric H it
    is linear elasticity with 2 mu = a + d and lambda = b, and
    2 mu + 3 lambda = r (r - 1) 3^(r/2 - 1) + s + 3 s^2: both are positive
    for r > 3 and s > 0.  An infinitesimal rotation costs (a - d) |H|^2,
    zero at s = `stress_free_s(r)`."""
    e = 3.0 ** (1.5 * (r - 1.0))
    return (r * 3.0 ** (r / 2.0 - 1.0) + (r - 1.0) * e,
            r * (r - 2.0) * 3.0 ** (r / 2.0 - 2.0)
            - (2.0 * (r - 1.0) / 3.0) * e + s * s,
            (r - 1.0) * e + s)


class Bulk:
    """W and dW/dF at (F, Cof F, det F), component first as from
    `deformation_minors` (or one (3, 3) F), from shared per-tet scalars
    S = |F|^2, A = |F|^r, B = D^(r-1) for D = |F|^3 / det F, C = det F^(-s):
    `energy`, built on first read, is sum w W, W = A + B + C (+inf if some
    det F <= 0), and `stress()` is w dW/dF = a F + b Cof F, with
    a = w (r A + 3 (r - 1) B) / S and b = w ((1 - r) B - s C) / det F."""

    def __init__(self, F_minors, weights, model):
        self.F, self.cof, self.det = F_minors
        self.weights, self.model = weights, model

    @cached_property
    def energy(self):
        if not self.det.min() > 0:
            return INFEASIBLE
        self.S = squared_norm(self.F)
        norm = np.sqrt(self.S)
        self.A = norm**self.model.r
        self.B = (norm**3 / self.det) ** (self.model.r - 1.0)
        self.C = self.det ** (-self.model.s)
        return float((self.weights * (self.A + self.B + self.C)).sum())

    def stress(self):
        """a F + b Cof F; requires det F > 0."""
        if self.energy == INFEASIBLE:
            raise ValueError("the stress requires det F > 0")
        r, s, w = self.model.r, self.model.s, self.weights
        a = w * (r * self.A + 3.0 * (r - 1.0) * self.B) / self.S
        b = w * ((1.0 - r) * self.B - s * self.C) / self.det
        P = self.F * a
        P += self.cof * b
        return P


def bulk_density(F, phase, model):
    """W_phase(F); +inf when det F <= 0."""
    return Bulk(minors(F), model.scale(phase), model).energy


def bulk_stress(F, phase, model):
    """First derivative dW/dF of the model density; requires det F > 0."""
    return Bulk(minors(F), model.scale(phase), model).stress()


def bulk_weights(mesh, phases, model):
    """Per-tet weights of the bulk energy: vol_ref * scale_label."""
    labels = np.asarray(phases.labels, float)
    return mesh.volumes * (model.scale0 * (1.0 - labels)
                           + model.scale1 * labels)


def bulk_energy(mesh, state, phases, model, bulk=None):
    """Sum over tets of vol_ref * W_label(F); +inf on any inverted tet.

    Labels are constant per tet, so midpoint quadrature is exact in phase
    and exact for the piecewise-affine deformation.  `bulk` is the state's
    `Bulk` with `bulk_weights`, when the caller already has it."""
    if bulk is None:
        bulk = Bulk(deformation_minors(mesh, state.positions),
                    bulk_weights(mesh, phases, model), model)
    return bulk.energy


def bulk_energy_gradient(mesh, state, phases, model, bulk=None):
    """Nodal gradient of bulk_energy, shape (nv, 3); Dirichlet rows zeroed;
    `bulk` as for `bulk_energy`."""
    if bulk is None:
        bulk = Bulk(deformation_minors(mesh, state.positions),
                    bulk_weights(mesh, phases, model), model)
    forces = corner_forces(mesh, bulk.stress())
    g = np.bincount(mesh._scatter_index, forces.ravel(),
                    minlength=3 * mesh.n_vertices).reshape(-1, 3)
    g[state.dirichlet_mask] = 0.0
    return g


def corner_forces(mesh, P):
    """Forces (4, 3, nt) of the stresses P (3, 3, nt) of every tet on its
    corners 1, 2, 3, 0 (scatter_index order).

    F = Dx G with G = ref_inv, so corner c + 1 takes f_c = P G[c] (G[c]
    the c-th row of G), from 0.0 by np.einsum, which without `optimize`
    runs NumPy's own loops, never BLAS; corner 0 takes -((f_0 + f_1) + f_2).
    """
    forces = np.empty((4, 3, mesh.n_tets))
    np.einsum("ijt,cjt->cit", P, mesh.ref_inv_cf, out=forces[:3])
    np.add(forces[0], forces[1], out=forces[3])
    forces[3] += forces[2]
    np.negative(forces[3], out=forces[3])
    return forces


def interface_density(a_norm, model):
    """Psi(a) = c_int (1 + a^p) for curvature magnitude a >= 0."""
    a = np.asarray(a_norm, float)
    if np.any(a < 0):
        raise ValueError("curvature magnitude must be nonnegative")
    return model.c_int * (1.0 + a**model.p)


def load_vector(mesh, phases, model):
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


def load_potential(mesh, state, phases, model, loads=None):
    """Work of the referential loads, sum(b * y) for b = `loads`, or the
    `load_vector`; equilibrium minimizes bulk - loads."""
    b = load_vector(mesh, phases, model) if loads is None else loads
    return float(np.sum(b * state.positions))


def load_potential_gradient(mesh, state, phases, model, loads=None):
    """Nodal gradient of load_potential: a copy of b with Dirichlet rows
    zeroed, b as for `load_potential`."""
    b = load_vector(mesh, phases, model) if loads is None else loads.copy()
    b[state.dirichlet_mask] = 0.0
    return b
