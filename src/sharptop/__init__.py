"""Sharp-interface two-phase hyperelasticity with curvature varifolds."""

from .energy import EnergyModel, bulk_density, bulk_energy, bulk_stress, \
    interface_density, load_potential, stress_free_s
from .kinematics import DeformationState, boundary_self_intersects, \
    ciarlet_necas_residual, deformation_gradients, distortion, \
    identity_state, minors
from .mesh import DIRICHLET, FREE, NEUMANN, ReferenceMesh, build_box_mesh, \
    load_mesh, plane_tagging, save_mesh
from .solve import SolveOptions, equilibrium_gradient, equilibrium_objective, \
    minimize_equilibrium
from .topopt import EULERIAN, REFERENTIAL, TopOptConfig, compliance, \
    mass_preserving_move, objective, optimize_topology
from .varifold import InterfaceTopology, InterfaceVarifold, PhaseLabeling, \
    boundary_defect, coupling_residual, curvature_integral, \
    extract_interface, interface_energy, labeling_energy, \
    random_bump_fields, swap_energy_changes, varifold_mass

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
