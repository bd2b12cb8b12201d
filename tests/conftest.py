import numpy as np
import pytest

import sharptop as st
from sharptop.mesh import DIRICHLET, FREE, NEUMANN


def clamp_bottom_pull_top(c):
    if abs(c[2]) < 1e-9:
        return DIRICHLET
    if abs(c[2] - 1.0) < 1e-9:
        return NEUMANN
    return FREE


@pytest.fixture
def small_mesh():
    return st.build_box_mesh(2, 2, 2)


@pytest.fixture
def clamped_mesh():
    return st.build_box_mesh(2, 2, 2, tagging=clamp_bottom_pull_top)


@pytest.fixture
def uniform_phase1():
    def make(mesh):
        return st.PhaseLabeling(np.ones(mesh.n_tets, np.int8))
    return make


def random_feasible_state(mesh, scale=0.02, seed=0):
    """Random interior perturbation of the identity, Dirichlet-conforming."""
    rng = np.random.default_rng(seed)
    state = st.identity_state(mesh)
    pos = state.positions + scale * rng.standard_normal(state.positions.shape)
    pos[state.dirichlet_mask] = mesh.vertices[state.dirichlet_mask]
    return state.with_positions(pos)


def brute_force_face_adjacency(tets):
    """Sorted face -> incident tets, keys in order of first occurrence."""
    adj = {}
    for ti, tet in enumerate(np.asarray(tets).tolist()):
        for local in ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)):
            face = tuple(sorted(tet[i] for i in local))
            adj.setdefault(face, []).append(ti)
    return adj


# A face shared by three tets, every single-tet face tagged.
NONMANIFOLD_MESH = (
    "tetmesh v1\n"
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv 0 0 -1\nv 0.2 0.2 0.5\n"
    "t 0 1 2 3\nt 0 1 2 4\nt 0 1 2 5\n"
    + "".join(f"bf {a} {b} {c} FREE\n" for apex in (3, 4, 5)
              for a, b, c in ((0, 1, apex), (0, 2, apex), (1, 2, apex))))

ZERO_VOLUME_MESH = ("tetmesh v1\n"
                    "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n"
                    "t 0 1 2 3\n"
                    "bf 0 1 2 FREE\nbf 0 1 3 FREE\nbf 0 2 3 FREE\n"
                    "bf 1 2 3 FREE\n")
