from types import SimpleNamespace

from hypothesis import settings
import numpy as np
import pytest

import sharptop as st
from sharptop.mesh import DIRICHLET, FREE, NEUMANN
from sharptop.surfaces import slab_labels
from sharptop.topopt import MOVE_TRIES, SWAP_VOLUME_RTOL, TopOptError
from sharptop.varifold import InterfaceError

# Property tests draw the same examples on every run and keep no example
# database; each test still sets its own max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


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


def brute_force_tet_grid(positions, tets):
    """Point-in-tet grid with dict-of-lists cells, built tet by tet.

    Same grid, candidate lists and per-pair test as kinematics._TetGrid;
    `contains` queries the points cell by cell.
    """
    corners = np.asarray(positions, float)[tets]
    lo = corners.min(axis=(0, 1))
    hi = corners.max(axis=(0, 1))
    res = max(1, int(round(len(tets) ** (1.0 / 3.0))))
    inv_h = res / np.maximum(hi - lo, 1e-300)
    inv_e = np.linalg.inv(
        np.transpose(corners[:, 1:] - corners[:, :1], (0, 2, 1)))
    base = corners[:, 0]
    tlo = np.clip(((corners.min(axis=1) - lo) * inv_h).astype(int),
                  0, res - 1)
    thi = np.clip(((corners.max(axis=1) - lo) * inv_h).astype(int),
                  0, res - 1)
    cells = {}
    for ti in range(len(tets)):
        for i in range(tlo[ti, 0], thi[ti, 0] + 1):
            for j in range(tlo[ti, 1], thi[ti, 1] + 1):
                for k in range(tlo[ti, 2], thi[ti, 2] + 1):
                    cells.setdefault((i, j, k), []).append(ti)

    def contains(points, tol=1e-12):
        points = np.asarray(points, float)
        cell_ids = np.clip(((points - lo) * inv_h).astype(int), 0, res - 1)
        flat = (cell_ids[:, 0] * res + cell_ids[:, 1]) * res + cell_ids[:, 2]
        hit = np.zeros(len(points), bool)
        order = np.argsort(flat, kind="stable")
        bounds = np.searchsorted(flat[order], np.unique(flat))
        for grp in np.split(order, bounds[1:]):
            if not len(grp):
                continue
            cand = cells.get(tuple(cell_ids[grp[0]]))
            if not cand:
                continue
            cand = np.asarray(cand, int)
            d = points[grp][:, None, :] - base[cand][None, :, :]
            lam = np.einsum("tij,ptj->pti", inv_e[cand], d)
            inside = ((lam >= -tol).all(axis=-1)
                      & (lam.sum(axis=-1) <= 1.0 + tol))
            hit[grp] = inside.any(axis=1)
        return hit

    return SimpleNamespace(lo=lo, hi=hi, res=res, inv_e=inv_e, cells=cells,
                           contains=contains)


def perturbed_slab_labels(mesh, axis, seed, flips):
    """Half-volume slab with `flips` random 1 <-> 0 tet exchanges.

    The exchanges keep the phase-1 tet count but not the topology, so the
    labeling may have non-manifold interface edges.
    """
    labels = np.array(slab_labels(mesh, 0.5, axis=axis).labels)
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        a = rng.choice(np.flatnonzero(labels == 1))
        b = rng.choice(np.flatnonzero(labels == 0))
        labels[a], labels[b] = 0, 1
    return st.PhaseLabeling(labels)


def brute_force_mass_preserving_move(mesh, phases, rng, interface_bias=0.9,
                                     rejections=None):
    """The annealer's swap proposal, admitting a candidate only when a full
    extraction at the reference positions succeeds.

    Draws from `rng` exactly as topopt.mass_preserving_move does.  The
    message of every rejected extraction is appended to `rejections`.
    """
    labels = phases.labels
    ones = np.where(labels == 1)[0]
    zeros = np.where(labels == 0)[0]
    if len(ones) == 0 or len(zeros) == 0:
        raise TopOptError("no admissible move: a phase is empty")
    face_labels = labels[mesh.interior_face_tets]
    cut = face_labels[:, 0] != face_labels[:, 1]
    tets, is1 = mesh.interior_face_tets[cut], face_labels[cut] == 1
    near1, near0 = np.unique(tets[is1]), np.unique(tets[~is1])
    for _ in range(MOVE_TRIES):
        local = rng.random() < interface_bias and len(near1) and len(near0)
        src = rng.choice(near1 if local else ones)
        dst = rng.choice(near0 if local else zeros)
        va, vb = mesh.volumes[src], mesh.volumes[dst]
        if abs(va - vb) > SWAP_VOLUME_RTOL * max(va, vb):
            continue
        candidate = phases.with_swap(tet_to_0=src, tet_to_1=dst)
        try:
            st.extract_interface(mesh, None, candidate,
                                 positions=mesh.vertices)
        except InterfaceError as exc:
            if rejections is not None:
                rejections.append(str(exc))
            continue
        return candidate
    raise TopOptError("no admissible move found (frozen configuration)")


def brute_force_curvature_sums(V):
    """Mixed areas, cotangent Laplacian and angle sums of a varifold, added
    one term at a time: corner by corner, and face by face within a
    corner.  The corners run 0, 1, 2; for the Laplacian, the ends c+1 and
    then c+2 of the edge opposite corner c, for c = 0, 1, 2.

    The per-face terms are Meyer's mixed-area shares, the cotangent edge
    terms and the corner angles, each computed one corner at a time.
    """
    nv, faces = len(V.vertices), V.faces
    v = V.vertices[faces]
    angles = np.empty((len(faces), 3))
    for c in range(3):
        e1 = v[:, (c + 1) % 3] - v[:, c]
        e2 = v[:, (c + 2) % 3] - v[:, c]
        angles[:, c] = np.arctan2(np.linalg.norm(np.cross(e1, e2), axis=1),
                                  np.sum(e1 * e2, axis=1))
    cot = 1.0 / np.tan(angles)
    obtuse = angles > 0.5 * np.pi
    mixed, lap, angle_sum = np.zeros(nv), np.zeros((nv, 3)), np.zeros(nv)
    for c in range(3):
        j, k = (c + 1) % 3, (c + 2) % 3
        lj2 = np.sum((v[:, k] - v[:, c]) ** 2, axis=1)  # edge opposite j
        lk2 = np.sum((v[:, j] - v[:, c]) ** 2, axis=1)  # edge opposite k
        voronoi = (lj2 * cot[:, j] + lk2 * cot[:, k]) / 8.0
        for f in range(len(faces)):
            if obtuse[f].any():
                share = V.areas[f] / (2.0 if obtuse[f, c] else 4.0)
            else:
                share = voronoi[f]
            mixed[faces[f, c]] += share
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        for end, other in ((a, b), (b, a)):
            for f in range(len(faces)):
                lap[faces[f, end]] += cot[f, c] * (v[f, end] - v[f, other])
    for c in range(3):
        for f in range(len(faces)):
            angle_sum[faces[f, c]] += angles[f, c]
    return mixed, lap, angle_sum


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
