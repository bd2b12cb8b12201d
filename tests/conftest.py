import decimal
from decimal import Decimal
import itertools
from types import SimpleNamespace

from hypothesis import settings
import numpy as np
import pytest

import sharptop as st
from sharptop.kinematics import (_disjoint_pairs_cross, _edge_pairs_fold,
                                 _vertex_pairs_cross)
from sharptop.laplacian import (REGULARISATION, level_couplings,
                                vertex_levels)
from sharptop.mesh import DIRICHLET, FREE, NEUMANN, edge_keys, face_topology
from sharptop.surfaces import slab_labels
from sharptop.topopt import (COLD_SOLVE_EVERY, MOVE_TRIES, SWAP_VOLUME_RTOL,
                             TopOptError, TraceRow)
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


def jittered_box_mesh(dims, rng, jitter):
    """A clamped, pulled box mesh with every vertex moved by up to
    `jitter` cells."""
    mesh = st.build_box_mesh(*dims, tagging=clamp_bottom_pull_top)
    h = 1.0 / np.array(dims)
    vertices = mesh.vertices + jitter * h * rng.uniform(
        -1, 1, mesh.vertices.shape)
    return st.ReferenceMesh(vertices=vertices, tets=mesh.tets,
                            boundary_faces=mesh.boundary_faces,
                            boundary_tags=mesh.boundary_tags)


def l_shape_mesh():
    """A 3x3x2 box with the tets of its x, y > 2/3 column removed, clamped
    at x = 0: uneven levels, and the vertices of the removed column's
    inner edge are in no tet."""
    box = st.build_box_mesh(3, 3, 2)
    centroid = box.tet_centroids()
    tets = box.tets[(centroid[:, 0] < 2 / 3) | (centroid[:, 1] < 2 / 3)]
    faces = face_topology(tets, box.n_vertices)[2]
    clamped = np.all(box.vertices[faces][:, :, 0] == 0.0, axis=1)
    return st.ReferenceMesh(vertices=box.vertices, tets=tets,
                            boundary_faces=faces,
                            boundary_tags=np.where(clamped, DIRICHLET, FREE))


def brute_force_deformation_gradients(mesh, positions):
    """F and |F|^2 of every tet, one tet at a time in Python floats.

    F[i][j] = (d1[i] G[0][j] + d2[i] G[1][j]) + d3[i] G[2][j] for the
    edges d_k = x_k - x_0 and G = ref_inv, and |F|^2 adds the squares q_k
    of F[k // 3][k % 3] as (((q0 + q1) + (q2 + q3)) + ((q4 + q5) +
    (q6 + q7))) + q8.  Python floats never fuse a multiply-add.
    """
    pos = np.asarray(positions, float).tolist()
    F, norm2 = np.empty((mesh.n_tets, 3, 3)), np.empty(mesh.n_tets)
    for t, tet in enumerate(mesh.tets.tolist()):
        x0 = pos[tet[0]]
        d = [[pos[v][i] - x0[i] for i in range(3)] for v in tet[1:]]
        G = mesh.ref_inv[t].tolist()
        Ft = [[(d[0][i] * G[0][j] + d[1][i] * G[1][j]) + d[2][i] * G[2][j]
               for j in range(3)] for i in range(3)]
        q = [v * v for row in Ft for v in row]
        F[t] = Ft
        norm2[t] = (((q[0] + q[1]) + (q[2] + q[3]))
                    + ((q[4] + q[5]) + (q[6] + q[7]))) + q[8]
    return F, norm2


def density_oracle(norm, det, model):
    """Unscaled W = |F|^r + (|F|^3 / det F)^(r-1) + det F^(-s)."""
    r, s = model.r, model.s
    return norm**r + (norm**3 / det) ** (r - 1.0) + det ** (-s)


def stress_oracle(F, cof, norm, det, model):
    """Unscaled dW/dF, term by term: r |F|^(r-2) F, (r-1) D^(r-2) dD/dF
    for D = |F|^3 / det F, and -s det F^(-s-1) Cof F.  `norm` and `det`
    broadcast against F and cof."""
    r, s = model.r, model.s
    P = r * norm ** (r - 2.0) * F
    P += (r - 1.0) * (norm**3 / det) ** (r - 2.0) * (
        3.0 * norm / det * F - norm**3 / det**2 * cof)
    P += -s * det ** (-s - 1.0) * cof
    return P


def decimal_stress(F, weight, model, digits=50):
    """w dW/dF at one F (3, 3) by central differences of W in `digits`
    digit decimal arithmetic, rounded to floats; F, w, r and s are taken
    exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        r, s = Decimal(model.r), Decimal(model.s)

        def W(M):
            norm = sum(x * x for row in M for x in row).sqrt()
            det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                   - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                   + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
            return norm**r + (norm**3 / det) ** (r - 1) + det ** -s

        h = Decimal(10) ** (-digits // 2)
        P = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                ends = []
                for step in (h, -h):
                    M = [[Decimal(x) for x in row] for row in F.tolist()]
                    M[i][j] += step
                    ends.append(W(M))
                P[i, j] = float(Decimal(weight) * (ends[0] - ends[1])
                                / (2 * h))
    return P


def kernel_stress_oracle(F, cof, norm2, det, weight, model):
    """w dW/dF of F, Cof F (nt, 3, 3) as a F + b Cof F, from the per-tet
    scalars in the bulk kernel's order: for A = |F|^r, B = D^(r-1) and
    C = det F^(-s), a = w (r A + 3 (r-1) B) / |F|^2 and
    b = w ((1 - r) B - s C) / det F."""
    r, s = model.r, model.s
    norm = np.sqrt(norm2)
    A, B, C = norm**r, (norm**3 / det) ** (r - 1.0), det ** (-s)
    a = weight * (r * A + 3.0 * (r - 1.0) * B) / norm2
    b = weight * ((1.0 - r) * B - s * C) / det
    return a[:, None, None] * F + b[:, None, None] * cof


def brute_force_corner_scatter(mesh, P, dirichlet_mask):
    """Nodal sums of the corner forces of per-tet stresses P (nt, 3, 3).

    In Python floats: corner c + 1 of a tet takes f_c[i] = (P[i][0]
    G[c][0] + P[i][1] G[c][1]) + P[i][2] G[c][2] with G = ref_inv, and
    corner 0 takes -((f_0 + f_1) + f_2).  Each nodal sum starts at 0.0
    and adds its terms corner by corner (1, 2, 3, 0), tet by tet within
    a corner.  Dirichlet rows are zeroed.
    """
    forces = []
    for t in range(mesh.n_tets):
        G, Pt = mesh.ref_inv[t].tolist(), P[t].tolist()
        f = [[(Pt[i][0] * G[c][0] + Pt[i][1] * G[c][1]) + Pt[i][2] * G[c][2]
              for i in range(3)] for c in range(3)]
        f.append([-((f[0][i] + f[1][i]) + f[2][i]) for i in range(3)])
        forces.append(f)
    grad = [[0.0] * 3 for _ in range(mesh.n_vertices)]
    for c, corner in enumerate((1, 2, 3, 0)):
        for t, tet in enumerate(mesh.tets.tolist()):
            for i in range(3):
                grad[tet[corner]][i] += forces[t][c][i]
    grad = np.array(grad)
    grad[dirichlet_mask] = 0.0
    return grad


def cholesky_factor_oracle(mesh, free, weights):
    """The level blocks, inverses and couplings of laplacian.LaplacianFactor,
    built level by level: each level's element matrices from its own tets,
    S_k^-1 = C^-T C^-1 from the inverse of the Cholesky factor C of S_k,
    and S_k = A_k - W^T W for W = C_(k-1)^-1 B_k.  Returns (blocks
    [(A_k, B_k)] as assembled, float32 inverses, couplings [(rows, cols,
    values)] of the nonzero entries of each B_k)."""
    used = np.zeros(mesh.n_vertices, bool)
    used[mesh.tets] = True
    levels, seeded = vertex_levels(mesh, free & used)
    count = np.bincount(levels[levels >= 0])
    order = np.argsort(levels, kind="stable")
    pos = np.empty(mesh.n_vertices, np.int32)
    pos[order] = np.arange(mesh.n_vertices) - np.searchsorted(
        levels[order], levels[order])
    top = levels[mesh.tets].max(axis=1)
    by_top = np.argsort(top, kind="stable")
    start = np.searchsorted(top[by_top], np.arange(len(count) + 2))
    blocks, inverses, couplings = [], [], []
    for k, n in enumerate(count):
        sel = by_top[start[k]:start[k + 2]]
        tets = mesh.tets[sel]
        G = mesh.ref_inv[sel]
        Gbar = np.concatenate([-G.sum(axis=1, keepdims=True), G], axis=1)
        K = weights[sel, None, None] * (Gbar @ Gbar.transpose(0, 2, 1))
        lv, p = levels[tets], pos[tets]
        flat = p[:, :, None] * n + p[:, None, :]
        col = lv[:, None, :] == k
        same = (lv[:, :, None] == k) & col
        A = np.bincount(flat[same], K[same], minlength=n * n).reshape(n, n)
        B = None
        if k:
            prev = (lv[:, :, None] == k - 1) & col
            B = np.bincount(flat[prev], K[prev],
                            minlength=count[k - 1] * n).reshape(-1, n)
        blocks.append((A.copy(), B))
        if seeded:
            A[np.diag_indices_from(A)] *= 1.0 + REGULARISATION
        if B is not None:
            W = root @ B
            A -= W.T @ W
            rows, cols = np.nonzero(B)
            couplings.append((rows, cols, B[rows, cols]))
        root = np.linalg.inv(np.linalg.cholesky(A))
        inverses.append((root.T @ root).astype(np.float32))
    return blocks, inverses, couplings


def dense_level_blocks(mesh, levels, weights):
    """(A_k, B_k) per level of laplacian.level_couplings, with each
    coupling B_k (n_(k-1), n_k) densified from its nonzero entries;
    B_0 is None."""
    count = np.bincount(levels[levels >= 0])
    blocks = []
    for k, (A, coupling) in enumerate(level_couplings(mesh, levels,
                                                      weights)):
        B = None
        if k:
            rows, cols, values = coupling
            B = np.zeros((count[k - 1], count[k]))
            B[rows, cols] = values
        blocks.append((A, B))
    return blocks


def vertex_levels_oracle(mesh, factored):
    """laplacian.vertex_levels by scanning every tet at every level: the
    next front is every unreached vertex of a tet that has a vertex in
    the current front."""
    levels = np.full(mesh.n_vertices, -1, np.int32)
    reached = ~factored
    front, seeded, k = ~factored, False, 0
    while not reached.all():
        near = np.zeros(mesh.n_vertices, bool)
        near[mesh.tets[front[mesh.tets].any(axis=1)]] = True
        front = near & ~reached
        if not front.any():
            front[np.argmin(reached)] = seeded = True
        levels[front] = k
        reached |= front
        k += 1
    return levels, seeded


def vtk_text_oracle(points, cells, cell_data=None, point_data=None):
    """export.write_vtk_unstructured's file text, one line at a time."""
    points = np.asarray(points, float)
    cells = np.asarray(cells, int)
    width = cells.shape[1]
    out = ["# vtk DataFile Version 3.0",
           {4: "sharptop grid", 3: "sharptop interface"}[width],
           "ASCII", "DATASET UNSTRUCTURED_GRID",
           f"POINTS {len(points)} double"]
    out += ["%.17g %.17g %.17g" % tuple(p) for p in points]
    out.append(f"CELLS {len(cells)} {(width + 1) * len(cells)}")
    out += [str(width) + " %d" * width % tuple(c) for c in cells]
    out.append(f"CELL_TYPES {len(cells)}")
    out += [str({4: 10, 3: 5}[width])] * len(cells)
    for kind, n, data in (("CELL_DATA", len(cells), cell_data),
                          ("POINT_DATA", len(points), point_data)):
        if data:
            out.append(f"{kind} {n}")
            for name, values in data.items():
                out.append(f"SCALARS {name} double 1")
                out.append("LOOKUP_TABLE default")
                out += ["%.17g" % v for v in np.asarray(values, float)]
    return "\n".join(out) + "\n"


def obj_text_oracle(vertices, faces, face_normals):
    """export.write_obj's file text, one line at a time."""
    out = ["v %.17g %.17g %.17g" % tuple(v)
           for v in np.asarray(vertices, float)]
    out += ["vn %.17g %.17g %.17g" % tuple(n)
            for n in np.asarray(face_normals, float)]
    out += [f"f {a}//{i} {b}//{i} {c}//{i}"
            for i, (a, b, c) in enumerate(np.asarray(faces, int) + 1, 1)]
    return "\n".join(out) + "\n"


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


def coiled_bar(turns, n=24, radius=5.0):
    """An n x 2 x 2 bar of unit cells wound `turns` times round the z axis.

    The bar's x axis runs along the coil and its y axis inwards, so
    det F > 0; 2 pi radius is about the bar's length.  Past one turn the
    end passes through the start.  Returns (mesh, positions).
    """
    mesh = st.build_box_mesh(n, 2, 2, extent=(n, 2.0, 2.0))
    x, y, z = mesh.vertices.T
    angle = 2.0 * np.pi * turns * x / n
    r = radius - y
    return mesh, np.stack([r * np.cos(angle), r * np.sin(angle), z], axis=1)


def brute_force_self_intersection(mesh, positions):
    """kinematics.boundary_self_intersects over every pair of boundary
    triangles, with no spatial hash: each pair is classified by its
    common vertices and tested with the same predicates."""
    faces = mesh.topological_boundary_faces
    i, j = np.triu_indices(len(faces), 1)
    A, B = faces[i], faces[j]
    a_in_b = (A[:, :, None] == B[:, None, :]).any(axis=2)
    b_in_a = (B[:, :, None] == A[:, None, :]).any(axis=2)
    # each triangle's common vertices first, in a consistent order
    A = np.take_along_axis(A, np.argsort(~a_in_b, axis=1, kind="stable"), 1)
    B = np.take_along_axis(B, np.argsort(~b_in_a, axis=1, kind="stable"), 1)
    common = a_in_b.sum(axis=1)
    x = np.asarray(positions, float).T
    rows = [np.hstack([A, B])[common == 0],
            np.hstack([A, B[:, 1:]])[common == 1],
            np.hstack([A, B[:, 2:]])[common == 2]]
    disjoint, vertex, edge = (np.take(x, r.T, axis=1) for r in rows)
    return bool(_disjoint_pairs_cross(disjoint[:, :3], disjoint[:, 3:]).any()
                or _vertex_pairs_cross(vertex).any()
                or _edge_pairs_fold(edge).any())


def brute_force_box_pairs(mesh, positions):
    """Every pair (i, j), i < j, of boundary triangles with no common
    vertex whose closed bounding boxes overlap."""
    faces = mesh.topological_boundary_faces
    corners = np.asarray(positions, float)[faces]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    i, j = np.triu_indices(len(faces), 1)
    apart = ~(faces[i][:, :, None] == faces[j][:, None, :]).any(axis=(1, 2))
    overlap = (lo[i] <= hi[j]).all(axis=1) & (lo[j] <= hi[i]).all(axis=1)
    keep = apart & overlap
    return set(zip(i[keep].tolist(), j[keep].tolist()))


def brute_force_component_count(n, pairs):
    """Connected components by union-find, one edge at a time."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in np.asarray(pairs, int).reshape(-1, 2).tolist():
        parent[root(a)] = root(b)
    return len({root(i) for i in range(n)})


def even_corner_shuffle(mesh, seed):
    """The mesh with each tet's corners in a random even permutation,
    which keeps every tet's orientation."""
    rng = np.random.default_rng(seed)
    even = [p for p in itertools.permutations(range(4))
            if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
    order = np.array(even)[rng.integers(len(even), size=mesh.n_tets)]
    return st.ReferenceMesh(vertices=mesh.vertices,
                            tets=np.take_along_axis(mesh.tets, order, axis=1),
                            boundary_faces=mesh.boundary_faces,
                            boundary_tags=mesh.boundary_tags)


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


def brute_force_annealing(mesh, init_phases, model, config, state0=None):
    """topopt.optimize_topology with no kept state: every proposal runs a
    full extraction per candidate draw (brute_force_mass_preserving_move),
    a full inner solve and a full extraction of the candidate.

    Returns (trace rows, accepted, rejected, best labels)."""
    rng = np.random.default_rng(config.seed)

    def evaluate(phases, warm):
        state, report = st.minimize_equilibrium(mesh, warm, phases, model,
                                                config.solve_options)
        if not report.converged:
            state, report = st.minimize_equilibrium(
                mesh, st.identity_state(mesh), phases, model,
                config.solve_options)
            if not report.converged:
                raise TopOptError("inner equilibrium solve did not converge")
        positions = (mesh.vertices if config.mode == "REFERENTIAL"
                     else state.positions)
        V = st.extract_interface(mesh, state, phases, positions=positions)
        if st.boundary_defect(V):
            raise InterfaceError("dangling edges")
        return (state, st.compliance(mesh, state, phases, model),
                st.interface_energy(V, model), st.varifold_mass(V))

    state, phases = state0 or st.identity_state(mesh), init_phases
    state, comp, eint, mu = evaluate(phases, state)
    obj = comp + eint
    best = (phases, obj)
    trace, accepted, rejected, step = [], 0, 0, 0
    temperature = config.t_initial
    while temperature > config.t_final:
        for _ in range(config.steps_per_temperature):
            step += 1
            try:
                candidate = brute_force_mass_preserving_move(mesh, phases,
                                                             rng)
                warm = state
                if accepted and accepted % COLD_SOLVE_EVERY == 0:
                    warm = st.identity_state(mesh)
                c_state, c_comp, c_eint, c_mu = evaluate(candidate, warm)
            except (InterfaceError, TopOptError):
                rejected += 1
                trace.append(TraceRow(step, temperature, obj, comp, eint, mu,
                                      False))
                continue
            c_obj = c_comp + c_eint
            delta = c_obj - obj
            accept = delta < 0 or rng.random() < np.exp(-delta / temperature)
            if accept:
                state, phases = c_state, candidate
                obj, comp, eint, mu = c_obj, c_comp, c_eint, c_mu
                accepted += 1
                if obj < best[1]:
                    best = (phases, obj)
            else:
                rejected += 1
            trace.append(TraceRow(step, temperature, c_obj if accept else obj,
                                  comp, eint, mu, accept))
        temperature *= config.t_decay
    return trace, accepted, rejected, best[0].labels


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


def mesh_text(vertices, tets, faces, tags):
    """Mesh file text of the given arrays, row by row."""
    lines = ["tetmesh v1"]
    lines += ["v %.17g %.17g %.17g" % tuple(v) for v in vertices]
    lines += ["t %d %d %d %d" % tuple(t) for t in tets]
    lines += ["bf %d %d %d %s" % (*f, tag) for f, tag in zip(faces, tags)]
    return "\n".join(lines) + "\n"


def _two_boxes_mesh():
    """Two unit boxes a unit apart along x, as mesh file text."""
    box = st.build_box_mesh(1, 1, 1)
    nv = box.n_vertices
    return mesh_text(np.vstack([box.vertices, box.vertices + [2.0, 0.0, 0.0]]),
                     np.vstack([box.tets, box.tets + nv]),
                     np.vstack([box.boundary_faces, box.boundary_faces + nv]),
                     [FREE] * (2 * len(box.boundary_faces)))


def _repeated_neumann_mesh():
    """A 2x2x2 box clamped at z = 0 and pulled at z = 1, as mesh file
    text whose first NEUMANN line is written twice."""
    box = st.build_box_mesh(2, 2, 2, tagging=clamp_bottom_pull_top)
    k = int(np.flatnonzero(box.boundary_tags == NEUMANN)[0])
    return mesh_text(box.vertices, box.tets,
                     np.insert(box.boundary_faces, k, box.boundary_faces[k],
                               axis=0),
                     np.insert(box.boundary_tags, k, NEUMANN))


TWO_BOXES_MESH = _two_boxes_mesh()
REPEATED_NEUMANN_MESH = _repeated_neumann_mesh()


def _dot_last(a, b):
    return ((a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])
            + a[..., 2] * b[..., 2])


def centroid_flips(mesh, labels, positions):
    """The cut interior faces of a labeling and whether each sorted triple
    must be flipped to point into phase 1, by the centroid rule: its
    normal points away from the centroid of its phase-1 tet minus that
    of its phase-0 tet."""
    face_labels = labels[mesh.interior_face_tets]
    cut = np.flatnonzero(face_labels[:, 0] != face_labels[:, 1])
    pairs = mesh.interior_face_tets[cut]
    swap = labels[pairs[:, 0]] == 1
    pairs[swap] = pairs[swap, ::-1]
    normals = _areas_normals_oracle(positions, mesh.interior_faces[cut])[1]
    # four times the centroids, summed in np.mean's order
    x = np.take(positions, mesh.tets[pairs], axis=0)
    centroids = ((x[:, :, 0] + x[:, :, 1]) + x[:, :, 2]) + x[:, :, 3]
    toward1 = centroids[:, 1] - centroids[:, 0]
    return cut, np.sum(normals * toward1, axis=1) < 0


def _areas_normals_oracle(vertices, faces):
    """Triangle areas and unit normals from np.cross and np.linalg.norm."""
    v = vertices[faces]
    cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    if np.any(areas <= 0):
        raise InterfaceError("degenerate interface triangle")
    return areas, cross / (2.0 * areas[:, None])


def _curvature_oracle(vertices, faces, areas, normals,
                      domain_boundary_edges):
    """A varifold's fields from the curvature pass as it was before it
    shared its corner crosses with the areas and normals: coordinates
    last, np.cross, and np.unique edge counts."""
    nv = len(vertices)
    p = vertices[faces.T]                   # (corner, face, xyz)
    nxt, prv = [1, 2, 0], [2, 0, 1]
    e1, e2 = p[nxt] - p, p[prv] - p
    cross = np.cross(e1, e2)
    angles = np.arctan2(np.sqrt(_dot_last(cross, cross)), _dot_last(e1, e2))
    cot = 1.0 / np.tan(angles)
    corners = faces.T.ravel()
    obtuse = angles > 0.5 * np.pi
    voronoi = (_dot_last(e2, e2) * cot[nxt]
               + _dot_last(e1, e1) * cot[prv]) / 8.0
    share = np.where(obtuse.any(axis=0),
                     np.where(obtuse, areas / 2.0, areas / 4.0), voronoi)
    mixed = np.bincount(corners, share.ravel(), minlength=nv)
    if np.any(mixed <= 0):
        raise InterfaceError("zero mixed area (degenerate triangle fan)")
    ends = np.stack([faces.T[nxt], faces.T[prv]], axis=1)
    terms = cot[:, None, :, None] * np.stack([p[nxt] - p[prv],
                                              p[prv] - p[nxt]], axis=1)
    lap = np.bincount((3 * ends[..., None] + np.arange(3)).ravel(),
                      terms.ravel(), minlength=3 * nv).reshape(nv, 3)
    H = lap / (4.0 * mixed[:, None])
    K = (2.0 * np.pi - np.bincount(corners, angles.ravel(), minlength=nv)
         ) / mixed
    keys, counts = np.unique(edge_keys(faces, nv), return_counts=True)
    single = counts == 1
    interior = np.ones(nv, bool)
    interior[keys[single] // nv] = False
    interior[keys[single] % nv] = False
    ii2 = 4.0 * _dot_last(H, H) - 2.0 * K
    a_norm = np.sqrt(2.0 * np.maximum(ii2, 0.0))
    a_norm[~interior] = 0.0
    H[~interior] = 0.0
    K[~interior] = 0.0
    return SimpleNamespace(
        vertices=vertices, faces=faces, areas=areas, normals=normals,
        domain_boundary_edges=domain_boundary_edges, mean_curvature=H,
        gauss_curvature=K, a_norm=a_norm, mixed_area=mixed,
        interior_vertex=interior, open_edges=keys[single],
        dangling_edges=keys[single & ~np.isin(keys, domain_boundary_edges)],
        clip_count=int(np.count_nonzero(interior & (ii2 < 0))))


def triangles_oracle(vertices, faces):
    """varifold.varifold_from_triangles as it was before the areas and
    normals came from the curvature pass's crosses."""
    vertices, faces = np.asarray(vertices, float), np.asarray(faces, int)
    return _curvature_oracle(vertices, faces,
                             *_areas_normals_oracle(vertices, faces),
                             np.zeros(0, int))


def extraction_oracle(mesh, labels, positions):
    """varifold.extract_interface as it was before orientation came from
    the mesh: cut faces and edge counts by np.unique, areas and normals
    of the sorted triples, each triangle then flipped by the centroid
    rule (`centroid_flips`), and the curvature of the flipped faces."""
    nv = mesh.n_vertices
    positions = np.asarray(positions, float)
    face_labels = labels[mesh.interior_face_tets]
    tris = mesh.interior_faces[face_labels[:, 0] != face_labels[:, 1]]
    keys, counts = np.unique(edge_keys(tris, nv), return_counts=True)
    if np.any(counts > 2):
        raise InterfaceError("non-manifold interface edges")
    flip = centroid_flips(mesh, labels, positions)[1]
    used = np.unique(tris)
    remap = np.full(nv, -1)
    remap[used] = np.arange(len(used))
    faces, vertices = remap[tris], positions[used]
    areas, normals = _areas_normals_oracle(vertices, faces)
    faces[flip, 1], faces[flip, 2] = faces[flip, 2].copy(), \
        faces[flip, 1].copy()
    normals[flip] *= -1.0
    local = remap[keys // nv] * len(used) + remap[keys % nv]
    return _curvature_oracle(vertices, faces, areas, normals,
                             local[np.isin(keys, mesh.boundary_edge_keys)])


def assert_varifold_equals_oracle(V, oracle):
    """Every field of an InterfaceVarifold equal to the oracle's, bit for
    bit up to the sign of zero, with equal shapes and dtypes."""
    for name in ("vertices", "faces", "areas", "normals",
                 "domain_boundary_edges", "mean_curvature",
                 "gauss_curvature", "a_norm", "mixed_area",
                 "interior_vertex", "open_edges", "dangling_edges"):
        got, want = getattr(V, name), getattr(oracle, name)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert V.clip_count == oracle.clip_count
