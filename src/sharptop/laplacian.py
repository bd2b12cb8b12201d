"""Block-tridiagonal factor of the weighted reference Laplacian.

L_w = sum_t w_t Gbar_t Gbar_t^T is the P1 stiffness matrix of the
reference mesh: Gbar_t holds the gradients of tet t's four hat functions,
the rows of `ref_inv` for corners 1-3 and minus their sum for corner 0.
It is taken on the factored vertices (the free vertices of some tet),
and one matrix serves all three displacement components.

The factored vertices are ordered in breadth-first levels from the
excluded vertices (Cuthill and McKee 1969).  Two vertices of one tet lie
in the same or in adjacent levels, so L_w is block tridiagonal in that
order: diagonal blocks A_k and couplings B_k between levels k - 1 and k.
The factor is built one level at a time: S_0 = A_0 and
S_k = A_k - B_k^T S_(k-1)^-1 B_k, with each S_k^-1 from a Cholesky factor
and stored in float32, and each B_k stored as its nonzero entries.  When
the search runs out of levels with vertices left, it is seeded again at
the lowest one; a component with no excluded vertex leaves L_w singular
(constants are in its kernel), so then every diagonal entry is raised by
the fraction REGULARISATION.  The memory is sum_k n_k^2 float32 for
levels of n_k vertices: at 16^3 cells clamped on one face, 16 levels of
289 vertices, 5.1 MiB.
"""

import numpy as np

REGULARISATION = 1e-2


def vertex_levels(mesh, factored):
    """Breadth-first level of each vertex over the tets, -1 where not
    `factored`: level 0 is the factored vertices that share a tet with
    an excluded vertex, or else the lowest factored vertex not yet
    reached.  Returns (levels (nv,) int32, whether a level was seeded)."""
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


def level_blocks(mesh, levels, weights):
    """Yield (A_k, B_k) per level k: A_k (n_k, n_k) and B_k
    (n_(k-1), n_k) of L_w, rows and columns in ascending vertex order
    within each level; B_0 is None."""
    count = np.bincount(levels[levels >= 0])
    order = np.argsort(levels, kind="stable")
    pos = np.empty(mesh.n_vertices, np.int32)   # index within its level
    pos[order] = np.arange(mesh.n_vertices) - np.searchsorted(
        levels[order], levels[order])
    top = levels[mesh.tets].max(axis=1)   # a tet spans levels top - 1, top
    by_top = np.argsort(top, kind="stable")
    start = np.searchsorted(top[by_top], np.arange(len(count) + 2))
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
        yield A, B


def _couple(index, gather, values, x, n):
    """Sum of values * x[gather] into rows `index` of an (n, 3) result."""
    flat = (3 * index[:, None] + np.arange(3)).ravel()
    return np.bincount(flat, (values[:, None] * x[gather]).ravel(),
                       minlength=3 * n).reshape(n, 3)


class LaplacianFactor:
    """x -> L_w^-1 x for nodal arrays (nv, 3), with L_w weighted by
    `weights` (nt,) on the free vertices (`free` (nv,) bool) of some
    tet; rows of the other vertices come out zero."""

    def __init__(self, mesh, free, weights):
        used = np.zeros(mesh.n_vertices, bool)
        used[mesh.tets] = True
        levels, seeded = vertex_levels(mesh, free & used)
        self.order = np.argsort(levels, kind="stable")[
            np.count_nonzero(levels < 0):]
        self.bounds = np.cumsum(np.r_[0, np.bincount(levels[self.order])])
        self.inverses, self.couplings = [], []
        for A, B in level_blocks(mesh, levels, weights):
            if seeded:
                A[np.diag_indices_from(A)] *= 1.0 + REGULARISATION
            if B is not None:
                W = root @ B                    # S = A - (C^-1 B)^T (C^-1 B)
                A -= W.T @ W
                rows, cols = np.nonzero(B)
                self.couplings.append((rows.astype(np.int32),
                                       cols.astype(np.int32), B[rows, cols]))
            root = np.linalg.inv(np.linalg.cholesky(A))   # C^-1, S = C C^T
            self.inverses.append((root.T @ root).astype(np.float32))

    def __call__(self, v):
        y = np.asarray(v, float)[self.order]
        b, z = self.bounds, []
        for k, inverse in enumerate(self.inverses):
            yk = y[b[k]:b[k + 1]]
            if k:
                rows, cols, values = self.couplings[k - 1]
                yk -= _couple(cols, rows, values, z[-1], len(yk))
            z.append(inverse @ yk.astype(np.float32))
        x = np.zeros(np.shape(v))
        xk = z[-1].astype(float)
        x[self.order[b[-2]:]] = xk
        for k in range(len(z) - 2, -1, -1):
            rows, cols, values = self.couplings[k]
            coupled = _couple(rows, cols, values, xk, len(z[k]))
            xk = z[k] - self.inverses[k] @ coupled.astype(np.float32)
            x[self.order[b[k]:b[k + 1]]] = xk
        return x
