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
S_k = A_k - B_k^T S_(k-1)^-1 B_k, an update from the float64
S_(k-1)^-1 and B_k's nonzero entries regrouped by column, in gathered
passes; no dense B_k is formed.  Each S_k^-1 comes from a 2x2
block Schur recursion that does its work in matrix products: halve
S = [[P, Q], [Q^T, R]], invert P, form X = P^-1 Q, invert T = R - Q^T X,
and assemble S^-1 from X T^-1.  Blocks of at most BASE rows are
inverted through their Cholesky factor, which raises
np.linalg.LinAlgError unless they are positive definite; a matrix is
positive definite exactly when P and T are, so the check covers every
level.  Each S_k^-1 is stored in float32, and each B_k as its nonzero
entries with flat indices into (n, 3) nodal arrays, applied with
np.bincount.  The levels come from a breadth-first walk of the mesh's
vertex-to-tet adjacency; when the search runs out of levels with
vertices left, it is seeded again at the lowest one.  A component with
no excluded vertex leaves L_w singular (constants are in its kernel), so
then every diagonal entry is raised by the fraction REGULARISATION.  The
memory is sum_k n_k^2 float32 for levels of n_k vertices: at 16^3 cells
clamped on one face, 16 levels of 289 vertices, 5.1 MiB.
"""

import numpy as np

REGULARISATION = 1e-2
BASE = 64   # largest block spd_inverse inverts through its Cholesky factor


def vertex_levels(mesh, factored):
    """Breadth-first level of each vertex over the tets, -1 where not
    `factored`: level 0 is the factored vertices that share a tet with
    an excluded vertex, or else the lowest factored vertex not yet
    reached.  Returns (levels (nv,) int32, whether a level was seeded).

    Each step walks the vertex-to-tet adjacency from the front only, and
    keeps one occurrence of each vertex it reaches: the one whose
    position the scatter into `slot` kept."""
    levels = np.full(mesh.n_vertices, -1, np.int32)
    reached = ~factored
    front, left = np.flatnonzero(reached), np.count_nonzero(factored)
    start, tets = mesh.vertex_tet_start, mesh.vertex_tets
    slot = np.empty(mesh.n_vertices, np.intp)
    seeded, k = False, 0
    while left:
        lo, hi = start[front], start[front + 1]
        runs = np.repeat(lo - np.cumsum(hi - lo) + (hi - lo), hi - lo)
        near = np.take(mesh.tets, tets[runs + np.arange(len(runs))],
                       axis=0).ravel()
        near = near[~reached[near]]
        slot[near] = np.arange(len(near))
        front = near[slot[near] == np.arange(len(near))]
        if not front.size:
            front, seeded = np.array([np.argmin(reached)]), True
        levels[front] = k
        reached[front] = True
        left -= front.size
        k += 1
    return levels, seeded


def _element_matrices(mesh, tets, weights):
    """w_t Gbar_t Gbar_t^T of `tets` (row-major) from the contiguous
    `ref_inv_cf`, apart so that the generator `_level_couplings` holds
    no Gbar."""
    ref_inv = np.take(mesh.ref_inv_cf, tets, axis=2).transpose(2, 0, 1)
    Gbar = np.concatenate([-ref_inv.sum(axis=1, keepdims=True), ref_inv],
                          axis=1)
    K = (Gbar @ Gbar.transpose(0, 2, 1)).reshape(-1, 16)
    K *= weights[:, None]
    return K


def _level_couplings(mesh, levels, weights):
    """Yield (A_k, C_k) per level k of L_w: the diagonal block A_k
    (n_k, n_k) and C_k, the nonzero entries (rows, cols, values) of the
    coupling B_k (n_(k-1), n_k) in row-major order, rows and columns in
    ascending vertex order within each level; C_0 is None.

    The element matrices K_t = w_t Gbar_t Gbar_t^T are built once, with
    the tets sorted by their top level; each entry of a block sums its
    terms in that tet order."""
    count = np.bincount(levels[levels >= 0])
    order = np.argsort(levels, kind="stable")
    pos = np.empty(mesh.n_vertices, np.int32)   # index within its level
    pos[order] = np.arange(mesh.n_vertices) - np.searchsorted(
        levels[order], levels[order])
    tet_levels = levels[mesh.tets]
    top = tet_levels.max(axis=1)   # a tet spans levels top - 1, top
    by_top = np.argsort(top, kind="stable")
    start = np.searchsorted(top[by_top], np.arange(len(count) + 2))
    K = _element_matrices(mesh, by_top, weights[by_top])
    tet_levels, tet_pos = tet_levels[by_top], pos[mesh.tets[by_top]]
    a, b = np.divmod(np.arange(16), 4)   # the entries of a K_t, row-major
    for k, n in enumerate(count):
        window = slice(start[k], start[k + 2])   # tops k and k + 1
        lv, p = tet_levels[window], tet_pos[window]
        row, col = lv[:, a], lv[:, b]
        flat = p[:, a] * n + p[:, b]
        same = (row == k) & (col == k)
        A = np.bincount(flat[same], K[window][same],
                        minlength=n * n).reshape(n, n)
        coupling = None
        if k:
            prev = (row == k - 1) & (col == k)
            entries, terms = np.unique(flat[prev], return_inverse=True)
            values = np.bincount(terms, K[window][prev])
            nonzero = values != 0.0
            rows, cols = np.divmod(entries[nonzero], n)
            coupling = rows, cols, values[nonzero]
        yield A, coupling


def spd_inverse(A):
    """A^-1 of a symmetric positive definite A (n, n) by the 2x2 block
    Schur recursion; raises np.linalg.LinAlgError if A is not positive
    definite."""
    n = len(A)
    if n <= BASE:
        root = np.linalg.inv(np.linalg.cholesky(A))   # C^-1, A = C C^T
        return root.T @ root
    h = n // 2
    P, Q, R = A[:h, :h], A[:h, h:], A[h:, h:]
    P_inv = spd_inverse(P)
    X = P_inv @ Q
    T_inv = spd_inverse(R - Q.T @ X)
    Y = X @ T_inv
    inverse = np.empty_like(A)
    inverse[:h, :h] = P_inv + Y @ X.T
    inverse[:h, h:] = -Y
    inverse[h:, :h] = -Y.T
    inverse[h:, h:] = T_inv
    return inverse


def _coupled_schur(inverse, rows, cols, values, n):
    """B^T (S^-1 B) for S^-1 = `inverse` (m, m) and the (m, n) B whose
    nonzero entries `values` sit at (rows, cols), row-major.  Regrouped by
    column into R and V (p, n), in row order and zero-padded, they give
    X = S^-1 B = sum_q S^-1[:, R[q]] V[q] and B^T X = sum_q V[q] X[R[q]]:
    B's entries summed in order from 0.0, zero if B has none."""
    by_col = np.argsort(cols, kind="stable")
    col = cols[by_col]
    rank = np.arange(len(col)) - np.searchsorted(col, col)   # in its column
    R = np.zeros((rank.max(initial=0) + 1, n), np.intp)
    V = np.zeros(R.shape)
    R[rank, col], V[rank, col] = rows[by_col], values[by_col]
    columns = np.take(inverse, R[0], axis=1)          # S^-1 B, (m, n)
    columns *= V[0]
    for r, v in zip(R[1:], V[1:]):
        columns += np.take(inverse, r, axis=1) * v
    update = np.take(columns, R[0], axis=0)           # B^T S^-1 B, (n, n)
    update *= V[0][:, None]
    for r, v in zip(R[1:], V[1:]):
        update += v[:, None] * np.take(columns, r, axis=0)
    update += 0.0   # only turns -0.0 into the +0.0 of a sum from 0.0
    return update


def _flat(index):
    """Flat indices of rows `index` of a C-ordered (n, 3) array."""
    return (3 * index[:, None] + np.arange(3)).ravel()


def _couple(to, take, values, x, n):
    """Sum of values * x.flat[take] into the flat entries `to` of an
    (n, 3) result; x is C-ordered (m, 3)."""
    return np.bincount(to, values * x.ravel()[take],
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
        for A, coupling in _level_couplings(mesh, levels, weights):
            if seeded:
                A[np.diag_indices_from(A)] *= 1.0 + REGULARISATION
            if coupling is not None:
                rows, cols, values = coupling
                A -= _coupled_schur(inverse, *coupling, len(A))   # S_k
                self.couplings.append((_flat(rows), _flat(cols),
                                       np.repeat(values, 3)))
            inverse = spd_inverse(A)
            self.inverses.append(inverse.astype(np.float32))

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
