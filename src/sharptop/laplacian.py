"""Block-tridiagonal level factors of the reference stiffness operators.

Two operators are factored, on the factored vertices (the free vertices
of some tet).  L_w = sum_t w_t Gbar_t Gbar_t^T is the P1 stiffness
matrix of the reference mesh: Gbar_t holds the gradients g_a of tet t's
four hat functions, the rows of `ref_inv` for corners 1-3 and minus
their sum for corner 0; one matrix serves all three displacement
components.  K0 = sum_t w_t B_t^T C B_t is the linear-elastic operator
of Lame parameters (mu, lambda) on the components of those vertices,
vertex by vertex: its 3 x 3 block of corners (a, b) of tet t is
w_t (lambda g_a g_b^T + mu g_b g_a^T + mu (g_a . g_b) I).  It is
factored only where `_elastic_fits` holds: no level wider than
ELASTIC_WIDTH components and none seeded, one face-connected component
and excluded vertices that are not collinear, so that no rigid motion
is free and K0 is positive definite.

The factored vertices are ordered in breadth-first levels from the
excluded vertices (Cuthill and McKee 1969).  Two vertices of one tet lie
in the same or in adjacent levels, so either operator is block
tridiagonal in that order: diagonal blocks A_k and couplings B_k between
levels k - 1 and k, of q n_k rows for levels of n_k vertices, q = 1 for
L_w and 3 for K0.  Both are assembled level by level from the element
matrices of the tets whose top level is k and k + 1: L_w's entries, or
the outer products w_t g_a g_b^T mapped to K0's blocks.  The factor is
built one level at a time: S_0 = A_0 and S_k = A_k - B_k^T S_(k-1)^-1 B_k.
L_w's update comes from the float64 S_(k-1)^-1 and B_k's nonzero entries
regrouped by column, in gathered passes; K0's narrow levels take dense
products with the stored float32 S_(k-1)^-1.  Each S_k^-1 comes from a
2x2 block Schur recursion that does its work in matrix products: halve
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
memory is sum_k (q n_k)^2 float32: at 16^3 cells clamped on one face,
L_w's 16 levels of 289 vertices take 5.1 MiB, and at 6^3 K0's 6 levels
of 147 components take 0.5 MiB.
"""

import numpy as np

from .mesh import component_count

REGULARISATION = 1e-2
ELASTIC_WIDTH = 200   # widest level, in components, whose K0 is factored
COLLINEAR = 1e-3      # relative distance from a line of collinear pins
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


def _element_matrices(mesh, tets, weights, vector=False):
    """Element matrices of `tets`, by corner pairs (a, b) row-major within
    each tet: the entries w_t Gbar_t Gbar_t^T (1, 16 t) of L_w, or with
    `vector` the outer products w_t g_a g_b^T of the rows g_a of Gbar_t,
    by component pairs row-major (9, 16 t).  Gathered with np.take from
    the contiguous `ref_inv_cf`."""
    ref_inv = np.take(mesh.ref_inv_cf, tets, axis=2).transpose(2, 0, 1)
    Gbar = np.concatenate([-ref_inv.sum(axis=1, keepdims=True), ref_inv],
                          axis=1)
    if vector:
        G = np.ascontiguousarray(Gbar.transpose(2, 0, 1))   # (i, t, a)
        return ((weights[:, None] * G)[:, None, :, :, None]
                * G[None, :, :, None, :]).reshape(9, -1)
    K = (Gbar @ Gbar.transpose(0, 2, 1)).reshape(-1, 16)
    K *= weights[:, None]
    return K.reshape(1, -1)


def _elastic_map(two_mu, lam):
    """The symmetric (9, 9) map of the entries of a 3 x 3 block M,
    row-major, to those of lambda M + mu M^T + mu tr(M) I: K0's blocks
    from the sums M of w_t g_a g_b^T."""
    i, j = np.divmod(np.arange(9), 3)
    return (lam * np.eye(9)
            + 0.5 * two_mu * ((i[:, None] == j) & (j[:, None] == i))
            + 0.5 * two_mu * np.outer(i == j, i == j))


def _level_couplings(mesh, levels, weights, lame=None):
    """Yield (A_k, C_k) per level k of L_w, or of K0 for `lame` = (2 mu,
    lambda): the diagonal block A_k (q n_k, q n_k) and C_k, the nonzero
    entries (rows, cols, values) of the coupling B_k (q n_(k-1), q n_k),
    by component pairs, each by vertex pairs in row-major order; C_0 is
    None.  Rows and columns are in ascending vertex order within each
    level, and a vertex's q components are adjacent.

    The tets are sorted by their top level, and the element matrices of
    the tets of each top level are built once, for the first level whose
    blocks they enter; each entry of a block sums its terms in tet
    order."""
    count = np.bincount(levels[levels >= 0])
    order = np.argsort(levels, kind="stable")
    pos = np.empty(mesh.n_vertices, np.int32)   # index within its level
    pos[order] = np.arange(mesh.n_vertices) - np.searchsorted(
        levels[order], levels[order])
    tet_levels = levels[mesh.tets]
    # a tet spans levels top - 1, top; taken as column maxima, since
    # max(axis=1) over rows of 4 pays per row
    t = tet_levels.T
    top = np.maximum(np.maximum(t[0], t[1]), np.maximum(t[2], t[3]))
    by_top = np.argsort(top, kind="stable")
    start = np.searchsorted(top[by_top], np.arange(len(count) + 2))
    tet_levels, tet_pos = tet_levels[by_top], pos[mesh.tets[by_top]]
    q = 1 if lame is None else 3
    a, b = np.divmod(np.arange(16), 4)   # the corner pairs of a tet
    i, j = np.divmod(np.arange(q * q)[:, None], q)   # the component pairs
    elastic = None if lame is None else _elastic_map(*lame)

    def entries(k):
        """(row positions, column positions, values (q^2, m)) of the
        element matrices of the tets whose top is k, at the pairs of
        levels (k - 1, k - 1), (k, k) and (k - 1, k), in tet order."""
        tets = slice(start[k], start[k + 1])
        K = _element_matrices(mesh, by_top[tets], weights[by_top[tets]],
                              lame is not None)
        lv, p = tet_levels[tets], tet_pos[tets]
        row, col, pa, pb = (x.ravel() for x in (lv[:, a], lv[:, b],
                                                p[:, a], p[:, b]))
        parts = []
        for at in ((row == k - 1) & (col == k - 1), (row == k) & (col == k),
                   (row == k - 1) & (col == k)):
            at = np.flatnonzero(at)
            parts.append((pa[at], pb[at], np.take(K, at, axis=1)))
        return parts

    def diagonal(parts, n):
        rows, cols, values = (np.concatenate(part, axis=-1)
                              for part in zip(*parts))
        if elastic is not None:
            values = elastic @ values
        return np.bincount(
            (q * q * n * rows + q * cols + (i * q * n + j)).ravel(),
            values.ravel(), minlength=(q * n)**2).reshape(q * n, q * n)

    def coupling(rows, cols, values, n):
        pairs, terms = np.unique(rows * n + cols, return_inverse=True)
        values = np.bincount((terms + len(pairs) * (i * q + j)).ravel(),
                             values.ravel()).reshape(q * q, -1)
        if elastic is not None:
            values = elastic @ values
        rows, cols = np.divmod(pairs, n)
        rows, cols, values = ((q * rows + i).ravel(), (q * cols + j).ravel(),
                              values.ravel())
        nonzero = values != 0.0
        return rows[nonzero], cols[nonzero], values[nonzero]

    parts = entries(0)
    for k, n in enumerate(count):
        above = entries(k + 1)
        blocks = (diagonal((parts[1], above[0]), n),   # tops k and k + 1
                  coupling(*parts[2], n) if k else None)
        parts = above
        yield blocks


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


def _dense_schur(inverse, rows, cols, values, n):
    """B^T (S^-1 B) for S^-1 = `inverse` (m, m) and the (m, n) B whose
    nonzero entries `values` sit at (rows, cols), by dense products in
    the precision of `inverse`."""
    B = np.zeros((len(inverse), n), inverse.dtype)
    B[rows, cols] = values
    return B.T @ (inverse @ B)


def _elastic_fits(mesh, free, used, levels, seeded):
    """Whether K0 on the free components is positive definite and its
    levels are narrow: no level was seeded and none is wider than
    ELASTIC_WIDTH components, the tets form one face-connected
    component, and the excluded vertices of some tet are not collinear,
    so that no rigid motion is left free.  Collinear means within
    COLLINEAR times their extent of one line through the first of them
    and the one farthest from it."""
    if seeded or 3 * np.bincount(levels[levels >= 0]).max() > ELASTIC_WIDTH:
        return False
    pinned = mesh.vertices[used & ~free]   # not empty: no level was seeded
    offsets = pinned - pinned[0]
    far = offsets[np.argmax(np.einsum("ij,ij->i", offsets, offsets))]
    off_line = np.cross(far, offsets)
    return (np.einsum("ij,ij->i", off_line, off_line).max()
            > COLLINEAR**2 * np.dot(far, far)**2
            and component_count(mesh.n_tets, mesh.interior_face_tets) == 1)


def _flat(index):
    """Flat indices of rows `index` of a C-ordered (n, 3) array."""
    return (3 * index[:, None] + np.arange(3)).ravel()


def _couple(to, take, values, x, n):
    """Sum of values * x.flat[take] into the flat entries `to` of an
    (n, 3) result; x is C-ordered (m, 3)."""
    return np.bincount(to, values * x.ravel()[take],
                       minlength=3 * n).reshape(n, 3)


class LaplacianFactor:
    """x -> K^-1 x for nodal arrays (nv, 3), with K on the free vertices
    (`free` (nv,) bool) of some tet, weighted by `weights` (nt,): K0 for
    `lame` = (2 mu, lambda) where `_elastic_fits` holds, else L_w.  Rows
    of the other vertices come out zero."""

    def __init__(self, mesh, free, weights, lame=None):
        used = np.zeros(mesh.n_vertices, bool)
        used[mesh.tets] = True
        levels, seeded = vertex_levels(mesh, free & used)
        if lame is not None and not _elastic_fits(mesh, free, used, levels,
                                                  seeded):
            lame = None
        self.order = np.argsort(levels, kind="stable")[
            np.count_nonzero(levels < 0):]
        self.bounds = np.cumsum(np.r_[0, np.bincount(levels[self.order])])
        self.inverses, self.couplings = [], []
        for A, coupling in _level_couplings(mesh, levels, weights, lame):
            if seeded:
                A[np.diag_indices_from(A)] *= 1.0 + REGULARISATION
            if coupling is not None:
                rows, cols, values = coupling
                if lame is None:
                    A -= _coupled_schur(inverse, *coupling, len(A))   # S_k
                    rows, cols, values = (_flat(rows), _flat(cols),
                                          np.repeat(values, 3))
                else:
                    A -= _dense_schur(inverse, *coupling, len(A))
                self.couplings.append((rows, cols, values))
            inverse = spd_inverse(A)
            self.inverses.append(inverse.astype(np.float32))
            if lame is not None:   # the next update takes the stored copy
                inverse = self.inverses[-1]

    def __call__(self, v):
        y = np.asarray(v, float)[self.order]
        b, z = self.bounds, []
        for k, inverse in enumerate(self.inverses):
            yk = y[b[k]:b[k + 1]]
            if k:
                rows, cols, values = self.couplings[k - 1]
                yk -= _couple(cols, rows, values, z[-1], len(yk))
            z.append(inverse @ yk.reshape(len(inverse), -1).astype(
                np.float32))
        x = np.zeros(np.shape(v))
        xk = z[-1].astype(float)
        x[self.order[b[-2]:]] = xk.reshape(-1, 3)
        for k in range(len(z) - 2, -1, -1):
            rows, cols, values = self.couplings[k]
            coupled = _couple(rows, cols, values, xk, b[k + 1] - b[k])
            xk = z[k] - self.inverses[k] @ coupled.reshape(
                len(z[k]), -1).astype(np.float32)
            x[self.order[b[k]:b[k + 1]]] = xk.reshape(-1, 3)
        return x
