"""Spectral partitioning: graph Laplacian, Fiedler vector, recursive bisection.

Matrix-free throughout.  One class, :class:`Laplacian`, a read-only operator
over a weighted CSR with one product ``L @ x`` = D x - A x, serves the view
(:func:`laplacian`), every k-way block and every multigrid level.
:func:`fiedler_vector` takes a :class:`Laplacian` and finds its
second-smallest eigenpair with LOBPCG (Knyazev, SIAM J. Sci. Comput. 2001)
preconditioned by an aggregation multigrid V-cycle that each call builds,
so memory grows with n plus the arcs, never with n².  The only dense
matrices are the 3 × 3 Rayleigh–Ritz problem and the pseudo-inverse of the
multigrid's coarsest level, at most ``MAX_COARSE`` wide.  The contract is a
residual bound plus orthogonality to the all-ones vector and a deterministic
sign convention, checked on every call; a solve that does not get there
within ``MAX_ITER`` iterations raises :class:`ConvergenceError`.  The
recursive bisection works on positional arrays: the first split runs on the
view's Laplacian, and each later block's is cut out of its parent block's
CSR with masks.  Connectivity checks and the peel of a disconnected block
come from :func:`kernels.components`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .core import GraphView, _int, _is_finite
from .errors import ConvergenceError, ValidationError

DEFAULT_TOL = 1e-8
MAX_ITER = 10_000  # iterations before a solve is refused
# the solve stops when the Fiedler residual is this fraction of ``tol``:
# entries of the vector are far from 0 next to their error, so the signs
# that split a block are those of the exact eigenvector
TIGHTEN = 1e-3
SEED = 0  # seed of the start vector
MAX_COARSE = 100  # rows of the multigrid's coarsest level, solved by a dense pseudo-inverse
OMEGA = 0.8  # damping of the multigrid's Jacobi sweeps


@dataclass(frozen=True)
class PartitionResult:
    assignment: dict[int, int]  # vertex id -> block id in 0..k-1
    cut_edges: int
    block_sizes: tuple[int, ...]


class Laplacian:
    """L = D - A of an undirected adjacency without self-loops, given as a CSR
    with rows ascending and each row's columns strictly ascending (a view's
    ``csr("both")``) and arc weights ``wts`` (None for unit weights).  Views,
    k-way blocks and multigrid levels all use it, and :func:`fiedler_vector`
    takes nothing else.  Read-only and never formed: ``L @ x`` = D x -
    ``adjacent(x)`` takes 1-D and 2-D operands."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, wts: Optional[np.ndarray] = None):
        self.indptr, self.indices, self.wts = indptr, indices, wts
        n = len(indptr) - 1
        self.shape = (n, n)
        self.arc_rows = np.repeat(np.arange(n), np.diff(indptr))  # the row of every arc
        self._degree = np.bincount(self.arc_rows, weights=wts, minlength=n).astype(np.float64)
        self._degree.flags.writeable = False

    def diagonal(self) -> np.ndarray:
        return self._degree

    def adjacent(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a 1-D ``x``."""
        arcs = x[self.indices] if self.wts is None else self.wts * x[self.indices]
        return np.bincount(self.arc_rows, weights=arcs, minlength=self.shape[0])

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            return np.stack([self @ column for column in x.T], axis=1)
        return self._degree * x - self.adjacent(x)


class _Level(NamedTuple):
    """A multigrid level: its Laplacian L = D - A, the Jacobi sweep's
    S = ``OMEGA / D`` (D read as 1 where a row has no arcs), ``keep`` = the
    diagonal 1 - S D of I - S L, and each row's aggregate among the ``m``
    rows of the next level."""
    L: Laplacian
    smooth: np.ndarray
    keep: np.ndarray
    agg: np.ndarray
    m: int


def _build_multigrid(L: Laplacian) -> tuple[list, np.ndarray]:
    """The aggregation-multigrid hierarchy of ``L``: its levels above the
    coarsest, and the coarsest one's dense pseudo-inverse, which has at most
    ``MAX_COARSE`` rows.

    Roots are a maximal independent set, picked in Luby rounds on the key
    (weighted degree, fixed hash of position); every other row with arcs
    joins its neighbouring root of highest key, and the rows with none share
    one aggregate.  So every level has fewer rows than the one before.  The
    next level is the Galerkin product P^T L P of the piecewise-constant
    prolongation P: the Laplacian of the edges between aggregates, weighted
    by their count."""
    levels = []
    while L.shape[0] > MAX_COARSE:
        n, rows, cols, degree = L.shape[0], L.arc_rows, L.indices, L.diagonal()
        # degree < 2**31, and the multiplicative hash maps positions below
        # 2**32 one to one: no two keys are equal
        spread = np.arange(n, dtype=np.uint64) * np.uint64(2654435761) & np.uint64(2**32 - 1)
        key = degree.astype(np.int64) << 32 | spread.astype(np.int64)
        firsts = np.flatnonzero(np.diff(rows, prepend=-1))

        def row_max(vals):  # the largest of ``vals`` over each row's arcs, -1 for none
            out = np.full(n, -1, dtype=vals.dtype)
            out[rows[firsts]] = np.maximum.reduceat(vals[cols], firsts)
            return out
        root, open_ = np.zeros(n, dtype=bool), degree > 0
        while open_.any():
            new = open_ & (key > row_max(np.where(open_, key, -1)))
            root |= new
            open_ &= ~new & (row_max(new.view(np.int8)) < 1)
        nroots = int(np.count_nonzero(root))
        agg = np.full(n, nroots)  # rows with no arcs: the aggregate after the roots'
        agg[root] = np.arange(nroots)
        root_key = np.where(root, key, -1)
        join = (root_key[cols] == row_max(root_key)[rows]) & ~root[rows]
        agg[rows[join]] = agg[cols[join]]
        m = nroots + int(np.count_nonzero(degree == 0) > 0)
        smooth = OMEGA / np.where(degree > 0, degree, 1.0)
        levels.append(_Level(L, smooth, 1 - smooth * degree, agg, m))
        # the next level: the arcs between aggregates, parallel ones summed, rows ascending
        crows, ccols = agg[rows], agg[cols]
        cross = crows != ccols
        pair, index = np.unique(crows[cross] * m + ccols[cross], return_inverse=True)
        wts = np.bincount(index, weights=None if L.wts is None else L.wts[cross])
        L = Laplacian(np.searchsorted(pair // m, np.arange(m + 1)), pair % m, wts)
    dense = np.diag(L.diagonal())  # L written out: its arcs are distinct
    dense[L.arc_rows, L.indices] = -1.0 if L.wts is None else -L.wts
    # rounding leaves a zero eigenvalue near eps times the largest one; with
    # at most MAX_COARSE rows and weights of 1 or more, the nonzero ones are
    # far above 1e-10 times it
    return levels, np.linalg.pinv(dense, rcond=1e-10, hermitian=True)


def _vcycle(multigrid: tuple[list, np.ndarray], r: np.ndarray) -> np.ndarray:
    """One V-cycle on L e = r from e = 0: a damped Jacobi sweep, the
    correction from the next level, and another sweep; symmetric in ``r``.
    With S = ``smooth`` and L = D - A, the first sweep gives x = S r with
    residual r - L x = ``keep * r + A x``, and a sweep from x gives
    x + S (r - L x) = ``keep * x + S (r + A x)``."""
    levels, coarsest = multigrid
    down = []
    for level in levels:
        x = level.smooth * r
        down.append((r, x))
        r = np.bincount(level.agg, weights=level.keep * r + level.L.adjacent(x), minlength=level.m)
    e = coarsest @ r
    for level, (r, x) in zip(reversed(levels), reversed(down)):
        x = x + e[level.agg]
        e = level.keep * x + level.smooth * (r + level.L.adjacent(x))
    return e


def laplacian(g: GraphView) -> Laplacian:
    """L = D - A on collapsed undirected adjacency, rows in ascending vertex id."""
    if g.n < 1:
        raise ValidationError("empty graph")
    return Laplacian(*g.csr("both"))


def _check_tol(tol) -> None:
    if not (_is_finite(tol) and tol > 0):
        raise ValidationError(f"tol must be a finite number > 0, got {tol!r}")


def fiedler_vector(L: Laplacian, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Second-smallest eigenpair of the graph Laplacian ``L``.

    Single-vector LOBPCG with the constant vector projected out, one V-cycle
    of a multigrid built on ``L`` per call as the preconditioner (Notay, ETNA
    2010; Knyazev & Neymeyr, ETNA 2003) and a fixed-seed start.  Each
    iteration applies ``L`` once, to the new preconditioned residual; the
    products of the other basis vectors follow from their linear
    combinations.  The returned vector is unit norm with entries summing to
    zero and its first entry over 1e-12 in magnitude positive; the solve ends
    only when its residual on a fresh ``L @ v`` is within ``tol * TIGHTEN``
    (or the rounding floor).
    """
    _check_tol(tol)
    n = L.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 vertices")
    multigrid = _build_multigrid(L)
    # rounding alone leaves a residual of about eps * ||L||, and ||L|| is at
    # most twice the largest degree: no bound is set below a multiple of that
    floor = 64 * np.finfo(np.float64).eps * max(1.0, 2 * float(L.diagonal().max()))
    target = max(tol * TIGHTEN, floor)
    # Z[j] = (v_j, L v_j) for an orthonormal basis: v_0 = e, the unit
    # constant vector (L e = 0); v_1 = x, the Ritz vector; v_2 = p, the last
    # step; v_3 = w, the preconditioned residual
    Z = np.zeros((4, 2, n))
    (e, _), (x, Lx), (p, _), (w, Lw) = Z
    e[:] = 1 / math.sqrt(n)
    x[:] = np.random.default_rng(SEED).standard_normal(n)
    m = 2  # w is made orthogonal to Z[:m]: e and x, and p once there is a step
    refresh = True  # take Lx from a product, not from the recurrence
    for _ in range(MAX_ITER):
        if refresh:
            x -= (e @ x) * e
            x /= math.sqrt(x @ x)
            Lx[:] = L @ x
            theta = float(x @ Lx)
        r = Lx - theta * x
        if math.sqrt(r @ r) <= target:
            if refresh:
                break
            refresh = True  # the recurrence may have drifted: confirm
            continue
        refresh = False
        w[:] = _vcycle(multigrid, r)
        # Gram–Schmidt against the basis before it, a second time only where
        # the first cancelled most of the vector ("twice is enough")
        basis = Z[:m, 0]
        for _ in range(2):
            a = basis @ w
            w -= a @ basis
            size = w @ w
            if a @ a <= size:
                break
        w /= math.sqrt(size)
        Lw[:] = L @ w
        # Rayleigh–Ritz: the lowest eigenpair of the projection on x, p, w
        S = Z[1:] if m == 3 else Z[1::2]
        thetas, C = np.linalg.eigh(S[:, 0] @ S[:, 1].T)
        theta, c = float(thetas[0]), C[:, 0]
        step = (c[1:] @ S[1:].reshape(m - 1, -1)).reshape(2, n)
        Z[1] *= c[0]
        Z[1] += step
        # p: the step, less its part along the new x
        Z[2] = step - (x @ step[0]) * Z[1]
        size = math.sqrt(p @ p)
        m = 3 if size > 0 else 2
        Z[2] /= size or 1
    else:
        raise ConvergenceError(f"LOBPCG did not converge in {MAX_ITER} iterations")
    # deterministic sign: first entry over the noise floor positive
    big = np.flatnonzero(np.abs(x) > 1e-12)
    return theta, -x if len(big) and x[big[0]] < 0 else x.copy()


def _cut_count(L: Laplacian, block: np.ndarray) -> int:
    """Distinct neighbor pairs, self-loops excluded, whose ends sit in different
    blocks; ``block`` holds each row's block."""
    upper = L.arc_rows < L.indices
    return int(np.count_nonzero(block[L.arc_rows[upper]] != block[L.indices[upper]]))


def _induced(L: Laplacian, keep: np.ndarray) -> Laplacian:
    """The Laplacian of the rows ``keep`` (ascending) and the arcs among them."""
    pos = np.full(L.shape[0], -1)
    pos[keep] = np.arange(len(keep))
    rows, cols = pos[L.arc_rows], pos[L.indices]
    inside = (rows >= 0) & (cols >= 0)
    # rows stay ascending and each row's columns too: keep is ascending
    indptr = np.searchsorted(rows[inside], np.arange(len(keep) + 1))
    return Laplacian(indptr, cols[inside], None if L.wts is None else L.wts[inside])


def _split(L: Laplacian, tol: float) -> np.ndarray:
    """Fiedler-vector sign split of a connected Laplacian: True for block 1."""
    _, v = fiedler_vector(L, tol)
    one = v <= 1e-12
    zero = np.abs(v) <= 1e-12
    if zero.any():
        one[zero] = v[zero] <= np.median(v)
    # both blocks must be nonempty; move the extreme entry if one collapsed
    if one.all():
        one[np.argmax(v)] = False
    elif not one.any():
        one[np.argmin(v)] = True
    return one


def _result(g: GraphView, L: Laplacian, block: np.ndarray, k: int) -> PartitionResult:
    sizes = np.bincount(block, minlength=k)
    return PartitionResult(dict(zip(g.vertices, block.tolist())), _cut_count(L, block),
                           tuple(sizes.tolist()))


def spectral_bisection(g: GraphView, tol: float = DEFAULT_TOL) -> PartitionResult:
    """Split a connected view in two by Fiedler-vector sign."""
    _check_tol(tol)
    if g.n < 2:
        raise ValidationError("need at least 2 vertices")
    L = laplacian(g)
    if kernels.components(L.indptr, L.indices).any():
        raise ValidationError("spectral bisection requires a connected graph")
    return _result(g, L, _split(L, tol).astype(np.int64), 2)


def spectral_kway(g: GraphView, k: int, tol: float = DEFAULT_TOL) -> PartitionResult:
    """Recursive bisection to k blocks (k a power of 2), largest block first."""
    k = _int(k, "k")
    _check_tol(tol)
    if k < 2 or k > g.n:
        raise ValidationError(f"k={k} out of range [2, {g.n}]")
    if k & (k - 1):
        raise ValidationError("k must be a power of 2")
    L = laplacian(g)
    if kernels.components(L.indptr, L.indices).any():
        raise ValidationError("spectral k-way requires a connected graph")
    # a block holds its ascending row positions, so its first entry is its
    # smallest vertex id, its parent's Laplacian and its rows there, from
    # which its own Laplacian is cut when it is split (None: the view's own)
    blocks = [(np.arange(g.n), L, None)]
    while len(blocks) < k:
        # split the largest block (it has two rows or more, as k <= n); ties
        # resolved by smallest member id
        blocks.sort(key=lambda b: (-len(b[0]), b[0][0]))
        target, parent, keep = blocks.pop(0)
        sub = parent if keep is None else _induced(parent, keep)
        # disconnected block: peel off the first vertex's component instead of eigensplit
        apart = kernels.components(sub.indptr, sub.indices) > 0
        one = apart if apart.any() else _split(sub, tol)
        blocks += [(target[side], sub, np.flatnonzero(side)) for side in (~one, one)]
    # deterministic block ids: ordered by smallest contained vertex id
    blocks.sort(key=lambda b: b[0][0])
    block = np.empty(g.n, dtype=np.int64)
    for bi, (rows, _, _) in enumerate(blocks):
        block[rows] = bi
    return _result(g, L, block, k)
