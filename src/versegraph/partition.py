"""Spectral partitioning: graph Laplacian, Fiedler vector, recursive bisection.

Matrix-free throughout.  :func:`laplacian` returns the Laplacian as a
read-only operator over a view's collapsed undirected CSR, and
:func:`fiedler_vector` finds the second-smallest eigenpair with block LOBPCG
(Knyazev, SIAM J. Sci. Comput. 2001) using nothing but ``L @ X`` and
``L.diagonal()``, so memory grows with n times the block plus the arcs, never
with n².  The only dense eigenproblem solved is the Rayleigh–Ritz one, at most
``3 * BLOCK`` wide.  The contract is a residual bound plus orthogonality to
the all-ones vector and a deterministic sign convention, checked on every
call; a solve that does not get there within ``MAX_ITER`` iterations raises
:class:`ConvergenceError`.  The recursive bisection works on positional
arrays: a block's Laplacian is cut out of its parent's CSR with masks.
Connectivity checks and the peel of a disconnected block come from
:func:`kernels.components`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import GraphView
from .errors import ConvergenceError, ValidationError

DEFAULT_TOL = 1e-8
BLOCK = 4  # LOBPCG block size: Ritz vectors carried per iteration
MAX_ITER = 10_000  # iterations before a solve is refused
# the solve stops when the Fiedler residual is this fraction of ``tol``:
# entries of the vector are far from 0 next to their error, so the signs
# that split a block are those of the exact eigenvector
TIGHTEN = 1e-3
SEED = 0  # seed of the random start block


@dataclass(frozen=True)
class PartitionResult:
    assignment: dict[int, int]  # vertex id -> block id in 0..k-1
    cut_edges: int
    block_sizes: tuple[int, ...]


class Laplacian:
    """L = D - A of a collapsed undirected adjacency given as a CSR without
    self-loops (a view's ``csr("both")``), rows in ascending vertex id.
    Read-only and never formed: ``L @ x`` takes 1-D and 2-D operands."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr, self.indices = indptr, indices
        n = len(indptr) - 1
        self.shape = (n, n)
        self.arc_rows = np.repeat(np.arange(n), np.diff(indptr))  # the row of every arc
        self._degree = np.diff(indptr).astype(np.float64)
        self._degree.flags.writeable = False
        # np.add.reduceat gives an empty segment the value at its start, not
        # 0, so only rows with arcs are reduced
        self._rows = np.flatnonzero(indptr[:-1] < indptr[1:])
        self._starts = indptr[self._rows]

    def diagonal(self) -> np.ndarray:
        return self._degree

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = (self._degree if x.ndim == 1 else self._degree[:, None]) * x
        if len(self._rows):
            out[self._rows] -= np.add.reduceat(x[self.indices], self._starts, axis=0)
        return out


def laplacian(g: GraphView) -> Laplacian:
    """L = D - A on collapsed undirected adjacency, rows in ascending vertex id."""
    if g.n < 1:
        raise ValidationError("empty graph")
    return Laplacian(*g.csr("both"))


def fiedler_vector(L, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Second-smallest eigenpair of a graph Laplacian.

    ``L`` is anything with ``shape``, ``diagonal()`` and ``L @ X``: a
    :class:`Laplacian` or a dense array.  Block LOBPCG with the constant
    vector projected out, a Jacobi (1/degree) preconditioner and a fixed-seed
    start.  Returned vector is unit norm, orthogonal to the all-ones vector
    within ``tol``, with its first entry over 1e-12 in magnitude positive.
    """
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    n = L.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 vertices")
    d = np.asarray(L.diagonal(), dtype=np.float64)
    precond = 1.0 / np.where(d > 0, d, 1.0)[:, None]
    ones = np.full((n, 1), 1.0 / np.sqrt(n))
    m = min(BLOCK, n - 1)
    # the search basis S holds the Ritz block X, then the preconditioned
    # residuals W and the last step P.  Householder QR keeps it orthonormal
    # and, with the ones column first, orthogonal to that; a dependent column
    # comes back as some further orthonormal direction, which Rayleigh–Ritz
    # may use or ignore.  When n <= 3m the basis may fill the space: QR
    # returns at most n columns and Rayleigh–Ritz is then exact.
    start = np.random.default_rng(SEED).standard_normal((n, m))
    S = np.linalg.qr(np.hstack([ones, start]))[0][:, 1:]
    P = S[:, :0]
    # rounding alone leaves a residual of about eps * ||L||, and ||L|| is at
    # most twice the largest degree: no bound is set below a multiple of that
    floor = 64 * np.finfo(np.float64).eps * max(1.0, 2 * float(d.max()))
    target = max(tol * TIGHTEN, floor)
    for _ in range(MAX_ITER):
        AS = L @ S
        theta, C = np.linalg.eigh(S.T @ AS)
        theta, C = theta[:m], C[:, :m]
        if S.shape[1] > m:  # P: the part of the new Ritz vectors outside the old ones
            P = S[:, m:] @ C[m:]
        X = S @ C
        R = AS @ C - X * theta
        if np.linalg.norm(R[:, 0]) <= target:
            break
        S = np.linalg.qr(np.hstack([ones, X, precond * R, P]))[0][:, 1:]
    else:
        raise ConvergenceError(f"LOBPCG did not converge in {MAX_ITER} iterations")
    lam, v = float(theta[0]), X[:, 0] / np.linalg.norm(X[:, 0])
    residual = float(np.linalg.norm(L @ v - lam * v))
    if residual > max(tol, floor):
        raise ConvergenceError(f"eigen residual {residual} exceeds tolerance")
    # deterministic sign: first entry over the noise floor positive
    big = np.flatnonzero(np.abs(v) > 1e-12)
    if len(big) and v[big[0]] < 0:
        v = -v
    return lam, v


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
    return Laplacian(indptr, cols[inside])


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
    if g.n < 2:
        raise ValidationError("need at least 2 vertices")
    L = laplacian(g)
    if kernels.components(L.indptr, L.indices).any():
        raise ValidationError("spectral bisection requires a connected graph")
    return _result(g, L, _split(L, tol).astype(np.int64), 2)


def spectral_kway(g: GraphView, k: int, tol: float = DEFAULT_TOL) -> PartitionResult:
    """Recursive bisection to k blocks (k a power of 2), largest block first."""
    if k < 2 or k > g.n:
        raise ValidationError(f"k={k} out of range [2, {g.n}]")
    if k & (k - 1):
        raise ValidationError("k must be a power of 2")
    L = laplacian(g)
    if kernels.components(L.indptr, L.indices).any():
        raise ValidationError("spectral k-way requires a connected graph")
    # blocks hold ascending row positions, so a block's first entry is its
    # smallest vertex id
    blocks = [np.arange(g.n)]
    while len(blocks) < k:
        # split the largest block (it has two rows or more, as k <= n); ties
        # resolved by smallest member id
        blocks.sort(key=lambda b: (-len(b), b[0]))
        target = blocks.pop(0)
        sub = _induced(L, target)
        # disconnected block: peel off the first vertex's component instead of eigensplit
        apart = kernels.components(sub.indptr, sub.indices) > 0
        one = apart if apart.any() else _split(sub, tol)
        blocks += [target[~one], target[one]]
    # deterministic block ids: ordered by smallest contained vertex id
    blocks.sort(key=lambda b: b[0])
    block = np.empty(g.n, dtype=np.int64)
    for bi, rows in enumerate(blocks):
        block[rows] = bi
    return _result(g, L, block, k)
