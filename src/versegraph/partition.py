"""Spectral partitioning: graph Laplacian, Fiedler vector, recursive bisection.

Dense desk-scale linear algebra only.  The eigensolver contract is a residual
bound plus orthogonality to the all-ones vector and a deterministic sign
convention; numpy's symmetric eigendecomposition satisfies it and is checked
against the tolerance on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import weakly_connected_components
from .core import GraphView
from .errors import ConvergenceError, ValidationError

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class PartitionResult:
    assignment: dict[int, int]  # vertex id -> block id in 0..k-1
    cut_edges: int
    block_sizes: tuple[int, ...]


def laplacian(g: GraphView) -> np.ndarray:
    """L = D - A on collapsed undirected adjacency, rows in ascending vertex id."""
    if g.n < 1:
        raise ValidationError("empty graph")
    indptr, indices = g.csr("both")
    L = np.zeros((g.n, g.n))
    L[np.repeat(np.arange(g.n), np.diff(indptr)), indices] = -1.0
    L[np.diag_indices(g.n)] = np.diff(indptr)
    return L


def fiedler_vector(L: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Second-smallest eigenpair of a graph Laplacian.

    Returned vector is unit norm, orthogonal to the all-ones vector within
    ``tol``, with its first nonzero entry positive.
    """
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    n = L.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 vertices")
    vals, vecs = np.linalg.eigh(L)
    lam = float(vals[1])
    v = vecs[:, 1].copy()
    residual = float(np.linalg.norm(L @ v - lam * v))
    if residual > max(tol, 1e-10 * max(1.0, abs(vals[-1])) * n):
        raise ConvergenceError(f"eigen residual {residual} exceeds tolerance")
    # deterministic sign: first entry over the noise floor positive
    for x in v:
        if abs(x) > 1e-12:
            if x < 0:
                v = -v
            break
    return lam, v


def _cut_count(g: GraphView, assignment: dict[int, int]) -> int:
    """Distinct neighbor pairs, self-loops excluded, whose ends sit in different blocks."""
    indptr, indices = g.csr("both")
    rows = np.repeat(np.arange(g.n), np.diff(indptr))
    block = np.array([assignment[v] for v in g.vertices])
    upper = rows < indices
    return int(np.count_nonzero(block[rows[upper]] != block[indices[upper]]))


def spectral_bisection(g: GraphView, tol: float = DEFAULT_TOL) -> PartitionResult:
    """Split a connected view in two by Fiedler-vector sign."""
    if g.n < 2:
        raise ValidationError("need at least 2 vertices")
    if weakly_connected_components(g).count != 1:
        raise ValidationError("spectral bisection requires a connected graph")
    _, v = fiedler_vector(laplacian(g), tol)
    assignment = {}
    zeros = []
    for i, vid in enumerate(g.vertices):
        if v[i] > 1e-12:
            assignment[vid] = 0
        elif v[i] < -1e-12:
            assignment[vid] = 1
        else:
            zeros.append((i, vid))
    if zeros:
        med = float(np.median(v))
        for i, vid in zeros:
            assignment[vid] = 0 if v[i] > med else 1
    # both blocks must be nonempty; move the extreme entry if one collapsed
    sizes = [sum(1 for b in assignment.values() if b == blk) for blk in (0, 1)]
    if sizes[0] == 0 or sizes[1] == 0:
        empty = 0 if sizes[0] == 0 else 1
        idx = int(np.argmax(v)) if empty == 0 else int(np.argmin(v))
        assignment[g.vertices[idx]] = empty
    sizes = (
        sum(1 for b in assignment.values() if b == 0),
        sum(1 for b in assignment.values() if b == 1),
    )
    return PartitionResult(assignment, _cut_count(g, assignment), sizes)


def _induced(g: GraphView, keep: set[int]) -> GraphView:
    return GraphView(keep, [e for e in g.edges if e.src in keep and e.dst in keep])


def spectral_kway(g: GraphView, k: int, tol: float = DEFAULT_TOL) -> PartitionResult:
    """Recursive bisection to k blocks (k a power of 2), largest block first."""
    if k < 2 or k > g.n:
        raise ValidationError(f"k={k} out of range [2, {g.n}]")
    if k & (k - 1):
        raise ValidationError("k must be a power of 2")
    if weakly_connected_components(g).count != 1:
        raise ValidationError("spectral k-way requires a connected graph")
    blocks: list[set[int]] = [set(g.vertices)]
    while len(blocks) < k:
        # split the largest block; ties resolved by smallest member id
        blocks.sort(key=lambda b: (-len(b), min(b)))
        target = blocks.pop(0)
        sub = _induced(g, target)
        if sub.n == 1:
            blocks = [target] + blocks
            break
        comps = weakly_connected_components(sub)
        if comps.count != 1:
            # disconnected block: peel off one component instead of eigensplit
            first = min(comps.labels.values())
            a = {v for v, c in comps.labels.items() if c == first}
            blocks.extend([a, target - a])
            continue
        part = spectral_bisection(sub, tol)
        a = {v for v, b in part.assignment.items() if b == 0}
        blocks.extend([a, target - a])
    # deterministic block ids: ordered by smallest contained vertex id
    blocks.sort(key=min)
    assignment = {v: bi for bi, blk in enumerate(blocks) for v in blk}
    sizes = tuple(len(b) for b in blocks)
    return PartitionResult(assignment, _cut_count(g, assignment), sizes)
