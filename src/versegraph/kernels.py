"""Hot numeric kernels as numpy array code.

All kernels operate on CSR adjacency (``indptr``, ``indices``) over positional
vertex indices ``0..n-1``.  Betweenness and hop distances share one
level-synchronous BFS that advances a block of sources at once: per level it
gathers the frontier over the CSR ``indices`` and sums each vertex's slice
with ``np.add.reduceat``.  Consensus runs one round as two ``np.bincount``
scatters over the edge list.
"""

from __future__ import annotations

import numpy as np

# Benchmark run records carry this flag and only runs with equal records are
# compared, so it stays; the kernels have a single numpy backend.
USING_NUMBA = False

# sources per BFS block, capped so one (arcs x block) gather stays near 16 MB
# on graphs with more than 32k arcs
_BLOCK = 64
_GATHER_CELLS = 1 << 21


def _puller(indptr: np.ndarray, indices: np.ndarray):
    """``pull(x)[v] = x[indices[indptr[v]:indptr[v + 1]]].sum(axis=0)`` for
    a (n, b) array ``x``; vertices without arcs get 0."""
    if len(indices) == 0:
        return np.zeros_like
    # reduceat sums up to the next start, so it gets the non-empty rows only
    rows = np.flatnonzero(indptr[:-1] < indptr[1:])
    starts = indptr[rows]

    def pull(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        out[rows] = np.add.reduceat(x[indices], starts, axis=0)
        return out

    return pull


def _blocks(n: int, arcs: int):
    size = max(1, min(_BLOCK, _GATHER_CELLS // max(arcs, 1)))
    for lo in range(0, n, size):
        yield np.arange(lo, min(lo + size, n))


def _bfs(pull, sources: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS from every source in ``sources`` at once.

    Column j of the two (n, len(sources)) results belongs to ``sources[j]``:
    ``dist`` is the level at which ``pull`` first reaches a vertex (-1 if
    never) and ``sigma`` the number of shortest paths that reach it.
    """
    cols = np.arange(len(sources))
    dist = np.full((n, len(sources)), -1, dtype=np.int64)
    sigma = np.zeros((n, len(sources)))
    dist[sources, cols] = 0
    sigma[sources, cols] = 1.0
    frontier = sigma.copy()
    level = 0
    while True:
        reach = pull(frontier)
        new = (reach > 0) & (dist < 0)
        if not new.any():
            return dist, sigma
        level += 1
        dist[new] = level
        sigma[new] = reach[new]
        frontier = np.where(new, reach, 0.0)


def _as_csr(indptr, indices):
    return (np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64))


def betweenness_raw(
    indptr: np.ndarray,
    indices: np.ndarray,
    rindptr: np.ndarray,
    rindices: np.ndarray,
    n: int,
) -> np.ndarray:
    """Unnormalized betweenness (ordered-pair pair-dependency sums).

    Brandes accumulation over unweighted shortest paths.  ``indptr`` and
    ``indices`` hold out-neighbors, ``rindptr`` and ``rindices`` in-neighbors
    (the same arrays for undirected input).  The path counts pull over
    in-neighbors level by level; the dependencies pull back over
    out-neighbors from the deepest level up.
    """
    bc = np.zeros(n, dtype=np.float64)
    if n == 0:
        return bc
    fwd = _puller(*_as_csr(rindptr, rindices))
    back = _puller(*_as_csr(indptr, indices))
    for sources in _blocks(n, len(indices)):
        dist, sigma = _bfs(fwd, sources, n)
        inv_sigma = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0)
        delta = np.zeros_like(sigma)
        # level d passes its dependencies to level d - 1; sources (level 0)
        # collect none
        for d in range(int(dist.max()), 1, -1):
            z = np.where(dist == d, (1.0 + delta) * inv_sigma, 0.0)
            delta += np.where(dist == d - 1, sigma * back(z), 0.0)
        bc += delta.sum(axis=1)
    return bc


def hop_distances(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """All-pairs unweighted hop distances; -1 where unreachable.

    ``out[s, t]`` is the hop count of the shortest path s -> t along the CSR
    arcs.  Pulling over out-neighbors measures distances *to* the block's
    sources, which fills the block's columns.
    """
    out = np.empty((n, n), dtype=np.int64)
    if n == 0:
        return out
    indptr, indices = _as_csr(indptr, indices)
    pull = _puller(indptr, indices)
    for targets in _blocks(n, len(indices)):
        out[:, targets] = _bfs(pull, targets, n)[0]
    return out


def consensus_run(
    edges_u: np.ndarray,
    edges_v: np.ndarray,
    weights: np.ndarray,
    x0: np.ndarray,
    tol: float,
    max_rounds: int,
    spreads: list | None = None,
) -> tuple[int, np.ndarray]:
    """Run synchronous averaging until the value spread is within ``tol``.

    One round moves ``w * (x[v] - x[u])`` from v to u along every edge.
    When ``spreads`` is a list, the max pairwise spread before the first
    round and after every round is appended to it (rounds + 1 values).
    """
    eu = np.asarray(edges_u, dtype=np.int64)
    ev = np.asarray(edges_v, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    n = x.shape[0]
    rounds = 0
    while True:
        spread = float(x.max() - x.min())
        if spreads is not None:
            spreads.append(spread)
        if rounds >= max_rounds or spread <= tol:
            return rounds, x
        d = w * (x[ev] - x[eu])
        x = x + np.bincount(eu, d, n) - np.bincount(ev, d, n)
        rounds += 1
