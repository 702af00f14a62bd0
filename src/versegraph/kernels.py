"""Hot numeric kernels as numpy array code.

All kernels operate on CSR adjacency (``indptr``, ``indices``) over positional
vertex indices ``0..n-1``.  Betweenness and hop distances share one
level-synchronous BFS that advances a block of up to 64 sources at once.  Per
level it pulls only the rows that can change: vertices with an arc from the
frontier in a column where they are still unreached.  One uint64 of column
bits per vertex finds them with a ``np.bitwise_or.reduceat`` over the arcs.
Each such row sums all of its arcs, in CSR order, with ``np.add.reduceat``;
the backward dependency pass likewise pulls only the vertices at level
d - 1 in some column that have an arc to a vertex at level d in that
column.  Rows are restricted, never arcs: ``reduceat`` sums each slice
pairwise, so leaving out even zero terms would regroup the sum and move its
last bits.  Consensus runs one round as two ``np.bincount`` scatters over
the edge list.
"""

from __future__ import annotations

import numpy as np

# Benchmark run records carry this flag and only runs with equal records are
# compared, so it stays; the kernels have a single numpy backend.
USING_NUMBA = False

# sources per BFS block, at most 64 so a vertex's columns fit one uint64, and
# capped so one (arcs x block) gather stays under 16 MB on graphs with more
# than 32k arcs; the block width is part of the output bits (betweenness adds
# one delta.sum(axis=1) per block)
_BLOCK = 64
_GATHER_CELLS = 1 << 21


def _column_bits(mask: np.ndarray) -> np.ndarray:
    """Row ``i`` of a (k, b <= 64) boolean mask as one uint64, bit j for
    column j."""
    packed = np.zeros((len(mask), 8), dtype=np.uint8)
    packed[:, :(mask.shape[1] + 7) // 8] = np.packbits(mask, axis=1, bitorder="little")
    return packed.view("<u8")[:, 0]


def _puller(indptr: np.ndarray, indices: np.ndarray):
    """Row-restricted pull over a CSR.

    ``hot`` and ``keep`` hold one uint64 of column bits per vertex.
    ``pull(x, hot, keep)`` returns ``(rows, sums)``: ``rows`` are, ascending,
    the vertices v with an arc to some u where ``hot[u] & keep[v]`` is not
    0, and ``sums[i]`` is ``x[indices[indptr[v]:indptr[v + 1]]].sum(axis=0)``
    for ``v = rows[i]``, bit for bit what a pull over every row gives.  When
    ``x[u, j]`` is 0 unless bit j of ``hot[u]`` is set, the rows left out
    would sum only zeros in every column that ``keep`` selects.
    """
    n = len(indptr) - 1
    owner = np.repeat(np.arange(n), np.diff(indptr))
    rows_with_arcs = np.flatnonzero(indptr[:-1] < indptr[1:])
    row_starts = indptr[rows_with_arcs]

    def pull(x: np.ndarray, hot: np.ndarray, keep: np.ndarray):
        reach = np.zeros(n, dtype=np.uint64)
        reach[rows_with_arcs] = np.bitwise_or.reduceat(hot[indices], row_starts)
        picked = (reach & keep) != 0
        rows = np.flatnonzero(picked)
        # each picked row keeps all its arcs in CSR order: reduceat sums
        # pairwise, so dropping even zero terms would move the last bits
        counts = indptr[rows + 1] - indptr[rows]
        starts = np.cumsum(counts) - counts
        arcs = np.flatnonzero(picked[owner])
        return rows, np.add.reduceat(x[indices[arcs]], starts, axis=0)

    return pull


def _blocks(n: int, arcs: int):
    size = max(1, min(_BLOCK, _GATHER_CELLS // max(arcs, 1)))
    for lo in range(0, n, size):
        yield np.arange(lo, min(lo + size, n))


def _bfs(pull, sources: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """BFS from every source in ``sources`` at once.

    Column j of the two (n, len(sources)) results belongs to ``sources[j]``:
    ``dist`` is the level at which ``pull`` first reaches a vertex (-1 if
    never) and ``sigma`` the number of shortest paths that reach it.
    ``levels[d]`` is ``(rows, bits)``: the vertices at level d in some
    column, ascending, and for each the column bits where it is.  A level
    pulls only the rows with an arc from the previous level in a column
    where they are still unreached; no other cell can change.
    """
    b = len(sources)
    cols = np.arange(b)
    dist = np.full((n, b), -1, dtype=np.int64)
    sigma = np.zeros((n, b))
    dist[sources, cols] = 0
    sigma[sources, cols] = 1.0
    frontier = sigma.copy()
    unreached = _column_bits(dist < 0)
    hot = np.zeros(n, dtype=np.uint64)
    hot[sources] = _column_bits(frontier[sources] > 0)
    levels = [(sources, hot[sources])]
    while True:
        rows, reach = pull(frontier, hot, unreached)
        if len(rows) == 0:
            return dist, sigma, levels
        frontier[levels[-1][0]] = 0.0
        hot[levels[-1][0]] = 0
        seen = dist[rows]
        new = (reach > 0) & (seen < 0)
        bits = _column_bits(new)
        dist[rows] = np.where(new, len(levels), seen)
        reach = np.where(new, reach, 0.0)
        frontier[rows] = reach
        # sigma is 0 where a vertex is new and gains 0 elsewhere
        sigma[rows] += reach
        unreached[rows] &= ~bits
        hot[rows] = bits
        levels.append((rows, bits))


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
    out-neighbors from the deepest level up, level d's rows into level
    d - 1's.
    """
    bc = np.zeros(n, dtype=np.float64)
    if n == 0:
        return bc
    fwd = _puller(*_as_csr(rindptr, rindices))
    back = _puller(*_as_csr(indptr, indices))
    hot = np.zeros(n, dtype=np.uint64)
    below = np.zeros(n, dtype=np.uint64)
    for sources in _blocks(n, len(indices)):
        dist, sigma, levels = _bfs(fwd, sources, n)
        delta = np.zeros_like(sigma)
        z = np.zeros_like(sigma)
        # level d passes its dependencies to level d - 1; sources (level 0)
        # collect none
        for d in range(len(levels) - 1, 1, -1):
            (top, top_bits), (low, low_bits) = levels[d], levels[d - 1]
            at = dist[top] == d
            # 0 off level d, so z is 0 there as in a full (n x b) expression
            inv_sigma = np.divide(1.0, sigma[top], out=np.zeros(at.shape), where=at)
            z[top] = (1.0 + delta[top]) * inv_sigma
            hot[top] = top_bits
            below[low] = low_bits
            rows, pulled = back(z, hot, below)
            hot[top] = 0
            below[low] = 0
            delta[rows] += np.where(dist[rows] == d - 1, sigma[rows] * pulled, 0.0)
            z[top] = 0.0
        bc += delta.sum(axis=1)
    return bc


def hop_distances(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """All-pairs unweighted hop distances as int32; -1 where unreachable.

    ``out[s, t]`` is the hop count of the shortest path s -> t along the CSR
    arcs.  Pulling over out-neighbors measures distances *to* the block's
    sources, which fills the block's columns.
    """
    out = np.empty((n, n), dtype=np.int32)
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
