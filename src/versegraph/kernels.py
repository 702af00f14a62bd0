"""Hot numeric kernels as numpy array code.

All kernels operate on CSR adjacency (``indptr``, ``indices``) over positional
vertex indices ``0..n-1``.  Betweenness and hop distances run
level-synchronous BFSs that advance a block of up to 64 sources at once.  A
vertex's columns are one uint64 of bits, and a level's bits come from one
``np.bitwise_or.reduceat`` of the last level's bits over the arcs; hop
distances read nothing else.  Betweenness also counts paths: each level lists
the vertices it reached with the bits of the columns where it did; these
level bits, not a distance matrix, say where a vertex sits.  Per level the
path-count BFS pulls only the rows that can change: vertices with an arc from
the frontier in a column where they are still unreached.  The backward
dependency pass likewise pulls only the vertices at level d - 1 in some
column that have an arc to a vertex at level d in that column.  Rows are
restricted, never arcs: a pulled row sums all of its arcs, in CSR order, bit
for bit as ``np.add.reduceat`` does.  For a row of at most 8 arcs that is
``a0 + (((a1 + a2) + a3) ...)``, added one arc position at a time over the
rows long enough to have it; numpy sums longer rows pairwise, so they go
through ``np.add.reduceat`` itself.  Leaving out even zero terms would regroup
a sum and move its last bits.  Consensus runs one round as two
``np.bincount`` scatters over the edge list.
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
# np.add.reduceat adds the terms after a row's first one in a plain loop while
# there are fewer than 8 of them, and pairwise with 8 accumulators from 8 up
_PLAIN = 8


def _unpack(bits: np.ndarray, b: int) -> np.ndarray:
    """(k, b) boolean mask: column j of row i is bit j of ``bits[i]``."""
    octets = bits.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=b, bitorder="little").view(bool)


def _bits_puller(indptr: np.ndarray, indices: np.ndarray):
    """``pull(hot)``: for each vertex, the OR of ``hot`` over its arcs' heads,
    one ``np.bitwise_or.reduceat`` over the arcs."""
    n = len(indptr) - 1
    rows_with_arcs = np.flatnonzero(np.diff(indptr))
    row_starts = indptr[rows_with_arcs]

    def pull(hot: np.ndarray) -> np.ndarray:
        reach = np.zeros(n, dtype=np.uint64)
        reach[rows_with_arcs] = np.bitwise_or.reduceat(hot[indices], row_starts)
        return reach

    return pull


def _puller(indptr: np.ndarray, indices: np.ndarray):
    """Row-restricted pull over a CSR.

    ``hot`` and ``keep`` hold one uint64 of column bits per vertex.
    ``pull(x, hot, keep)`` returns ``(rows, hit, sums)``, row i for vertex
    ``v = rows[i]``: the vertices with an arc to some u where ``hot[u] &
    keep[v]`` is not 0, in no set order; the OR of those bits; and
    ``x[indices[indptr[v]:indptr[v + 1]]]`` summed as ``np.add.reduceat``
    sums it.  When ``x[u, j]`` is 0 unless bit j of ``hot[u]`` is set, the
    rows left out would sum only zeros in every column that ``keep`` selects.
    """
    deg = np.diff(indptr)
    rows_with_arcs = np.flatnonzero(deg)
    pull_bits = _bits_puller(indptr, indices)
    # rows with arcs, most arcs first: the picked rows that have an arc at
    # position p are then a prefix
    by_deg = rows_with_arcs[np.argsort(-deg[rows_with_arcs], kind="stable")]

    def pull(x: np.ndarray, hot: np.ndarray, keep: np.ndarray):
        reach = pull_bits(hot) & keep
        rows = by_deg[reach[by_deg] != 0]
        starts, counts = indptr[rows], deg[rows]
        # longer[p]: how many picked rows have more than p arcs, a prefix
        longer = np.searchsorted(-counts, -np.arange(_PLAIN + 1))
        sums = np.empty((len(rows), x.shape[1]))
        big = longer[_PLAIN]
        if big:
            ends = np.cumsum(counts[:big])
            firsts = ends - counts[:big]
            arcs = np.arange(ends[-1]) + np.repeat(starts[:big] - firsts, counts[:big])
            np.add.reduceat(x[indices[arcs]], firsts, axis=0, out=sums[:big])
        # the other rows, as a0 + (((a1 + a2) + a3) ...)
        tail = sums[big:longer[1]]
        tail[:] = x[indices[starts[big:longer[1]] + 1]]
        for p in range(2, _PLAIN):
            tail[:longer[p] - big] += x[indices[starts[big:longer[p]] + p]]
        tail += x[indices[starts[big:longer[1]]]]
        sums[longer[1]:] = x[indices[starts[longer[1]:]]]
        return rows, reach[rows], sums

    return pull


def _blocks(n: int, arcs: int):
    size = max(1, min(_BLOCK, _GATHER_CELLS // max(arcs, 1)))
    for lo in range(0, n, size):
        yield np.arange(lo, min(lo + size, n))


def _bfs(pull, sources: np.ndarray, n: int) -> tuple[np.ndarray, list, np.ndarray]:
    """BFS from every source in ``sources`` at once.

    Column j of the (n, len(sources)) ``sigma`` counts the shortest paths
    from ``sources[j]``.  ``levels[d]`` is ``(rows, bits)``: the vertices at
    level d in some column and for each the column bits where it is.  A
    level pulls only the rows with an arc from the previous level in a
    column where they are still unreached; no other cell can change.  The
    frontier buffer comes back all zeros, for the caller to reuse.
    """
    b = len(sources)
    bits = np.uint64(1) << np.arange(b, dtype=np.uint64)
    sigma = np.zeros((n, b))
    sigma[sources, np.arange(b)] = 1.0
    frontier = sigma.copy()
    unreached = np.full(n, (1 << b) - 1, dtype=np.uint64)
    unreached[sources] &= ~bits
    hot = np.zeros(n, dtype=np.uint64)
    hot[sources] = bits
    levels = [(sources, bits)]
    while True:
        rows, new, reach = pull(frontier, hot, unreached)
        frontier[levels[-1][0]] = 0.0
        if len(rows) == 0:
            return sigma, levels, frontier
        hot[levels[-1][0]] = 0
        # a sum of non-negative terms is > 0 iff a hot column fed it, so the
        # new columns are where reach > 0 and the vertex was unreached
        np.copyto(reach, 0.0, where=~_unpack(new, b))
        frontier[rows] = reach
        # sigma is 0 where a vertex is new and gains 0 elsewhere
        sigma[rows] += reach
        unreached[rows] &= ~new
        hot[rows] = new
        levels.append((rows, new))


def _as_csr(indptr, indices):
    return (np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64))


def _dependencies(fwd, back, sources: np.ndarray, n: int) -> np.ndarray:
    """Brandes dependencies (n, len(sources)) of one block of sources.

    Level d passes its dependencies to level d - 1; the sources (level 0)
    collect none.  ``z`` reuses the forward pass's frontier buffer, and the
    block's arrays are freed on return, before the next block allocates.
    """
    b = len(sources)
    sigma, levels, z = _bfs(fwd, sources, n)
    delta = np.zeros_like(sigma)
    hot = np.zeros(n, dtype=np.uint64)
    below = np.zeros(n, dtype=np.uint64)
    for d in range(len(levels) - 1, 1, -1):
        (top, top_bits), (low, low_bits) = levels[d], levels[d - 1]
        # 0 off level d, so z is 0 there as in a full (n x b) expression
        zt = np.divide(1.0, sigma[top], out=np.zeros((len(top), b)), where=_unpack(top_bits, b))
        zt *= 1.0 + delta[top]
        z[top] = zt
        hot[top] = top_bits
        below[low] = low_bits
        rows, _, pulled = back(z, hot, below)
        pulled *= sigma[rows]
        np.copyto(pulled, 0.0, where=~_unpack(below[rows], b))
        delta[rows] += pulled
        del pulled  # freed before the next level's pull
        hot[top] = 0
        below[low] = 0
        z[top] = 0.0
    return delta


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
    for sources in _blocks(n, len(indices)):
        bc += _dependencies(fwd, back, sources, n).sum(axis=1)
    return bc


def hop_distances(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """All-pairs unweighted hop distances as int32; -1 where unreachable.

    ``out[s, t]`` is the hop count of the shortest path s -> t along the CSR
    arcs.  A BFS over out-neighbors measures distances *to* the block's
    sources, one column bit each: a level is one ``np.bitwise_or.reduceat``
    of the last level's bits over the arcs, kept where still unreached.  No
    path counts are summed.
    """
    out = np.empty((n, n), dtype=np.int32)
    if n == 0:
        return out
    pull = _bits_puller(*_as_csr(indptr, indices))
    for targets in _blocks(n, len(indices)):
        b = len(targets)
        out[:, targets] = -1
        out[targets, targets] = 0
        hot = np.zeros(n, dtype=np.uint64)
        hot[targets] = np.uint64(1) << np.arange(b, dtype=np.uint64)
        unreached = np.full(n, (1 << b) - 1, dtype=np.uint64)
        unreached[targets] &= ~hot[targets]
        d = 0
        while True:
            hot = pull(hot) & unreached
            rows = np.flatnonzero(hot)
            if len(rows) == 0:
                break
            d += 1
            at, cols = np.nonzero(_unpack(hot[rows], b))
            out[rows[at], targets[cols]] = d
            unreached &= ~hot
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
