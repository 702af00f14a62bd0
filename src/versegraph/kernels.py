"""Hot numeric kernels as numpy array code.

All kernels operate on CSR adjacency (``indptr``, ``indices``) over positional
vertex indices ``0..n-1``.  Betweenness and hop distances run
level-synchronous BFSs that advance a block of up to 64 sources at once.  A
vertex's columns are one uint64 of bits, and a level's bits come from one
``np.bitwise_or.reduceat`` of the last level's bits over the arcs; hop
distances read nothing else, and write a block's levels into one (n, b)
int32 array through the unpacked level bits.  Betweenness also counts paths:
each level lists the vertices it reached with the bits of the columns where
it did; these level bits, not a distance matrix, say where a vertex sits.
Per level the path-count BFS pulls only the rows that can change: vertices
with an arc from the frontier in a column where they are still unreached.
It pulls the path counts themselves, since a vertex new at level d has no
in-neighbour reached before level d - 1 in that column.  The backward
dependency pass likewise pulls only the vertices at level d - 1 in some
column that have an arc to a vertex at level d in that column, from a
(len(level d) + 1, b) block whose row 0 of zeros stands for every vertex off
level d; so a block of sources keeps two (n, b) float arrays, the path
counts and the dependencies.  Columns are masked by products with the
unpacked bits, or, where a product is not finite (inf * 0 is NaN), by
``np.copyto``.  Rows are restricted, never arcs: a pulled row sums all of
its arcs, in CSR order, bit for bit as ``np.add.reduceat`` does.  For a row
of at most 8 arcs that is ``a0 + (((a1 + a2) + a3) ...)``, added one arc
position at a time over the rows long enough to have it; numpy sums longer
rows pairwise, so they go through ``np.add.reduceat`` itself.  Leaving out
even zero terms would regroup a sum and move its last bits.  Consensus runs
one round as two ``np.bincount`` scatters over the edge list.  Components
hook each root to the least label across its tree's arcs, then jump labels
to their roots (Shiloach & Vishkin 1982; FastSV, Zhang, Azad & Hu 2020):
rounds grow with log n, not with the diameter.  ``bfs`` is the traversal the
rest of the package runs (Kepner & Gilbert 2011): a level gathers the
frontier's arcs, drops the heads already seen or not allowed, and keeps the
first arc into each head left; those heads, ascending, are the next
frontier.
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
    ``pull(x, hot, keep, slot=None)`` returns ``(rows, hit, sums)``, row i
    for vertex ``v = rows[i]``: the vertices with an arc to some u where
    ``hot[u] & keep[v]`` is not 0, in no set order; the OR of those bits; and
    ``x[slot[indices[indptr[v]:indptr[v + 1]]]]`` summed as ``np.add.reduceat``
    sums it.  ``slot`` maps each position to its row of ``x`` (``x`` has a
    row per position when it is None).  In every column j that ``keep``
    selects, a row left out would sum x only at heads u where bit j of
    ``hot[u]`` is clear.
    """
    deg = np.diff(indptr)
    rows_with_arcs = np.flatnonzero(deg)
    pull_bits = _bits_puller(indptr, indices)
    # rows with arcs, most arcs first: the picked rows that have an arc at
    # position p are then a prefix
    by_deg = rows_with_arcs[np.argsort(-deg[rows_with_arcs], kind="stable")]

    def pull(x: np.ndarray, hot: np.ndarray, keep: np.ndarray, slot=None):
        reach = pull_bits(hot) & keep
        rows = by_deg[reach[by_deg] != 0]
        starts, counts = indptr[rows], deg[rows]

        def at(arcs):  # the rows of x at these arcs' heads
            heads = indices[arcs]
            return x[heads if slot is None else slot[heads]]

        # longer[p]: how many picked rows have more than p arcs, a prefix
        longer = np.searchsorted(-counts, -np.arange(_PLAIN + 1))
        sums = np.empty((len(rows), x.shape[1]))
        big = longer[_PLAIN]
        if big:
            ends = np.cumsum(counts[:big])
            firsts = ends - counts[:big]
            arcs = np.arange(ends[-1]) + np.repeat(starts[:big] - firsts, counts[:big])
            np.add.reduceat(at(arcs), firsts, axis=0, out=sums[:big])
        # the other rows, as a0 + (((a1 + a2) + a3) ...)
        tail = sums[big:longer[1]]
        tail[:] = at(starts[big:longer[1]] + 1)
        for p in range(2, _PLAIN):
            tail[:longer[p] - big] += at(starts[big:longer[p]] + p)
        tail += at(starts[big:longer[1]])
        sums[longer[1]:] = at(starts[longer[1]:])
        return rows, reach[rows], sums

    return pull


def _keep(x: np.ndarray, mask: np.ndarray) -> None:
    """Zero ``x`` where ``mask`` is False, bit for bit as ``np.copyto(x,
    0.0, where=~mask)``: a product with the bools, unless it is not finite
    somewhere, since inf * 0 is NaN where copyto writes 0.  Cells ``mask``
    keeps are multiplied by 1, which leaves every value as it was."""
    x *= mask
    if not np.isfinite(x).all():
        np.copyto(x, 0.0, where=~mask)


def _blocks(n: int, arcs: int):
    size = max(1, min(_BLOCK, _GATHER_CELLS // max(arcs, 1)))
    for lo in range(0, n, size):
        yield np.arange(lo, min(lo + size, n))


def _bfs(pull, sources: np.ndarray, n: int) -> tuple[np.ndarray, list]:
    """BFS from every source in ``sources`` at once.

    Column j of the (n, len(sources)) ``sigma`` counts the shortest paths
    from ``sources[j]``.  ``levels[d]`` is ``(rows, bits)``: the vertices at
    level d in some column and for each the column bits where it is.  A
    level pulls only the rows with an arc from the previous level in a
    column where they are still unreached; no other cell can change.  It
    pulls ``sigma`` itself: a vertex new at level d in column j has no
    in-neighbour reached before level d - 1 there, and the ones not reached
    yet hold 0, so each cell kept sums the same terms in the same order as
    a pull of level d - 1's counts alone.
    """
    b = len(sources)
    bits = np.uint64(1) << np.arange(b, dtype=np.uint64)
    sigma = np.zeros((n, b))
    sigma[sources, np.arange(b)] = 1.0
    unreached = np.full(n, (1 << b) - 1, dtype=np.uint64)
    unreached[sources] &= ~bits
    hot = np.zeros(n, dtype=np.uint64)
    hot[sources] = bits
    levels = [(sources, bits)]
    while True:
        rows, new, reach = pull(sigma, hot, unreached)
        if len(rows) == 0:
            return sigma, levels
        hot[levels[-1][0]] = 0
        # a sum of non-negative terms is > 0 iff a hot column fed it, so the
        # new columns are where reach > 0 and the vertex was unreached
        _keep(reach, _unpack(new, b))
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
    collect none.  Level d's ``z`` is a (len(top) + 1, b) block that the
    pull reads through ``slot``, each position's row there: row 0 is zeros
    for every vertex off level d, so a sum adds the same terms as over a
    full (n x b) ``z``.  A block keeps two (n x b) arrays, ``sigma`` and
    ``delta``, and frees them on return, before the next block allocates.
    """
    b = len(sources)
    sigma, levels = _bfs(fwd, sources, n)
    delta = np.zeros_like(sigma)
    hot = np.zeros(n, dtype=np.uint64)
    below = np.zeros(n, dtype=np.uint64)
    slot = np.zeros(n, dtype=np.intp)
    for d in range(len(levels) - 1, 1, -1):
        (top, top_bits), (low, low_bits) = levels[d], levels[d - 1]
        on = _unpack(top_bits, b)
        z = np.empty((len(top) + 1, b))
        z[0] = 0.0
        # 1 / sigma on level d, and 0 / (sigma + 1) = 0 off it, where sigma
        # may be 0; never NaN, since sigma holds no NaN
        np.divide(on, sigma[top] + ~on, out=z[1:])
        z[1:] *= 1.0 + delta[top]
        slot[top] = np.arange(1, len(top) + 1)
        hot[top] = top_bits
        below[low] = low_bits
        rows, _, pulled = back(z, hot, below, slot)
        pulled *= sigma[rows]
        _keep(pulled, _unpack(below[rows], b))
        delta[rows] += pulled
        del pulled, z  # freed before the next level's pull
        hot[top] = 0
        below[low] = 0
        slot[top] = 0
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
    path counts are summed.  A block's levels go into one (n, b) array,
    stored as the block's columns of ``out``.
    """
    out = np.empty((n, n), dtype=np.int32)
    if n == 0:
        return out
    pull = _bits_puller(*_as_csr(indptr, indices))
    for targets in _blocks(n, len(indices)):
        b = len(targets)
        block = np.full((n, b), -1, dtype=np.int32)
        block[targets, np.arange(b)] = 0
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
            # a new cell holds -1, and -1 + (d + 1) is d
            block[rows] += np.int32(d + 1) * _unpack(hot[rows], b)
            unreached &= ~hot
        out[:, targets] = block
    return out


def bfs(indptr: np.ndarray, heads: np.ndarray, sources, allowed=None, usable=None):
    """Yields ``(reached, slots)`` per level after ``sources`` that reaches a position: those,
    ascending, and the slot of the first arc into each, frontier ascending then row order.
    Positions where ``allowed`` is False are not entered, slots where ``usable`` is not taken."""
    seen = np.zeros(len(indptr) - 1, bool) if allowed is None else ~np.asarray(allowed, bool)
    frontier = np.sort(np.asarray(sources, dtype=np.int64))
    while len(frontier):
        seen[frontier] = True
        deg = indptr[frontier + 1] - indptr[frontier]
        slots = np.repeat(indptr[frontier] - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())
        slots = slots[~seen[heads[slots]] & (True if usable is None else usable[slots])]
        slots = slots[np.argsort(heads[slots], kind="stable")]  # each head's first arc first
        slots = slots[np.diff(heads[slots], prepend=-1) != 0]
        frontier = heads[slots]
        if len(frontier):
            yield frontier, slots


def components(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The least position in each position's component of a symmetric CSR.

    Labels form a forest whose parents are smaller than their children.  A
    round ends when every arc joins equal labels.
    """
    label = np.arange(len(indptr) - 1)
    tails = np.repeat(label, np.diff(indptr))
    while True:
        low, high = label[indices], label[tails]
        if np.array_equal(low, high):
            return label
        np.minimum.at(label, high, low)
        while not np.array_equal(label, up := label[label]):
            label = up


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
