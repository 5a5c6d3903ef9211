"""Brute-force weighted shortest paths on a grid graph over the unit disk.

This is the package's independent referee: it knows nothing about Snell,
shells, or analytic constructions.  Nodes are the points of a uniform grid
inside the closed unit disk, edges connect stencil neighbors, and an edge
costs its Euclidean length times the average endpoint weight (exact for
weights affine along the edge).  Dijkstra via scipy's sparse csgraph,
which is imported by the first query, not by ``import lglab``.

The module holds at most one graph, read-only, and only what a query
reads: the CSR matrix and each node's flat index in the grid, which maps
nodes to grid points.  Its key is (weight, resolution, stencil); weights
are immutable and the key compares them with ``==``.  Everything but the
edge costs depends on (resolution, stencil) alone and is built once for
it.  A query with the held key reuses the graph.  A query with a new
weight re-prices the held edges in place, and the graph is held under no
weight until every cost is the new weight's, so a fill that fails leaves
no graph under a weight whose costs it does not hold.  A query with a new
resolution or stencil drops the graph and only then builds its own, so at
most one edge-cost array is ever alive.

Nodes and edges grow with the square of resolution: a 16-neighbor graph at
resolution 512 has 823k nodes and 13.1M directed edges (each edge is stored
in both directions), and takes 157 MiB held.  A query that builds it peaks
173 MiB above the imported package and scipy (240 MB RSS for the whole
process).  A query with a new weight peaks 16 MiB, in the fill: the node
weights and degrees, the padded disk mask and one block's temporaries; it
takes about half the time of a build.  A query that reuses the graph adds
12.5 MiB, the distances, predecessors and Dijkstra's own work arrays.  Each
doubling of resolution quadruples that, so queries should stay at or below
1024.  Node and edge indices are int32: at 2048 there are about
16 * pi * 2048**2 = 2.1e8 edges, below 2**31.
"""
from __future__ import annotations

import math

import numpy as np

from .paths import Polyline
from .weights import WeightField

# nodes whose edges _topology and _fill write per step
_BLOCK = 1 << 13

# every offset of each stencil, a forward one and its negation, sorted
_STENCILS = {s: sorted({o for di, dj in fwd for o in ((di, dj), (-di, -dj))})
             for s, fwd in {
                 8: ((0, 1), (1, -1), (1, 0), (1, 1)),
                 16: ((0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2),
                      (2, -1), (2, 1))}.items()}


def _padded(res: int, stencil: int, cells):
    """Each node's flat index in the grid padded by the stencil reach, and
    the step from a node there to its neighbor at each stencil offset."""
    n = 2 * res + 1
    return (cells + 4 * (cells // n) + 2 * (n + 5),
            np.array([di * (n + 4) + dj for di, dj in _STENCILS[stencil]]))


def _topology(res: int, stencil: int):
    """The weight-free part of the graph: each node's grid index
    i*(2*res+1) + j, and the CSR row pointers and targets.

    Node ids run in C order over the grid points in the closed unit disk
    and the offsets in lexicographic order, so each node's edges come out
    sorted by target.  Each node stores its edges to every stencil
    neighbor, so the graph is symmetric and Dijkstra never copies it.
    """
    n = 2 * res + 1
    ax = np.linspace(-1.0, 1.0, n)
    mask = ax[:, None] * ax[:, None] + ax * ax <= 1.0 + 1e-12
    cells = np.flatnonzero(mask).astype(np.int32)
    m = len(cells)
    # degrees summed as bytes: at most 16, and fast to add
    inside = np.pad(mask, 2).view(np.uint8)
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(sum(inside[2 + di:2 + di + n, 2 + dj:2 + dj + n]
                  for di, dj in _STENCILS[stencil])[mask], out=indptr[1:])
    # in the padded grid a neighbor lies a fixed step away, and reads -1
    # off the disk
    at, step = _padded(res, stencil, cells)
    ids = np.full((n + 4) ** 2, -1, dtype=np.int32)
    ids[at] = np.arange(m, dtype=np.int32)
    indices = np.empty(indptr[-1], dtype=np.int32)
    for k in range(0, m, _BLOCK):
        dst = ids.take(at[k:k + _BLOCK, None] + step)
        indices[indptr[k]:indptr[min(k + _BLOCK, m)]] = dst[dst >= 0]
    return cells, indptr, indices


def _fill(graph, w: WeightField, res: int, stencil: int, cells):
    """Write each edge's cost (W_neighbor + W_self) * |o| * h / 2 into the
    graph's data, a block of nodes at a time; an edge and its reverse cost
    the same bit for bit."""
    n = 2 * res + 1
    h = 1.0 / res
    ax = np.linspace(-1.0, 1.0, n)
    m = len(cells)
    Wn = np.empty(m)
    for k in range(0, m, _BLOCK):
        rows = slice(k, k + _BLOCK)
        Wn[rows] = w.values(*ax.take(np.divmod(cells[rows], n)))
    scale = np.array([math.hypot(di, dj) * h * 0.5
                      for di, dj in _STENCILS[stencil]])
    # a node has a neighbor at every offset but near the rim, so only the
    # rim nodes look theirs up, in the padded grid
    deg = np.diff(graph.indptr)
    rim = np.flatnonzero(deg < len(scale))
    at, step = _padded(res, stencil, cells)
    inside = np.zeros((n + 4) ** 2, dtype=bool)
    inside[at] = True
    rim_ok = inside.take(at[rim, None] + step)
    cut = np.searchsorted(rim, range(0, m + _BLOCK, _BLOCK))
    for b, k in enumerate(range(0, m, _BLOCK)):
        rows = slice(k, k + _BLOCK)
        ok = np.ones((min(_BLOCK, m - k), len(scale)), dtype=bool)
        ok[rim[cut[b]:cut[b + 1]] - k] = rim_ok[cut[b]:cut[b + 1]]
        slots = slice(graph.indptr[k], graph.indptr[min(k + _BLOCK, m)])
        cost = graph.data[slots]
        # W_neighbor, then + W_self, then * |o| h / 2; clip, not raise, so
        # that take writes unbuffered, and every target is a node
        np.take(Wn, graph.indices[slots], mode="clip", out=cost)
        cost += np.repeat(Wn[rows], deg[rows])
        cost *= np.broadcast_to(scale, ok.shape)[ok]


def _build_graph(w: WeightField, res: int, stencil: int):
    """Sparse symmetric cost matrix + each node's grid index: _topology
    and one _fill."""
    from scipy.sparse import csr_matrix

    cells, indptr, indices = _topology(res, stencil)
    graph = csr_matrix((np.empty(len(indices)), indices, indptr),
                       shape=(len(cells),) * 2)
    _fill(graph, w, res, stencil, cells)
    return graph, cells


def dijkstra(graph, **kwargs):
    """scipy's csgraph Dijkstra, imported on the first query so that
    ``import lglab`` and the commands that never query stay scipy-free."""
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    return csgraph_dijkstra(graph, **kwargs)


# the one graph kept between queries: (key, graph, cells), where the key
# (w, res, stencil) names the weight whose costs the graph holds, or None
_held = None


def _graph(w: WeightField, res: int, stencil: int):
    """The held (graph, cells) for this key: reused, re-priced in place for
    a new weight, or dropped and built anew for a new res or stencil."""
    global _held
    key = (w, res, stencil)
    if _held is not None and _held[0][1:] != key[1:]:
        _held = None  # drop the old graph before building the new one
    if _held is None:
        graph, cells = _build_graph(w, res, stencil)
        for arr in (graph.data, graph.indices, graph.indptr, cells):
            arr.setflags(write=False)
        _held = (key, graph, cells)
    elif _held[0] != key:
        _, graph, cells = _held
        # held under no weight until its costs are all the new weight's
        _held = ((None, res, stencil), graph, cells)
        graph.data.setflags(write=True)
        try:
            _fill(graph, w, res, stencil, cells)
        finally:
            graph.data.setflags(write=False)
        _held = (key, graph, cells)
    return _held[1:]


def _snap(res: int, p):
    """Grid indices of the node of _topology's disk mask nearest p, by
    the same disk test but without the graph: the nearest mask node (the
    first in C order on ties) in the smallest square window around the node
    p rounds to that holds one, out to five steps."""
    ax = np.linspace(-1.0, 1.0, 2 * res + 1)
    i = int(round((p[0] + 1.0) * res))
    j = int(round((p[1] + 1.0) * res))
    for r in range(6):
        X, Y = np.meshgrid(ax[max(0, i - r):i + r + 1],
                           ax[max(0, j - r):j + r + 1], indexing="ij")
        d = np.where(X * X + Y * Y <= 1.0 + 1e-12,
                     (X - p[0]) ** 2 + (Y - p[1]) ** 2, np.inf)
        k = np.unravel_index(int(np.argmin(d)), d.shape)
        if math.isfinite(d[k]):
            return max(0, i - r) + int(k[0]), max(0, j - r) + int(k[1])
    raise ValueError(f"point {p} is not inside the domain mask")


def grid_shortest_path(w: WeightField, res: int, stencil: int, a, b
                       ) -> tuple[Polyline, float]:
    """Minimum-cost grid path between the nodes nearest a and b."""
    if res < 32:
        raise ValueError("resolution below 32 is meaningless here")
    if stencil not in _STENCILS:
        raise ValueError("stencil must be 8 or 16")
    for p in (a, b):
        # false for NaN too
        if not all(-1.0 <= c <= 1.0 for c in p):
            raise ValueError(f"endpoint {p} is not a point of the grid "
                             "square [-1, 1]^2")
    na, nb = _snap(res, a), _snap(res, b)
    if na == nb:
        raise ValueError(f"endpoints {a} and {b} snap to one grid node")
    graph, cells = _graph(w, res, stencil)
    n = 2 * res + 1
    ia, ib = (int(np.searchsorted(cells, i * n + j)) for i, j in (na, nb))
    dist, pred = dijkstra(graph, directed=True, indices=ia,
                          return_predecessors=True)
    cost = float(dist[ib])
    if not math.isfinite(cost):
        raise ValueError("endpoints are disconnected on the grid mask")
    chain = [int(ib)]
    while chain[-1] != ia:
        chain.append(int(pred[chain[-1]]))
    xy = np.linspace(-1.0, 1.0, n).take(np.divmod(cells[chain[::-1]], n)).T
    return Polyline.from_points(xy), cost

