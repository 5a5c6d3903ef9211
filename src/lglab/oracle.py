"""Brute-force weighted shortest paths on a grid graph over the unit disk.

This is the package's independent referee: it knows nothing about Snell,
shells, or analytic constructions.  Nodes are the points of a uniform grid
inside the closed unit disk, edges connect stencil neighbors, and an edge
costs its Euclidean length times the average endpoint weight (exact for
weights affine along the edge).  Dijkstra via scipy's sparse csgraph,
which is imported by the first query, not by ``import lglab``.

The module holds at most one built graph, keyed by (weight, resolution,
stencil); weights are immutable and the key compares them with ``==``.  A
query with the held key reuses it; a query with any other key first drops
the held graph and only then builds its own, so two graphs are never alive
at once.  Only what a query reads is held, read-only: the CSR matrix and
each node's flat index in the grid, which maps nodes to grid points.

Nodes and edges grow with the square of resolution: a 16-neighbor graph at
resolution 512 has 823k nodes and 13.1M directed edges (each edge is stored
in both directions), and takes 157 MiB held.  A query that builds it peaks
179 MiB above the imported package (258 MB RSS for the whole process); one
that reuses it adds 12.5 MiB, the distances, predecessors and Dijkstra's own
work arrays.  Each doubling of resolution quadruples that, so queries
should stay at or below 1024.  Node and edge indices are int32: at 2048
there are about 16 * pi * 2048**2 = 2.1e8 edges, below 2**31.
"""
from __future__ import annotations

import math

import numpy as np

from .paths import Polyline
from .weights import WeightField

# nodes whose edges _build_graph fills per step
_BLOCK = 1 << 13

# forward offsets; _build_graph adds their negations
_STENCILS = {
    8: ((0, 1), (1, -1), (1, 0), (1, 1)),
    16: ((0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (2, -1), (2, 1)),
}


def _build_graph(w: WeightField, res: int, stencil: int):
    """Sparse symmetric cost matrix + each node's grid index i*(2*res+1) + j.

    Each node stores its edges to every stencil neighbor, so Dijkstra runs
    directed and never copies the graph.  Node ids run in C order over the
    masked grid and the offsets in lexicographic order, so each node's edges
    come out sorted by target, and the CSR arrays are filled node-major, a
    block of nodes at a time.  An edge and its reverse both cost
    (W_neighbor + W_self) * |o| * h / 2, equal bit for bit.
    """
    if stencil not in _STENCILS:
        raise ValueError("stencil must be 8 or 16")
    from scipy.sparse import csr_matrix

    n = 2 * res + 1
    h = 1.0 / res
    ax = np.linspace(-1.0, 1.0, n)
    mask = ax[:, None] * ax[:, None] + ax * ax <= 1.0 + 1e-12
    cells = np.flatnonzero(mask).astype(np.int32)
    Wn = w.values(*ax.take(np.divmod(cells, n)))
    m = len(Wn)

    # padded by the stencil reach, so in the flattened padded grid each
    # neighbor of a node lies a fixed step away, and reads -1 off the disk
    nid = np.full((n + 4, n + 4), -1, dtype=np.int32)
    nid[2:-2, 2:-2][mask] = np.arange(m, dtype=np.int32)
    offsets = sorted({o for di, dj in _STENCILS[stencil]
                      for o in ((di, dj), (-di, -dj))})
    step = np.array([di * (n + 4) + dj for di, dj in offsets])
    scale = np.array([math.hypot(di, dj) * h * 0.5 for di, dj in offsets])
    # degrees summed as bytes: at most 16, and fast to add
    inside = (nid >= 0).view(np.uint8)
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(sum(inside[2 + di:2 + di + n, 2 + dj:2 + dj + n]
                  for di, dj in offsets)[mask], out=indptr[1:])
    ids, at = nid.ravel(), np.flatnonzero(inside)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for k in range(0, m, _BLOCK):
        dst = ids.take(at[k:k + _BLOCK, None] + step)
        # a -1 target clips to node 0; its slot is dropped below
        cost = Wn.take(dst, mode="clip")
        cost += Wn[k:k + _BLOCK, None]
        cost *= scale
        ok = dst >= 0
        slots = slice(indptr[k], indptr[min(k + _BLOCK, m)])
        indices[slots] = dst[ok]
        data[slots] = cost[ok]
    graph = csr_matrix((data, indices, indptr), shape=(m, m))
    return graph, cells


def dijkstra(graph, **kwargs):
    """scipy's csgraph Dijkstra, imported on the first query so that
    ``import lglab`` and the commands that never query stay scipy-free."""
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    return csgraph_dijkstra(graph, **kwargs)


# the one graph kept between queries: (key, graph, cells)
_held = None


def _graph(w: WeightField, res: int, stencil: int):
    """The held (graph, cells) for this key, else a new one."""
    global _held
    key = (w, res, stencil)
    if _held is None or _held[0] != key:
        _held = None  # drop the old graph before building the new one
        graph, cells = _build_graph(w, res, stencil)
        for arr in (graph.data, graph.indices, graph.indptr, cells):
            arr.setflags(write=False)
        _held = (key, graph, cells)
    return _held[1:]


def _snap(res: int, p):
    """Grid indices of the node of _build_graph's disk mask nearest p, by
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

