"""Brute-force weighted shortest paths on a grid graph over the unit disk.

This is the package's independent referee: it knows nothing about Snell,
shells, or analytic constructions.  Nodes are the points of a uniform grid
inside the closed unit disk, edges connect stencil neighbors, and an edge
costs its Euclidean length times the average endpoint weight (exact for
weights affine along the edge).  Dijkstra via scipy's sparse csgraph,
which is imported by the first query, not by ``import lglab``.

Nodes and edges grow with the square of resolution: a 16-neighbor graph at
resolution 512 has 823k nodes and 6.57M edges, and one query there peaks at
about 210 MB above the imported package (273 MB for the whole process).
Each doubling of resolution quadruples that, so refine_until stops at 2048
(several GB) and routine queries should stay at or below 1024.  Node and
edge indices are int32: at 2048 there are about 8 * pi * 2048**2 = 1.05e8
edges, well below 2**31.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import Polyline
from .weights import WeightField

# forward offsets only, in lexicographic order (see _build_graph)
_STENCILS = {
    8: ((0, 1), (1, -1), (1, 0), (1, 1)),
    16: ((0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (2, -1), (2, 1)),
}


@dataclass(frozen=True)
class RefineResult:
    cost: float
    rel_change: float
    resolution: int
    converged: bool


def _build_graph(w: WeightField, res: int, stencil: int):
    """Sparse undirected cost matrix + node coordinates on the disk mask.

    Each node stores its forward edges only (Dijkstra runs undirected).
    Node ids run in C order over the masked grid and the stencil offsets in
    lexicographic order, so each node's edges are gathered in slot order and
    already sorted by target: the CSR arrays are written directly.
    """
    if stencil not in _STENCILS:
        raise ValueError("stencil must be 8 or 16")
    from scipy.sparse import csr_matrix

    n = 2 * res + 1
    h = 1.0 / res
    ax = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    mask = X * X + Y * Y <= 1.0 + 1e-12
    Wv = w.values(X, Y)
    m = int(mask.sum())

    # padded by the stencil reach, so every offset is a plain slice; each
    # slot is gathered into a contiguous row and read back node-major
    nid = np.full((n + 4, n + 4), -1, dtype=np.int32)
    nid[2:-2, 2:-2][mask] = np.arange(m, dtype=np.int32)
    Wp = np.pad(Wv, 2)
    offsets = _STENCILS[stencil]
    dst = np.empty((len(offsets), m), dtype=np.int32)
    cost = np.empty((len(offsets), m))
    for k, (di, dj) in enumerate(offsets):
        shifted = slice(2 + di, 2 + di + n), slice(2 + dj, 2 + dj + n)
        dst[k] = nid[shifted][mask]
        cost[k] = Wp[shifted][mask]
    cost += Wv[mask]
    cost *= np.array([[math.hypot(di, dj) * h * 0.5] for di, dj in offsets])
    ok = dst >= 0
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(ok.sum(axis=0), out=indptr[1:])
    graph = csr_matrix((cost.T[ok.T], dst.T[ok.T], indptr), shape=(m, m))
    return graph, nid[2:-2, 2:-2], X, Y, mask


def dijkstra(graph, **kwargs):
    """scipy's csgraph Dijkstra, imported on the first query so that
    ``import lglab`` and the commands that never query stay scipy-free."""
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    return csgraph_dijkstra(graph, **kwargs)


def _nearest_node(node_id, X, Y, mask, p):
    n = node_id.shape[0]
    res = (n - 1) // 2
    i = int(round((p[0] + 1.0) * res))
    j = int(round((p[1] + 1.0) * res))
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"point {p} outside the grid")
    if mask[i, j]:
        return node_id[i, j]
    # snap to the closest masked node in a small neighborhood
    best = None
    for r in range(1, 6):
        ii, jj = np.nonzero(mask[max(0, i - r):i + r + 1,
                                 max(0, j - r):j + r + 1])
        if len(ii):
            ii = ii + max(0, i - r)
            jj = jj + max(0, j - r)
            d = (X[ii, jj] - p[0]) ** 2 + (Y[ii, jj] - p[1]) ** 2
            k = int(np.argmin(d))
            best = node_id[ii[k], jj[k]]
            break
    if best is None:
        raise ValueError(f"point {p} is not inside the domain mask")
    return best


def grid_shortest_path(w: WeightField, res: int, stencil: int, a, b
                       ) -> tuple[Polyline, float]:
    """Minimum-cost grid path between the nodes nearest a and b."""
    if res < 32:
        raise ValueError("resolution below 32 is meaningless here")
    graph, node_id, X, Y, mask = _build_graph(w, res, stencil)
    ia = _nearest_node(node_id, X, Y, mask, a)
    ib = _nearest_node(node_id, X, Y, mask, b)
    dist, pred = dijkstra(graph, directed=False, indices=ia,
                          return_predecessors=True)
    cost = float(dist[ib])
    if not math.isfinite(cost):
        raise ValueError("endpoints are disconnected on the grid mask")
    chain = [int(ib)]
    while chain[-1] != ia:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    cells = np.flatnonzero(mask)[chain]
    return Polyline.from_points(np.column_stack(
        [X.ravel()[cells], Y.ravel()[cells]])), cost


def oracle_cost(w: WeightField, res: int, stencil: int, a, b) -> float:
    return grid_shortest_path(w, res, stencil, a, b)[1]


def refine_until(w: WeightField, a, b, rel_tol: float, start_res: int = 128,
                 max_res: int = 2048) -> RefineResult:
    """Double a 16-neighbor grid's resolution until costs settle to rel_tol."""
    if rel_tol < 0.002:
        raise ValueError("rel_tol below 0.002 exceeds what the grid delivers")
    res = start_res
    prev = oracle_cost(w, res, 16, a, b)
    while res * 2 <= max_res:
        res *= 2
        cur = oracle_cost(w, res, 16, a, b)
        rel = abs(cur - prev) / max(abs(cur), 1e-300)
        if rel < rel_tol:
            return RefineResult(cur, rel, res, True)
        prev = cur
    return RefineResult(prev, math.nan, res, False)
