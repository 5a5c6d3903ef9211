"""Brute-force weighted shortest paths on a grid graph over the unit disk.

This is the package's independent referee: it knows nothing about Snell,
shells, or analytic constructions.  Nodes are the points of a uniform grid
inside the closed unit disk, edges connect stencil neighbors, and an edge
costs its Euclidean length times the average endpoint weight (exact for
weights affine along the edge).  Dijkstra via scipy's sparse csgraph.

Memory grows with the fourth power of resolution through the edge list; at
resolution 2048 the graph is around 2 GB, so refine_until treats that as the
hard ceiling and routine queries should stay at or below 1024.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .paths import Polyline
from .weights import WeightField

_STENCILS = {
    8: ((1, 0), (0, 1), (1, 1), (1, -1)),
    16: ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2)),
}


@dataclass(frozen=True)
class RefineResult:
    cost: float
    rel_change: float
    resolution: int
    converged: bool


def _build_graph(w: WeightField, res: int, stencil: int):
    """Sparse undirected cost matrix + node coordinates on the disk mask."""
    if stencil not in _STENCILS:
        raise ValueError("stencil must be 8 or 16")
    n = 2 * res + 1
    h = 1.0 / res
    ax = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    mask = X * X + Y * Y <= 1.0 + 1e-12
    Wv = w.values(X, Y)

    node_id = -np.ones((n, n), dtype=np.int64)
    node_id[mask] = np.arange(int(mask.sum()))
    rows, cols, data = [], [], []
    for di, dj in _STENCILS[stencil]:
        si = slice(max(0, -di), n - max(0, di))
        sj = slice(max(0, -dj), n - max(0, dj))
        ti = slice(max(0, di), n - max(0, -di))
        tj = slice(max(0, dj), n - max(0, -dj))
        ok = mask[si, sj] & mask[ti, tj]
        src = node_id[si, sj][ok]
        dst = node_id[ti, tj][ok]
        cost = (math.hypot(di, dj) * h
                * 0.5 * (Wv[si, sj][ok] + Wv[ti, tj][ok]))
        rows.append(src)
        cols.append(dst)
        data.append(cost)
    m = int(mask.sum())
    graph = coo_matrix((np.concatenate(data),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(m, m)).tocsr()
    return graph, node_id, X, Y, mask


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
    xs = X[mask][chain]
    ys = Y[mask][chain]
    return Polyline.from_points(np.column_stack([xs, ys])), cost


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
