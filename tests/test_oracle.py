"""Grid shortest-path oracle: bounds and refinement behaviour."""
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from lglab.curves import BRANCHES, level_curve
from lglab.oracle import (_build_graph, grid_shortest_path, oracle_cost,
                          refine_until)
from lglab.paths import Polyline, segment, weighted_length
from lglab.weights import Region, make_weight

# worst-case metric stretch of the move stencils on a uniform grid
STENCIL_STRETCH = {8: 1.0824, 16: 1.0196}


def test_resolution_floor():
    with pytest.raises(ValueError):
        grid_shortest_path(make_weight("constant"), 16, 8, (-1, 0), (1, 0))


def test_unknown_stencil_rejected():
    with pytest.raises(ValueError):
        grid_shortest_path(make_weight("constant"), 64, 5, (-1, 0), (1, 0))


@pytest.mark.parametrize("stencil", [8, 16])
def test_constant_chord_within_stencil_bound(stencil):
    w = make_weight("constant")
    # endpoints on grid nodes so snapping cannot shorten the route
    a, b = (-0.875, -0.25), (0.75, 0.5)
    exact = weighted_length(segment(a, b), w)
    _, cost = grid_shortest_path(w, 128, stencil, a, b)
    assert cost >= exact - 1e-9
    assert cost <= STENCIL_STRETCH[stencil] * exact * 1.01


def test_oracle_never_beats_the_true_geodesic():
    w = make_weight("heavy_diamond", 2.0)
    exact = math.sqrt(5.0)  # tip route between (-1, 0) and (1, 0)
    cost = oracle_cost(w, 128, 16, (-1.0, 0.0), (1.0, 0.0))
    assert cost >= exact - 1e-9
    assert cost <= exact * 1.03


def test_refinement_tightens_the_estimate():
    w = make_weight("heavy_diamond", 2.0)
    coarse = oracle_cost(w, 64, 16, (-1.0, 0.0), (1.0, 0.0))
    r = refine_until(w, (-1.0, 0.0), (1.0, 0.0), rel_tol=5e-3,
                     start_res=64, max_res=256)
    assert r.converged
    assert r.resolution > 64
    assert r.cost <= coarse + 1e-12
    assert r.cost == pytest.approx(math.sqrt(5.0), rel=0.02)


def test_path_endpoints_snap_to_requested_points():
    w = make_weight("constant")
    path, _ = grid_shortest_path(w, 64, 8, (-0.5, -0.5), (0.51, 0.52))
    arr = path.as_array()
    assert abs(arr[0, 0] + 0.5) <= 1.0 / 64 + 1e-12
    assert abs(arr[-1, 1] - 0.52) <= 1.0 / 64 + 1e-12


@pytest.mark.parametrize("name,alpha", [
    ("constant", None), ("heavy_diamond", 2.0), ("heavy_disk", 2.0),
    ("light_diamond", 0.5), ("light_diamond_tight", 0.5),
    ("lite_dmd_heavy_core", None), ("three_heavy_diamonds", 2.0)])
def test_grid_path_never_beats_the_level_curve(name, alpha):
    # any path between a level curve's endpoints is an upper bound on their
    # geodesic distance, so the grid path, re-scored exactly between the
    # exact endpoints, may not be shorter than the constructed curve
    w = make_weight(name, alpha)
    for t in np.random.default_rng(20).uniform(0.05, 1.95, size=3):
        for branch in BRANCHES:
            path = level_curve(w, float(t), branch).path
            a, b = path.as_array()[0], path.as_array()[-1]
            grid, _ = grid_shortest_path(w, 96, 8, a, b)
            rescored = Polyline.from_points(
                np.vstack([[a], grid.as_array()[1:-1], [b]]))
            curve = weighted_length(path, w)
            assert weighted_length(rescored, w) >= curve * (1.0 - 1e-12), (
                t, branch)


# The oracle graph as it was first assembled: an edge list per stencil
# offset, handed to scipy as COO and converted to CSR.  _build_graph writes
# the CSR arrays directly and must reproduce this one exactly.
_REFERENCE_STENCILS = {
    8: ((1, 0), (0, 1), (1, 1), (1, -1)),
    16: ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2)),
}


def _reference_graph(w, res, stencil):
    n = 2 * res + 1
    h = 1.0 / res
    ax = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    mask = X * X + Y * Y <= 1.0 + 1e-12
    Wv = w.values(X, Y)
    node_id = -np.ones((n, n), dtype=np.int64)
    node_id[mask] = np.arange(int(mask.sum()))
    rows, cols, data = [], [], []
    for di, dj in _REFERENCE_STENCILS[stencil]:
        si = slice(max(0, -di), n - max(0, di))
        sj = slice(max(0, -dj), n - max(0, dj))
        ti = slice(max(0, di), n - max(0, -di))
        tj = slice(max(0, dj), n - max(0, -dj))
        ok = mask[si, sj] & mask[ti, tj]
        rows.append(node_id[si, sj][ok])
        cols.append(node_id[ti, tj][ok])
        data.append(math.hypot(di, dj) * h
                    * 0.5 * (Wv[si, sj][ok] + Wv[ti, tj][ok]))
    m = int(mask.sum())
    graph = coo_matrix((np.concatenate(data),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(m, m)).tocsr()
    return graph, X[mask], Y[mask]


def _reference_path(w, res, stencil, ia, ib):
    graph, xs, ys = _reference_graph(w, res, stencil)
    dist, pred = dijkstra(graph, directed=False, indices=ia,
                          return_predecessors=True)
    chain = [int(ib)]
    while chain[-1] != ia:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    return np.column_stack([xs[chain], ys[chain]]), float(dist[ib])


def _frozen_weight(name):
    if name == "layered_horizontal":
        return make_weight(name, layers=((0.2, 1.0), (0.5, 2.0), (0.8, 1.5)))
    if name == "custom_piecewise":
        return make_weight(name, pieces=(
            ((Region("l2", radius=0.5),), 3.0, 0.0, 0.0, 0.0),
            ((Region("l2", radius=0.5, negate=True),), 1.0, 1.0, 0.0, 0.0),
        ), default=9.0)
    alpha = 2.0 if name in ("heavy_disk", "three_heavy_diamonds") else None
    return make_weight(name, alpha)


@pytest.mark.parametrize("res", [32, 64])
@pytest.mark.parametrize("stencil", [8, 16])
@pytest.mark.parametrize("name", [
    "constant", "heavy_disk", "lite_dmd_heavy_core", "three_heavy_diamonds",
    "layered_horizontal", "custom_piecewise"])
def test_graph_and_path_match_the_coo_reference(name, stencil, res):
    w = _frozen_weight(name)
    graph, node_id, _, _, _ = _build_graph(w, res, stencil)
    ref, _, _ = _reference_graph(w, res, stencil)
    assert np.array_equal(graph.indptr, ref.indptr)
    assert np.array_equal(graph.indices, ref.indices)
    assert np.array_equal(graph.data, ref.data)
    for a, b in (((-0.9, -0.3), (0.8, 0.45)), ((0.0, -1.0), (0.1, 0.95))):
        path, cost = grid_shortest_path(w, res, stencil, a, b)
        pts = path.as_array()
        ids = [node_id[round((p[0] + 1.0) * res), round((p[1] + 1.0) * res)]
               for p in pts[[0, -1]]]
        ref_pts, ref_cost = _reference_path(w, res, stencil, *ids)
        assert cost == ref_cost
        assert np.array_equal(pts, ref_pts)
