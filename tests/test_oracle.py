"""Grid shortest-path oracle: bounds, endpoint checks and the held graph."""
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from lglab import oracle
from lglab.curves import BRANCHES, level_curve
from lglab.oracle import _build_graph, grid_shortest_path
from lglab.paths import Polyline, segment, weighted_length
from lglab.weights import STACKABLE, Region, WeightField, make_weight

# worst-case metric stretch of the move stencils on a uniform grid
STENCIL_STRETCH = {8: 1.0824, 16: 1.0196}


def test_resolution_floor():
    with pytest.raises(ValueError):
        grid_shortest_path(make_weight("constant"), 16, 8, (-1, 0), (1, 0))


def test_unknown_stencil_rejected(monkeypatch, spied):
    w = make_weight("constant")
    grid_shortest_path(w, 64, 8, (-0.5, 0.0), (0.5, 0.0))
    held = oracle._held

    def no_snap(*args):
        raise AssertionError("snapped")

    monkeypatch.setattr(oracle, "_snap", no_snap)
    with pytest.raises(ValueError, match="stencil must be 8 or 16"):
        grid_shortest_path(make_weight("heavy_disk", 2.0), 64, 5, (-1, 0),
                           (1, 0))
    # rejected before it snaps, and the held graph neither dropped nor
    # re-priced
    assert oracle._held is held and held[0] == (w, 64, 8)
    assert spied[2] == [w]


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
    cost = grid_shortest_path(w, 128, 16, (-1.0, 0.0), (1.0, 0.0))[1]
    assert cost >= exact - 1e-9
    assert cost <= exact * 1.03


def test_path_endpoints_snap_to_requested_points():
    w = make_weight("constant")
    path, _ = grid_shortest_path(w, 64, 8, (-0.5, -0.5), (0.51, 0.52))
    arr = path.as_array()
    assert abs(arr[0, 0] + 0.5) <= 1.0 / 64 + 1e-12
    assert abs(arr[-1, 1] - 0.52) <= 1.0 / 64 + 1e-12


@pytest.mark.parametrize("name,alpha", STACKABLE)
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


# The oracle graph as it was first assembled: an edge list per forward
# stencil offset, handed to scipy as COO and converted to CSR.  _build_graph
# writes the CSR arrays of its symmetric closure g + g.T directly and must
# reproduce them exactly.
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


def _node_grid(cells, res):
    """The (n, n) grid of node ids, -1 off the disk, from the flat grid
    index of each node that _build_graph returns."""
    n = 2 * res + 1
    node_id = np.full(n * n, -1)
    node_id[cells] = np.arange(len(cells))
    return node_id.reshape(n, n)


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
    graph, cells = _build_graph(w, res, stencil)
    node_id = _node_grid(cells, res)
    ref, _, _ = _reference_graph(w, res, stencil)
    ref = (ref + ref.T).tocsr()
    assert np.array_equal(graph.indptr, ref.indptr)
    assert np.array_equal(graph.indices, ref.indices)
    assert np.array_equal(graph.data, ref.data)
    rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
    assert not np.any(graph.indices == rows)
    for a, b in (((-0.9, -0.3), (0.8, 0.45)), ((0.0, -1.0), (0.1, 0.95))):
        path, cost = grid_shortest_path(w, res, stencil, a, b)
        pts = path.as_array()
        ids = [node_id[round((p[0] + 1.0) * res), round((p[1] + 1.0) * res)]
               for p in pts[[0, -1]]]
        ref_pts, ref_cost = _reference_path(w, res, stencil, *ids)
        assert cost == ref_cost
        assert np.array_equal(pts, ref_pts)


def test_endpoints_on_one_node_rejected_before_dijkstra(monkeypatch,
                                                         spied):
    def no_search(*args, **kwargs):
        raise AssertionError("Dijkstra ran")

    monkeypatch.setattr(oracle, "dijkstra", no_search)
    with pytest.raises(ValueError, match="snap to one grid node"):
        grid_shortest_path(make_weight("constant"), 64, 8, (0, 0), (0, 0))
    with pytest.raises(ValueError, match="snap to one grid node"):
        grid_shortest_path(make_weight("constant"), 64, 8, (0, 0),
                           (0.004, -0.003))
    # and before building the graph
    assert spied[1] == [] and oracle._held is None


def _reference_nearest_node(node_id, mask, ax, p):
    """The snap as it was when it read the built graph's mask."""
    res = (node_id.shape[0] - 1) // 2
    i = int(round((p[0] + 1.0) * res))
    j = int(round((p[1] + 1.0) * res))
    if mask[i, j]:
        return node_id[i, j]
    for r in range(1, 6):
        ii, jj = np.nonzero(mask[max(0, i - r):i + r + 1,
                                 max(0, j - r):j + r + 1])
        if len(ii):
            ii = ii + max(0, i - r)
            jj = jj + max(0, j - r)
            d = (ax[ii] - p[0]) ** 2 + (ax[jj] - p[1]) ** 2
            k = int(np.argmin(d))
            return node_id[ii[k], jj[k]]
    raise ValueError(f"point {p} is not inside the domain mask")


@pytest.mark.parametrize("res", [32, 64])
def test_snap_picks_the_node_the_built_mask_picked(res):
    node_id = _node_grid(_build_graph(make_weight("constant"), res, 8)[1],
                         res)
    mask, h = node_id >= 0, 1.0 / res
    ax = np.linspace(-1.0, 1.0, 2 * res + 1)
    rng = np.random.default_rng(res)
    # the square, the rim band, and the ring out to where no disk node lies
    # within the five-step window
    phi = rng.uniform(0.0, 2.0 * math.pi, 4000)
    rho = np.concatenate([rng.uniform(1.0 - 2.0 * h, 1.0 + 2.0 * h, 2000),
                          rng.uniform(1.0 + 4.0 * h, 1.0 + 9.0 * h, 2000)])
    pts = np.vstack([rng.uniform(-1.0, 1.0, (1000, 2)),
                     np.column_stack([rho * np.cos(phi), rho * np.sin(phi)])])
    reached = set()
    for p in pts[np.all(np.abs(pts) <= 1.0, axis=1)].tolist():
        try:
            ref = _reference_nearest_node(node_id, mask, ax, p)
        except ValueError:
            with pytest.raises(ValueError, match="not inside the domain"):
                oracle._snap(res, p)
            reached.add("outside")
            continue
        got = oracle._snap(res, p)
        assert node_id[got] == ref, p
        reached.add(max(abs(g - round((c + 1.0) * res))
                        for g, c in zip(got, p)))
    assert reached == {0, 1, 2, 3, 4, 5, "outside"}


def test_a_point_far_outside_the_disk_is_rejected_before_building(spied):
    with pytest.raises(ValueError, match="not inside the domain mask"):
        grid_shortest_path(make_weight("constant"), 64, 8, (0.9, 0.9),
                           (0.0, 0.0))
    assert spied[1] == [] and oracle._held is None


def _fresh_path(w, res, stencil, a, b):
    """A query on a graph built for it alone, run through scipy's Dijkstra."""
    graph, cells = _build_graph(w, res, stencil)
    node_id = _node_grid(cells, res)
    ia, ib = (node_id[round((p[0] + 1.0) * res), round((p[1] + 1.0) * res)]
              for p in (a, b))
    dist, pred = dijkstra(graph, directed=True, indices=ia,
                          return_predecessors=True)
    chain = [int(ib)]
    while chain[-1] != ia:
        chain.append(int(pred[chain[-1]]))
    ax = np.linspace(-1.0, 1.0, 2 * res + 1)
    i, j = np.nonzero(node_id >= 0)
    return np.column_stack([ax[i], ax[j]])[chain[::-1]], float(dist[ib])


@pytest.fixture
def spied(monkeypatch):
    """Spies on the oracle, from a start with no graph held: a weak reference
    to each graph handed to Dijkstra; for each topology build, which of
    those graphs were alive as it began; and the weight of each cost fill."""
    oracle._held = None
    graphs, builds, fills = [], [], []
    search, topology, fill = oracle.dijkstra, oracle._topology, oracle._fill

    def spy_search(graph, **kwargs):
        graphs.append(weakref.ref(graph))
        return search(graph, **kwargs)

    def spy_topology(*args):
        builds.append([ref() is not None for ref in graphs])
        return topology(*args)

    def spy_fill(graph, w, *args):
        fills.append(w)
        return fill(graph, w, *args)

    monkeypatch.setattr(oracle, "dijkstra", spy_search)
    monkeypatch.setattr(oracle, "_topology", spy_topology)
    monkeypatch.setattr(oracle, "_fill", spy_fill)
    return graphs, builds, fills


def _fresh_data(w, res, stencil):
    return _build_graph(w, res, stencil)[0].data.tobytes()


@pytest.mark.parametrize("res", [32, 64])
@pytest.mark.parametrize("stencil", [8, 16])
def test_interleaved_queries_match_fresh_graphs(stencil, res, spied):
    wa = make_weight("heavy_disk", 2.0)
    wb = make_weight("three_heavy_diamonds", 2.0)
    a, b = (-0.875, -0.25), (0.75, 0.5)
    queries = (wa, wa, wb, wa)
    refs = [(*_fresh_path(w, res, stencil, a, b), _fresh_data(w, res, stencil))
            for w in queries]
    graphs, builds, fills = spied
    builds.clear()
    fills.clear()
    held = []
    for w, (ref_pts, ref_cost, ref_data) in zip(queries, refs):
        path, cost = grid_shortest_path(w, res, stencil, a, b)
        assert cost == ref_cost
        assert np.array_equal(path.as_array(), ref_pts)
        key, graph, cells = oracle._held
        assert key == (w, res, stencil)
        assert graph.data.tobytes() == ref_data
        assert not graph.data.flags.writeable
        held.append((graph, graph.data, graph.indices, graph.indptr, cells))
    # one topology build, from a start with no graph; the repeat reuses wa's
    # costs, and each weight change re-prices the same arrays in place
    assert builds == [[]]
    assert fills == [wa, wb, wa]
    assert all(x is y for h in held for x, y in zip(h, held[0]))
    assert [ref() is not None for ref in graphs] == [True] * 4


def test_a_query_on_the_held_graph_does_not_copy_it():
    w = make_weight("heavy_disk", 2.0)
    a, b = (-0.9, 0.1), (0.8, 0.3)
    grid_shortest_path(w, 256, 16, a, b)
    graph = oracle._held[1]
    tracemalloc.start()
    try:
        grid_shortest_path(w, 256, 16, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oracle._held[1] is graph
    # a copy of the graph's edges would take their nbytes or more
    assert peak < 0.5 * (graph.data.nbytes + graph.indices.nbytes)


def test_a_weight_change_reprices_the_held_edges_in_place():
    wa = make_weight("heavy_disk", 2.0)
    wb = make_weight("lite_dmd_heavy_core")
    a, b = (-0.9, 0.1), (0.8, 0.3)
    grid_shortest_path(wa, 256, 16, a, b)
    _, graph, cells = oracle._held
    data = graph.data
    tracemalloc.start()
    try:
        grid_shortest_path(wb, 256, 16, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oracle._held[0] == (wb, 256, 16)
    assert oracle._held[1] is graph and oracle._held[2] is cells
    assert graph.data is data and not data.flags.writeable
    assert data.tobytes() == _fresh_data(wb, 256, 16)
    # a second edge array, or a rebuilt topology, would take their nbytes
    # or more
    assert peak < 0.5 * (data.nbytes + graph.indices.nbytes)


class _FailingWeight(WeightField):
    """Values for x <= 0.5, an error past it: at res 64 a fill meets the
    error in its second block of nodes, after the first block's values."""

    def values(self, x, y):
        if np.max(x) > 0.5:
            raise RuntimeError("no weight here")
        return np.ones(np.shape(x))


def test_a_failed_refill_holds_no_weight(spied):
    wa = make_weight("heavy_disk", 2.0)
    a, b = (-0.875, -0.25), (0.75, 0.5)
    grid_shortest_path(wa, 64, 16, a, b)
    graph = oracle._held[1]
    with pytest.raises(RuntimeError, match="no weight here"):
        grid_shortest_path(_FailingWeight(), 64, 16, a, b)
    # still held, for its topology, but under no weight and read-only
    assert oracle._held[0] == (None, 64, 16) and oracle._held[1] is graph
    assert not graph.data.flags.writeable
    # so a query on the first weight re-prices it, with no new topology
    path, cost = grid_shortest_path(wa, 64, 16, a, b)
    assert oracle._held[1] is graph and spied[1] == [[]]
    ref_pts, ref_cost = _fresh_path(wa, 64, 16, a, b)
    assert cost == ref_cost
    assert np.array_equal(path.as_array(), ref_pts)
    assert graph.data.tobytes() == _fresh_data(wa, 64, 16)


def test_held_arrays_are_read_only(spied):
    w = make_weight("heavy_disk", 2.0)
    grid_shortest_path(w, 64, 16, (-0.5, 0.0), (0.5, 0.0))
    graph = spied[0][0]()
    key, held_graph, *arrays = oracle._held
    assert key == (w, 64, 16) and held_graph is graph
    for arr in (graph.data, graph.indices, graph.indptr, *arrays):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


@pytest.mark.parametrize("bad", [
    (math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0), (0.2, math.nan),
    (1.0 + 1e-9, 0.0), (0.0, -1.5)], ids=["inf_x", "minus_inf_y", "nan_x",
                                           "nan_y", "past_edge", "below"])
def test_bad_endpoints_rejected_before_building(spied, bad):
    w = make_weight("constant")
    for a, b in ((bad, (0.5, 0.0)), ((0.5, 0.0), bad)):
        with pytest.raises(ValueError, match=re.escape(f"endpoint {bad} ")):
            grid_shortest_path(w, 64, 8, a, b)
    assert spied[1] == [] and oracle._held is None
