"""Experiment drivers over the weight catalog.

Each driver recomputes a published quantity or verifies a structural
inequality numerically and returns plain numbers or an ExperimentReport
whose pass flags can be recomputed from the stored values.
"""
from __future__ import annotations

import math
from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .curves import (_THREE_DIAMOND_VIAS, _refine, boundary_points,
                     level_curve)
from .oracle import grid_shortest_path
from .paths import Polyline, weighted_length
from .shooting import shoot_two_point
from .snell import snell_refract
from .stacker import SolutionStack, bv_energy, stack
from .weights import (SQRT2, STACKABLE, ConstantWeight, LayeredWeight,
                      MultiDiamondWeight, RadialWeight, WeightField, constant,
                      heavy_diamond, layered_horizontal, light_diamond_tight,
                      lite_dmd_heavy_core, make_weight, three_heavy_diamonds)


@dataclass(frozen=True)
class Quantity:
    """One measured number with its target and an absolute bar."""

    label: str
    value: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.value - self.expected) <= self.tolerance


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    quantities: tuple[Quantity, ...]

    @property
    def passed(self) -> bool:
        return all(q.passed for q in self.quantities)

    def lines(self):
        for q in self.quantities:
            flag = "PASS" if q.passed else "FAIL"
            yield (f"[{flag}] {self.name}: {q.label} = {q.value:.9g} "
                   f"(expected {q.expected:.9g} +/- {q.tolerance:.3g} abs)")


def _point_polyline_distance(p, pts: np.ndarray) -> float:
    a, b = pts[:-1], pts[1:]
    d = b - a
    l2 = (d * d).sum(axis=1)
    t = ((p - a) * d).sum(axis=1) / np.where(l2 > 0.0, l2, 1.0)
    proj = a + np.clip(t, 0.0, 1.0)[:, None] * d
    return float(np.sqrt(((proj - p) ** 2).sum(axis=1)).min())


def curvature_clearance(w: WeightField, z, r: float) -> float:
    """Distance from boundary point z to the geodesic chord of B(z, r).

    The two points of the circle of radius r about z that lie on the unit
    circle are joined by their weighted geodesic; the returned clearance is
    the sagitta-like gap between z and that path.  Positive clearance at a
    sampled scale is the discrete curvature certificate; for a constant
    weight it equals r^2/2 exactly.
    """
    zx, zy = float(z[0]), float(z[1])
    if not abs(math.hypot(zx, zy) - 1.0) <= 1e-9:
        raise ValueError("z must lie on the unit circle")
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    dphi = 2.0 * math.asin(0.5 * r)
    phi = math.atan2(zy, zx)
    p1 = (math.cos(phi - dphi), math.sin(phi - dphi))
    p2 = (math.cos(phi + dphi), math.sin(phi + dphi))
    path = None
    if abs(zx) < 1e-12 and isinstance(w, (RadialWeight, MultiDiamondWeight)):
        # at a pole the geodesic is a level curve, where one is constructed;
        # pick the branch nearer z
        t = 1.0 + zy * math.cos(dphi)
        branch = "minimal" if zy > 0 else "maximal"
        with suppress(NotImplementedError):
            path = level_curve(w, t, branch).path
    if path is None and isinstance(w, (ConstantWeight, RadialWeight,
                                       MultiDiamondWeight, LayeredWeight)):
        path, _ = shoot_two_point(w, p1, p2, tol=1e-7, n_shells=512,
                                  scan_angles=512)
    elif path is None:
        path, _ = grid_shortest_path(w, 256, 16, p1, p2)
    return _point_polyline_distance(np.array([zx, zy]), path.as_array())


def _cell_centers(res: int) -> np.ndarray:
    return -1.0 + 2.0 / res * (np.arange(res) + 0.5)


def _edge_costs(w: WeightField, res: int):
    """Per-edge 4-neighbour costs h*(W_p + W_q)/2, array rim replicated."""
    h = 2.0 / res
    X, Y = np.meshgrid(_cell_centers(res), _cell_centers(res))
    W = np.asarray(w.values(X, Y), dtype=float)
    Wx = np.pad(W, ((0, 0), (1, 1)), mode="edge")
    ch = h * 0.5 * (Wx[:, :-1] + Wx[:, 1:])
    Wy = np.pad(W, ((1, 1), (0, 0)), mode="edge")
    cv = h * 0.5 * (Wy[:-1, :] + Wy[1:, :])
    return ch, cv


def _mask_perimeter(mask: np.ndarray, ch: np.ndarray, cv: np.ndarray):
    """Weighted perimeter of a mask, or of each mask in a stack of them;
    ch and cv may be cut to the masks' bounding box and its border edges."""
    m = np.zeros(np.add(mask.shape, [0] * (mask.ndim - 2) + [2, 2]), bool)
    m[..., 1:-1, 1:-1] = mask
    bh = m[..., 1:-1, 1:] != m[..., 1:-1, :-1]
    bv = m[..., 1:, 1:-1] != m[..., :-1, 1:-1]
    return (np.sum(np.broadcast_to(ch, bh.shape), axis=(-2, -1), where=bh)
            + np.sum(np.broadcast_to(cv, bv.shape), axis=(-2, -1), where=bv))


def _span(flags: np.ndarray) -> slice:
    """Smallest slice that holds every True of a 1-D bool array."""
    i = flags.nonzero()[0]
    return slice(int(i[0]), int(i[-1]) + 1) if i.size else slice(0, 0)


def _balls(c: np.ndarray, rng) -> list:
    """One to four random l1/l2 balls as (rows, columns, inside) boxes,
    each tested where its one-axis terms pass: a non-negative addend never
    rounds below them.  Balls that cover no cell centre are left out."""
    balls = []
    for _ in range(int(rng.integers(1, 5))):
        cx, cy = rng.uniform(-0.7, 0.7, 2)
        rad = float(rng.uniform(0.1, 0.5))
        if rng.random() < 0.5:
            dx, dy, bar = np.abs(c - cx), np.abs(c - cy), rad
        else:
            dx, dy, bar = (c - cx) ** 2, (c - cy) ** 2, rad * rad
        sx, sy = _span(dx < bar), _span(dy < bar)
        if sx.stop > sx.start and sy.stop > sy.start:
            balls.append((sy, sx, dx[sx] + dy[sy, None] < bar))
    return balls


def _raster_box(a: list, b: list):
    """Union, intersection, A and B of two ball lists in one (4, h + 2,
    w + 2) box over grid rows sy and columns sx, with an empty border."""
    balls = a + b
    y0 = min((r.start for r, _, _ in balls), default=0)
    x0 = min((q.start for _, q, _ in balls), default=0)
    sy = slice(y0, max((r.stop for r, _, _ in balls), default=y0))
    sx = slice(x0, max((q.stop for _, q, _ in balls), default=x0))
    box = np.zeros((4, sy.stop - y0 + 2, sx.stop - x0 + 2), dtype=bool)
    inner = box[:, 1:-1, 1:-1]
    for mask, part in ((inner[2], a), (inner[3], b)):
        for r, q, inside in part:
            mask[r.start - y0:r.stop - y0, q.start - x0:q.stop - x0] |= inside
    np.logical_or(box[2], box[3], out=box[0])
    np.logical_and(box[2], box[3], out=box[1])
    return box, sy, sx


def _box_perimeters(box: np.ndarray, ch: np.ndarray, cv: np.ndarray):
    """Weighted perimeter of each mask of a padded box; ch and cv are cut
    to the box's inner cells and their border edges."""
    bh = box[:, 1:-1, 1:] != box[:, 1:-1, :-1]
    bv = box[:, 1:, 1:-1] != box[:, :-1, 1:-1]
    return [ch[h].sum() + cv[v].sum() for h, v in zip(bh, bv)]


def submodularity_check(res: int = 256, trials: int = 1000,
                        seed: int = 0) -> int:
    """Count of random set pairs satisfying the perimeter inequality.

    Each trial rasterizes two unions of random l1/l2 balls and checks
    P(union) + P(intersection) <= P(A) + P(B) + 1e-9 for the discrete
    weighted perimeter, cycling through the weight catalog.  All four sets
    are rasterized and priced in one box around the balls.
    """
    if res < 64:
        raise ValueError("res must be at least 64")
    if trials < 1:
        raise ValueError("trials must be positive")
    costs = [_edge_costs(make_weight(name, alpha), res)
             for name, alpha in STACKABLE]
    c = _cell_centers(res)
    rng = np.random.default_rng(seed)
    passed = 0
    for k in range(trials):
        ch, cv = costs[k % len(costs)]
        box, sy, sx = _raster_box(_balls(c, rng), _balls(c, rng))  # A, B
        p = _box_perimeters(box, ch[sy, sx.start:sx.stop + 1],
                            cv[sy.start:sy.stop + 1, sx])
        if p[0] + p[1] <= p[2] + p[3] + 1e-9:
            passed += 1
    return passed


_BLOCK = 1 << 14  # elements in each temporary of the rectangle sweep
_COLUMNS = 1 << 15  # elements in each column table of the rectangle sweep

# Rectangle-kernel tables over interval codes: code c < lo.size is [lo[c],
# hi[c]], code[c, d] that of [c, d] or the empty lo.size.  Rectangle (x, y)
# has x-line sides rs[x, y], y-line sides cs[x, y], perimeter pr[x, y];
# dh[line, y], dv[x, line] are single sides; line res + 1 and empty read 0.
_Tables = namedtuple("_Tables", "lo hi code rs cs pr dh dv")
# One axis of rectangle pairs A, B: codes a, b, shared s, the codes c1, c2
# whose lines bound the union across s, and the line where A and B abut.
_Pairs = namedtuple("_Pairs", "a b s c1 c2 line")


def _rect_tables(ch: np.ndarray, cv: np.ndarray) -> _Tables:
    res = ch.shape[0]
    lo, hi = np.triu_indices(res)
    empty = lo.size
    code = np.full((res, res), empty)
    code[lo, hi] = np.arange(empty)

    def sides(cost):
        # side over each interval of each grid line: a prefix-sum difference
        S = np.zeros((res + 1, res + 1))
        S[:, 1:] = np.cumsum(cost, axis=1)
        return np.pad(S[:, hi + 1] - S[:, lo], ((0, 1), (0, 1)))

    dh, dv = sides(ch.T), sides(cv)  # x-lines over rows, y-lines over columns
    rs = np.pad(dh[lo] + dh[hi + 1], ((0, 1), (0, 0)))
    cs = np.pad((dv[lo] + dv[hi + 1]).T, ((0, 0), (0, 1)))
    pr = np.pad((rs[:-1, :-1] + dv[lo, :-1].T) + dv[hi + 1, :-1].T, (0, 1))
    return _Tables(lo, hi, code, rs, cs, pr, dh, dv.T)


def _interval_pairs(T: _Tables, ca, cb) -> _Pairs:
    a1, a2, b1, b2 = T.lo[ca], T.hi[ca], T.lo[cb], T.hi[cb]
    s1, s2 = np.maximum(a1, b1), np.minimum(a2, b2)
    cont = s1 <= s2 + 1
    merged = T.code[np.minimum(a1, b1), np.maximum(a2, b2)]
    line = np.select([a2 + 1 == b1, b2 + 1 == a1], [b1, a1], len(T.dh) - 1)
    return _Pairs(ca, cb, T.code[s1, s2], np.where(cont, merged, ca),
                  np.where(cont, T.lo.size, cb), line)


def _rect_pair_terms(T: _Tables, xp: _Pairs, yp: _Pairs, get):
    """P(A), P(B), P(A u B), P(A n B) and w(edges joining A\\B and B\\A).

    ``get(table, x_codes, y_codes)`` reads the tables, outer or pairwise.
    The sums are grouped as written, which fixes each pair's rounding.
    """
    rs, cs, pr = T.rs, T.cs, T.pr
    ch_part = (get(rs, xp.a, yp.a) - get(rs, xp.a, yp.s)
               + get(rs, xp.b, yp.b) - get(rs, xp.b, yp.s)
               + (get(rs, xp.c1, yp.s) + get(rs, xp.c2, yp.s)))
    cv_part = (get(cs, xp.a, yp.a) - get(cs, xp.s, yp.a)
               + get(cs, xp.b, yp.b) - get(cs, xp.s, yp.b)
               + (get(cs, xp.s, yp.c1) + get(cs, xp.s, yp.c2)))
    cut = get(T.dh, xp.line, yp.s) + get(T.dv, xp.s, yp.line)
    return (get(pr, xp.a, yp.a), get(pr, xp.b, yp.b), ch_part + cv_part,
            get(pr, xp.s, yp.s), cut)


def _columns():
    """A table reader for _rect_pair_terms that gathers the columns of each
    (table, y codes) once, then reads one row gather per term; the y codes
    it is given must stay alive while it does."""
    cols = {}

    def get(table, x, y):
        key = id(table), id(y)
        if key not in cols:
            cols[key] = np.take(table, y, axis=1)
        return cols[key][x]
    return get


def _sweep(T: _Tables, *parts):
    """Least deficit, violations and worst cut residual over xp x yp parts,
    each yp cut along its first axis so that a column table holds about
    _COLUMNS elements."""
    worst, fails, resid = math.inf, 0, 0.0
    for xp, yp in parts:
        rows = max(1, _COLUMNS * len(yp.s) // (yp.s.size * len(T.rs)))
        for c in range(0, len(yp.s), rows):
            # a field of one row broadcasts over every chunk
            ys = _Pairs(*(v if len(v) == 1 else v[c:c + rows] for v in yp))
            get, step = _columns(), max(1, _BLOCK // ys.s.size)
            for r in range(0, xp.a.size, step):
                xs = _Pairs(*(v[r:r + step] for v in xp))
                pa, pb, p_union, p_inter, cut = _rect_pair_terms(T, xs, ys,
                                                                 get)
                deficit = pa + pb - p_union - p_inter
                low = float(deficit.min())
                worst = min(worst, low)
                if low < -1e-9:
                    fails += int(np.count_nonzero(deficit < -1e-9))
                cut *= 2.0
                np.subtract(deficit, cut, out=cut)
                resid = max(resid, float(np.abs(cut, out=cut).max()))
    return worst, fails, resid


def _rect_masks(T: _Tables, cx, cy, res: int) -> np.ndarray:
    idx = np.arange(res)
    inx = (T.lo[cx, None] <= idx) & (idx <= T.hi[cx, None])
    iny = (T.lo[cy, None] <= idx) & (idx <= T.hi[cy, None])
    return iny[:, :, None] & inx[:, None, :]


def rectangle_submodularity_exhaustive(res: int = 16,
                                       w: WeightField | None = None,
                                       spot_checks: int = 1000,
                                       seed: int = 0) -> ExperimentReport:
    """Perimeter submodularity over every pair of axis rectangles.

    All res(res+1)/2 squared index rectangles are compared pairwise through
    closed-form perimeters of union and intersection, whose deficit must
    equal twice the weight of the edges joining A\\B and B\\A (the cut
    identity); a random sample of pairs is re-verified by rasterization.
    """
    if res < 2:
        raise ValueError("res must be at least 2")
    if spot_checks < 0:
        raise ValueError("spot_checks must be non-negative")
    ch, cv = _edge_costs(heavy_diamond(2.0) if w is None else w, res)
    T = _rect_tables(ch, cv)
    k_iv = T.lo.size

    # every pair A <= B: x-intervals a < b with any y-intervals (a grid, so
    # terms of one y-interval broadcast), then a == b with y-intervals a <= b
    iv = np.arange(k_iv)
    worst, fails, resid = _sweep(
        T, (_interval_pairs(T, *np.triu_indices(k_iv, 1)),
            _interval_pairs(T, iv[:, None], iv[None])),
        (_interval_pairs(T, iv, iv),
         _interval_pairs(T, *np.triu_indices(k_iv))))

    # rectangle i has x-interval i // k_iv and y-interval i % k_iv
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, k_iv * k_iv, (spot_checks, 2)).T
    (ax, ay), (bx, by) = np.divmod(i, k_iv), np.divmod(j, k_iv)
    pa, _, p_union, p_inter, _ = _rect_pair_terms(
        T, _interval_pairs(T, ax, bx), _interval_pairs(T, ay, by),
        lambda table, x, y: table[x, y])
    ma, mb = _rect_masks(T, ax, ay, res), _rect_masks(T, bx, by, res)
    spot_err = max(np.abs(v - _mask_perimeter(m, ch, cv)).max(initial=0.0)
                   for v, m in ((pa, ma), (p_union, ma | mb),
                                (p_inter, ma & mb)))

    return ExperimentReport(
        name="rectangle_submodularity",
        quantities=(
            Quantity("pairs violating the perimeter inequality",
                     float(fails), 0.0, 0.0),
            Quantity("worst submodularity violation",
                     max(0.0, -worst), 0.0, 1e-9),
            Quantity("cut identity residual", resid, 0.0, 1e-9),
            Quantity("closed-form vs raster mismatch", float(spot_err),
                     0.0, 1e-9),
        ))


def three_diamonds_thresholds(alpha: float = SQRT2) -> tuple[float, float]:
    """Level band (t0, t1] where the three-diamond routes admit two winners.

    t0 equates the route through the large diamonds' bottom tips with the
    route over their top tips; t1 is the level whose boundary point lines up
    with the small diamond's top tip and a large diamond's top tip, past
    which the direct two-segment route over the small diamond takes over.
    Route costs use the actual weighted length, so a route that dipped into
    a diamond would be penalized; the returned roots are alpha-free.
    """
    w = three_heavy_diamonds(alpha)
    under, over, _, apex, _ = _THREE_DIAMOND_VIAS

    def gap(first, second):
        # one pass prices both routes; each is bit for bit its own call's
        def f(t):
            left, right = boundary_points(t)
            a, b = weighted_length([Polyline((left, *verts, right))
                                    for verts in (first, second)], w)
            return a - b
        return f

    bottom_minus_top, top_minus_apex = gap(under, over), gap(over, apex)

    def root(f, lo, hi):
        flo, fhi = f(lo), f(hi)
        if (flo > 0) == (fhi > 0):
            raise ValueError("no route-equality root in (3/4, 11/8)")
        return _refine(f, lo, hi, flo, fhi)

    t0 = root(bottom_minus_top, 0.76, 1.12)
    t1 = root(top_minus_apex, t0 + 1e-6, 1.374)
    if not 0.75 < t0 < t1 < 1.375:
        raise ValueError(f"thresholds ({t0:.6g}, {t1:.6g}) left (3/4, 11/8)")
    return float(t0), float(t1)


def disagreement_area(sa: SolutionStack, sb: SolutionStack) -> float:
    """Weighted area where two stacked fields differ beyond level noise."""
    if sa.field.res != sb.field.res:
        raise ValueError("stacks were built at different resolutions")
    spacing = float(sa.levels[1] - sa.levels[0])
    xs = sa.field.coords
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    apart = np.abs(sa.field.values - sb.field.values) > 2.0 * spacing
    apart &= X * X + Y * Y < 1.0
    wv = np.asarray(sa.weight.values(X, Y), dtype=float)
    return float((wv * apart).sum() / sa.field.res ** 2)


def nonuniqueness_gap(w: WeightField, policy_a, policy_b, res: int = 256,
                      levels=None) -> float:
    """Weighted area of {|u_a - u_b| > 2 level spacings}; 0 means unique.

    Both stacks must spend the same BV energy (within 0.5% relative); a
    larger spread means at least one branch failed to minimize, and raises.
    """
    if policy_a == policy_b:
        raise ValueError("policies must differ")
    sa = stack(w, levels=levels, policy=policy_a, res=res)
    sb = stack(w, levels=levels, policy=policy_b, res=res)
    ea, eb = bv_energy(sa), bv_energy(sb)
    if abs(ea - eb) > 0.005 * max(ea, eb):
        raise ValueError(f"BV energies {ea:.6g} and {eb:.6g} differ by more "
                         "than 0.5%; one branch is not minimizing")
    return disagreement_area(sa, sb)


def _tilt_probe(theta: float, eps: float, b: float) -> Polyline:
    # straight probe from (-eps, b) hitting the y-axis at angle theta
    return Polyline(((-eps, b), (0.0, b + eps * math.tan(theta))))


def _tilt_closed_form(theta: float, eps: float, b: float) -> float:
    c = math.cos(theta)
    return 0.25 * ((3.0 - 2.0 * eps - 2.0 * b) * eps / c
                   + (c - math.sin(theta)) * eps * eps / (c * c))


def _corelite_suite(seed: int) -> ExperimentReport:
    """Straight-vs-kinked lengths, flat midline crossings, tilt derivative.

    The kinked two-segment path beats the straight diameter through the
    expensive core; level curves cross the y-axis horizontally; and the
    first variation of a tilted probe near the axis matches
    (3 - 2b) eps sin(theta) after scaling by 4 cos^2(theta).
    """
    w = lite_dmd_heavy_core()
    straight = weighted_length(Polyline(((-0.5, 0.0), (0.5, 0.0))), w)
    kinked = weighted_length(Polyline(((-0.5, 0.0), (0.0, 0.2),
                                       (0.5, 0.0))), w)
    expected_kinked = 0.575 * math.sqrt(1.16)
    quantities = [
        Quantity("straight diameter length", straight, 0.625, 1e-9),
        Quantity("kinked path length", kinked, expected_kinked, 1e-9),
        Quantity("kink saving", straight - kinked,
                 0.625 - expected_kinked, 1e-9),
    ]

    delta = 0.01
    for t in (0.9, 1.0, 1.1):
        lc = level_curve(w, t)
        y0, yl, yr = lc.y_at(0.0), lc.y_at(-delta), lc.y_at(delta)
        slope = max(abs(yr - y0), abs(y0 - yl)) / delta
        quantities.append(
            Quantity(f"midline slope of level curve t={t:g}", slope,
                     0.0, 0.02))

    eps, b = 1e-3, 0.25
    ident_err = max(
        abs(weighted_length(_tilt_probe(th, eps, b), w)
            - _tilt_closed_form(th, eps, b))
        for th in (-0.3, -0.1, 0.1, 0.3))
    quantities.append(
        Quantity("tilt probe closed-form mismatch", ident_err, 0.0, 1e-12))

    fd = 1e-4
    for th in (-0.3, 0.3):
        di = (weighted_length(_tilt_probe(th + fd, eps, b), w)
              - weighted_length(_tilt_probe(th - fd, eps, b), w)) / (2 * fd)
        scaled = 4.0 * math.cos(th) ** 2 * di
        quantities.append(
            Quantity(f"tilt derivative at theta={th:+g}", scaled,
                     (3.0 - 2.0 * b) * eps * math.sin(th), 5e-6))

    return ExperimentReport("litedmdheavycore", tuple(quantities))


def _snell_suite(seed: int) -> ExperimentReport:
    rng = np.random.default_rng(seed)
    worst_recip = 0.0
    worst_chain = 0.0
    for _ in range(2000):
        w1, w2 = rng.uniform(0.2, 5.0, 2)
        # subcritical with a 0.5% margin: asin conditioning degrades as
        # 1/cos(theta) toward the critical angle and would swamp 1e-12
        cap = math.asin(min(1.0, w2 / w1)) if w1 > w2 else math.pi / 2
        th1 = rng.uniform(0.0, cap * 0.995)
        th2 = snell_refract(w1, w2, th1)
        worst_recip = max(worst_recip,
                          abs(snell_refract(w2, w1, th2) - th1))
        mids = rng.uniform(max(w1, w2), max(w1, w2) + 4.0,
                           int(rng.integers(1, 5)))
        # one refraction per interface, against the two-endpoint angle
        chain = th1
        for w_a, w_b in zip((w1, *mids), (*mids, w2)):
            chain = snell_refract(w_a, w_b, chain)
        worst_chain = max(worst_chain, abs(chain - th2))
    wl = layered_horizontal(((0.2, 1.0), (2.0, 2.0)))
    a, b = (-0.5, 0.3), (0.5, -0.7)
    _, shot = shoot_two_point(wl, a, b, scan_angles=512)
    # the exact two-segment minimum, where the cost's slope changes sign
    def slope(x):
        return ((x + 0.5) / math.hypot(x + 0.5, 0.5)
                - 2.0 * (0.5 - x) / math.hypot(0.5 - x, 0.5))

    x = _refine(slope, -0.5, 0.5, slope(-0.5), slope(0.5))
    ref = math.hypot(x + 0.5, 0.5) + 2.0 * math.hypot(0.5 - x, 0.5)
    return ExperimentReport("snell", (
        Quantity("reciprocity worst error", worst_recip, 0.0, 1e-12),
        Quantity("chain collapse worst error", worst_chain, 0.0, 1e-12),
        Quantity("two-layer kink vs exact minimum", shot, ref, 1e-6),
    ))


def _thresholds_suite(seed: int) -> ExperimentReport:
    t0, t1 = three_diamonds_thresholds(SQRT2)
    others = [three_diamonds_thresholds(a) for a in (2.0, 5.0)]
    spread0 = max(abs(o[0] - t0) for o in others)
    spread1 = max(abs(o[1] - t1) for o in others)
    # t1's route-equality root is tangential (quadratic on one side), so its
    # conditioning is ~sqrt of t0's; hence the looser spread bar
    return ExperimentReport("thresholds", (
        Quantity("lower tie level t0", t0, 1.017, 0.005),
        Quantity("upper tie level t1", t1, 1.127, 0.005),
        Quantity("t0 spread across alpha", spread0, 0.0, 1e-9),
        Quantity("t1 spread across alpha", spread1, 0.0, 1e-6),
    ))


def _submodularity_suite(seed: int) -> ExperimentReport:
    trials = 1000
    passed = submodularity_check(res=256, trials=trials, seed=seed)
    return ExperimentReport("submodularity", (
        Quantity("random pairs passing", float(passed), float(trials), 0.0),
    ))


def _clearance_suite(seed: int) -> ExperimentReport:
    rng = np.random.default_rng(seed)
    w = constant(1.0)
    worst = 0.0
    for _ in range(32):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        r = float(rng.uniform(0.05, 0.8))
        got = curvature_clearance(w, (math.cos(phi), math.sin(phi)), r)
        worst = max(worst, abs(got - 0.5 * r * r))
    tight = curvature_clearance(light_diamond_tight(0.5), (0.0, -1.0), 0.2)
    return ExperimentReport("clearance", (
        Quantity("constant-weight clearance vs r^2/2", worst, 0.0, 1e-6),
        # floor check: passes iff the clearance reaches at least 1e-3
        Quantity("tight-weight clearance at the south pole positive",
                 min(tight, 1e-3), 1e-3, 0.0),
    ))


def _rectangles_suite(seed: int) -> ExperimentReport:
    return rectangle_submodularity_exhaustive(seed=seed)


SUITES = {
    "snell": _snell_suite,
    "thresholds": _thresholds_suite,
    "submodularity": _submodularity_suite,
    "clearance": _clearance_suite,
    "corelite": _corelite_suite,
    "rectangles": _rectangles_suite,
}


def _suite_names(text: str) -> tuple[str, ...]:
    """'all' alone (every suite, in name order) or distinct suite names."""
    names = tuple(n.strip() for n in text.split(","))
    if names == ("all",):
        return tuple(sorted(SUITES))
    if not set(names) <= set(SUITES) or len(set(names)) < len(names):
        raise ValueError(f"unknown experiment list {text!r}; give 'all' alone "
                         f"or distinct names from {', '.join(SUITES)}")
    return names


def run_suite(name: str, seed: int = 0) -> ExperimentReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return SUITES[name](seed=seed)
