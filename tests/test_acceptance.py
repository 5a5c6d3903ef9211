"""Gate suite: one test per numbered acceptance criterion.

Each test accumulates named subchecks and emits a single
``[PASS]/[FAIL] criterion N`` line with its wall-clock time; conftest
replays the lines in a terminal summary section after the run.  Budgets
count everything the criterion consumes, including building any shared
stack fixture on first use, so the suite doubles as a runtime contract.
"""
import math
import time

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from lglab import cli
from lglab.analysis import (curvature_clearance, disagreement_area,
                            rectangle_submodularity_exhaustive,
                            submodularity_check, three_diamonds_thresholds)
from lglab.curves import level_curve
from lglab.oracle import grid_shortest_path
from lglab.paths import Polyline, weighted_length
from lglab.snell import H_of, heavy_disk_arc_test, snell_chain, snell_refract
from lglab.stacker import _check_nesting, bv_energy, local_oscillation
from lglab.tracing import trace_layered_ray
from lglab.weights import lite_dmd_heavy_core, make_weight

SQRT5 = math.sqrt(5.0)
STACK_FIXTURES = ("stack_constant", "stack_heavy", "stack_disk",
                  "stack_tight", "stack_core_min", "stack_core_max",
                  "stack_three_min", "stack_three_max")


def _finish(log, num, label, checks, t0, budget=None):
    elapsed = time.monotonic() - t0
    bad = [name for name, ok in checks if not ok]
    over = budget is not None and elapsed >= budget
    verdict = "FAIL" if bad or over else "PASS"
    line = f"[{verdict}] criterion {num}: {label} ({elapsed:.1f}s)"
    log.append(line)
    print(line)
    assert not bad, f"failed subchecks: {bad}"
    assert not over, f"runtime {elapsed:.1f}s exceeds the {budget}s budget"


def _disk_mask(s):
    xs = s.field.coords
    X, Y = np.meshgrid(xs, xs)
    return X, Y, X * X + Y * Y < 1.0


def _edge_tv(s):
    """Grid total variation: |du| times edge-averaged weight, per edge."""
    u = s.field.values
    X, Y, inside = _disk_mask(s)
    w = np.asarray(s.weight.values(X, Y), dtype=float)
    h = 1.0 / s.field.res
    tot = 0.0
    for axis in (0, 1):
        du = np.abs(np.diff(u, axis=axis))
        wa = 0.5 * (w[1:, :] + w[:-1, :]) if axis == 0 else \
            0.5 * (w[:, 1:] + w[:, :-1])
        m = (inside[1:, :] & inside[:-1, :]) if axis == 0 else \
            (inside[:, 1:] & inside[:, :-1])
        tot += float((du * wa)[m].sum()) * h
    return tot


def _gradient_tv(s):
    """Isotropic variant: |grad u| times node weight over the disk."""
    u = s.field.values
    X, Y, inside = _disk_mask(s)
    w = np.asarray(s.weight.values(X, Y), dtype=float)
    h = 1.0 / s.field.res
    gy, gx = np.gradient(u, h)
    return float((np.hypot(gx, gy) * w)[inside].sum() * h * h)


def test_criterion_1_snell_identities_and_layered_shot(acceptance_log):
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)

    worst_inv = worst_rec = 0.0
    for _ in range(10_000):
        w1, w2 = rng.uniform(0.2, 5.0, size=2)
        cap = math.asin(min(1.0, w2 / w1)) if w1 > w2 else 0.5 * math.pi
        th = rng.uniform(1e-4, 0.995 * cap)
        out = snell_refract(w1, w2, th)
        worst_inv = max(worst_inv,
                        abs(w1 * math.sin(th) - w2 * math.sin(out)))
        worst_rec = max(worst_rec, abs(snell_refract(w2, w1, out) - th))

    worst_chain = 0.0
    for _ in range(10_000):
        k = int(rng.integers(2, 7))
        ws = rng.uniform(0.2, 5.0, size=k)
        cap = math.asin(min(1.0, ws.min() / ws[0]))
        th = rng.uniform(1e-4, 0.995 * cap)
        end = snell_chain(ws, th)
        seq = th
        for wa, wb in zip(ws[:-1], ws[1:]):
            seq = snell_refract(wa, wb, seq)
        worst_chain = max(worst_chain, abs(end - seq),
                          abs(ws[0] * math.sin(th) - ws[-1] * math.sin(end)))

    # two-layer medium: unit weight one deep, weight 2 below; shoot from
    # the origin to (1, -2) and compare the refraction kink against a
    # golden-section minimum of the exact two-segment cost
    def d_of(x):
        return math.hypot(x, 1.0) + 2.0 * math.hypot(x - 1.0, 1.0)

    x_star = float(minimize_scalar(d_of, bracket=(0.0, 0.8, 1.0),
                                   method="golden",
                                   options={"xtol": 1e-12}).x)
    med = make_weight("layered_horizontal", layers=((1.0, 1.0), (9.0, 2.0)))

    def end_err(theta):
        ray = trace_layered_ray(med, (0.0, 0.0), theta, (0.0, 1.0, -2.0))
        return ray.vertices[-1][0] - 1.0

    theta = brentq(end_err, 0.05, 1.2, xtol=1e-13)
    ray = trace_layered_ray(med, (0.0, 0.0), theta, (0.0, 1.0, -2.0))
    kinks = [v for v in ray.vertices if abs(v[1] + 1.0) < 1e-9]
    cost = weighted_length(ray, med)

    checks = [
        ("refraction invariant to 1e-12 on 1e4 draws", worst_inv <= 1e-12),
        ("refraction reciprocity to 1e-12", worst_rec <= 1e-12),
        ("chain collapse to 1e-12 on 1e4 draws", worst_chain <= 1e-12),
        ("one interface kink on the shot ray", len(kinks) == 1),
        ("kink x matches golden-section argmin to 1e-6",
         bool(kinks) and abs(kinks[0][0] - x_star) <= 1e-6),
        ("ray cost matches minimized cost to 1e-6",
         abs(cost - d_of(x_star)) <= 1e-6),
    ]
    _finish(acceptance_log, 1, "refraction identities and layered shooting",
            checks, t0, budget=5.0)


def test_criterion_2_heavy_diamond_level_one(acceptance_log):
    t0 = time.monotonic()
    w = make_weight("heavy_diamond", 2.0)
    lc = level_curve(w, 1.0, "minimal")
    arr = lc.path.as_array()
    miss = float(np.min(np.hypot(arr[:, 0], arr[:, 1] - 0.5)))
    wl = weighted_length(lc.path, w)
    oc = grid_shortest_path(w, 512, 16, (-1.0, 0.0), (1.0, 0.0))[1]

    checks = [
        ("curve passes within 1e-6 of (0, 0.5)", miss <= 1e-6),
        ("weighted length sqrt(5) +/- 1e-6", abs(wl - SQRT5) <= 1e-6),
        ("res-512 16-stencil oracle within 1.5%",
         abs(oc - SQRT5) <= 0.015 * SQRT5),
    ]
    _finish(acceptance_log, 2, "heavy-diamond midline geodesic",
            checks, t0, budget=60.0)


def test_criterion_3_heavy_disk_arc(acceptance_log):
    t0 = time.monotonic()
    w = make_weight("heavy_disk", 2.0)
    arr = level_curve(w, 1.0, "minimal").path.as_array()
    interior = arr[np.abs(arr[:, 0]) <= 0.2]
    dev = float(np.max(np.abs(np.hypot(interior[:, 0], interior[:, 1])
                              - 0.5)))

    alphas = (0.8, 1.0, 1.3, 0.5 * math.pi, 1.7, 2.0, 2.4, math.pi)
    thetas = np.linspace(0.01, math.pi, 2001)
    hits = []
    mismatches = 0
    for al in alphas:
        for th in thetas:
            th = float(th)
            val = 2.0 * al * math.sin(0.5 * th)
            if heavy_disk_arc_test(al, th) != (th <= val):
                mismatches += 1
            if abs(val - th) <= 1e-9:
                hits.append((al, th))

    checks = [
        ("enough interior vertices sampled", len(interior) > 10),
        ("interior portion on |p| = 0.5 within 1e-3", dev <= 1e-3),
        ("arc inequality matches direct evaluation", mismatches == 0),
        ("equality only at alpha = pi/2, theta = pi",
         hits == [(0.5 * math.pi, math.pi)]),
    ]
    _finish(acceptance_log, 3, "heavy-disk circular arc",
            checks, t0, budget=30.0)


def _snell_sag(t0: float, n: int) -> float:
    """Sag integral rebuilt as an n-shell discrete refraction sum.

    Shell weights grow linearly outward; the launch angle is 45 degrees
    at radius t0 and each shell applies one refraction, so the summand
    1 - tan(theta) tracks the quadrature integrand shell by shell.
    """
    rho = np.linspace(t0, 1.0, n + 1)
    mids = 0.5 * (rho[:-1] + rho[1:])
    drho = float(rho[1] - rho[0])
    theta = snell_refract(0.5 * (1.0 + t0), 0.5 * (1.0 + mids[0]),
                          0.25 * math.pi)
    total = 0.5 * drho * (1.0 - math.tan(theta))
    for k in range(1, n):
        theta = snell_refract(0.5 * (1.0 + mids[k - 1]),
                              0.5 * (1.0 + mids[k]), theta)
        total += 0.5 * drho * (1.0 - math.tan(theta))
    return total


def test_criterion_4_tight_jump_heights(acceptance_log, request):
    t0 = time.monotonic()
    radii = (0.1, 0.3, 0.5, 0.7, 0.9)
    checks = []
    for r in radii:
        hq = H_of(r)
        hd = _snell_sag(r, 100_000)
        checks.append((f"H({r}) quadrature vs 1e5-shell sum within 1e-3",
                       abs(hq - hd) <= 1e-3))
        checks.append((f"H({r}) > 0", hq > 0.0))

    s = request.getfixturevalue("stack_tight")
    for r in radii:
        gap = local_oscillation(s, r, 0.0)
        checks.append((f"stacked jump at ({r}, 0) >= 2H - 0.02",
                       gap >= 2.0 * H_of(r) - 0.02))

    _finish(acceptance_log, 4, "tight-diamond jump heights",
            checks, t0, budget=180.0)


def test_criterion_5_three_diamond_thresholds(acceptance_log, request):
    t0 = time.monotonic()
    lo, hi = three_diamonds_thresholds()
    sa = request.getfixturevalue("stack_three_min")
    sb = request.getfixturevalue("stack_three_max")

    ua, ub = sa.field.values, sb.field.values
    _, _, inside = _disk_mask(sa)
    spacing = float(sa.levels[1] - sa.levels[0])
    differ = (np.abs(ua - ub) > 2.0 * spacing) & inside
    in_band = ((np.maximum(ua, ub) >= lo - 0.02)
               & (np.minimum(ua, ub) <= hi + 0.02))
    area = float(np.count_nonzero(differ & in_band)) / sa.field.res ** 2

    ea, eb = bv_energy(sa), bv_energy(sb)

    checks = [
        ("lower threshold 1.017 +/- 0.005", abs(lo - 1.017) <= 0.005),
        ("upper threshold 1.127 +/- 0.005", abs(hi - 1.127) <= 0.005),
        ("policies disagree on positive area inside the band", area > 0.0),
        ("stack energies within 0.5% relative",
         abs(ea - eb) <= 0.005 * max(ea, eb)),
    ]
    _finish(acceptance_log, 5, "three-diamond switching band",
            checks, t0, budget=180.0)


def test_criterion_6_core_nonuniqueness_and_mirror(acceptance_log, request):
    t0 = time.monotonic()
    w = lite_dmd_heavy_core()
    straight = weighted_length(Polyline(((-0.5, 0.0), (0.5, 0.0))), w)
    kinked = weighted_length(Polyline(((-0.5, 0.0), (0.0, 0.2),
                                       (0.5, 0.0))), w)
    ref = 0.575 * math.sqrt(1.16)

    smin = request.getfixturevalue("stack_core_min")
    smax = request.getfixturevalue("stack_core_max")
    area = disagreement_area(smin, smax)

    spacing = float(smin.levels[1] - smin.levels[0])
    mirror = 2.0 - np.flipud(smin.field.values)
    dev = float(np.max(np.abs(smax.field.values - mirror)))

    checks = [
        ("straight midline costs 0.625 to 1e-9",
         abs(straight - 0.625) <= 1e-9),
        ("kinked route costs 0.575*sqrt(1.16) to 1e-9",
         abs(kinked - ref) <= 1e-9),
        ("kinked beats straight", kinked < straight),
        ("policies disagree on positive area", area > 0.0),
        ("max mirrors min: u(x,y) = 2 - u_min(x,-y) within 2 spacings",
         dev <= 2.0 * spacing),
    ]
    _finish(acceptance_log, 6, "heavy-core nonuniqueness and mirror",
            checks, t0, budget=180.0)


def test_criterion_7_structural_properties(acceptance_log, request):
    t0 = time.monotonic()
    stacks = {name: request.getfixturevalue(name)
              for name in STACK_FIXTURES}

    nested = True
    for s in stacks.values():
        _check_nesting(s.curves, s.field.coords, s.field.res)  # raises
    bounded = all(float(s.field.values.min()) >= 0.0
                  and float(s.field.values.max()) <= 2.0
                  for s in stacks.values())

    sc = stacks["stack_constant"]
    edge_rel = abs(_edge_tv(sc) - bv_energy(sc)) / bv_energy(sc)
    grad_rels = []
    for name in ("stack_constant", "stack_heavy", "stack_three_min"):
        s = stacks[name]
        grad_rels.append(abs(_gradient_tv(s) - bv_energy(s)) / bv_energy(s))

    n_ok = submodularity_check(res=256, trials=1000, seed=0)
    rect = rectangle_submodularity_exhaustive(res=16)

    rng = np.random.default_rng(7)
    wc = make_weight("constant")
    worst_gap = 0.0
    for _ in range(32):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        r = float(rng.uniform(0.05, 0.6))
        z = (math.cos(phi), math.sin(phi))
        worst_gap = max(worst_gap,
                        abs(curvature_clearance(wc, z, r) - 0.5 * r * r))

    checks = [
        (f"nesting holds for {len(stacks)} stacks x 401 levels", nested),
        ("0 <= u <= 2 on every stack", bounded),
        ("edge total variation vs coarea energy within 5% (constant)",
         edge_rel <= 0.05),
        ("gradient total variation vs coarea energy within 5% (3 weights)",
         max(grad_rels) <= 0.05),
        ("submodularity on 1000/1000 random pairs", n_ok == 1000),
        ("submodularity on all rectangle pairs at res 16", rect.passed),
        ("constant-weight clearance r^2/2 to 1e-6 at 32 samples",
         worst_gap <= 1e-6),
    ]
    _finish(acceptance_log, 7, "structural property suite",
            checks, t0, budget=300.0)


def test_criterion_8_artifact_determinism(acceptance_log, tmp_path,
                                          monkeypatch, capsys):
    t0 = time.monotonic()
    argv = ["solve", "--weight", "heavy_diamond", "--alpha", "2",
            "--resolution", "128", "--levels", "101",
            "--outdir", str(tmp_path / "ignored")]
    outs = []
    for sub in ("a", "b"):
        dest = tmp_path / sub
        monkeypatch.setenv("LGL_OUT", str(dest))
        assert cli.main(argv) == 0
        outs.append(dest)
    capsys.readouterr()

    same = {name: (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            for name in ("solution.pgm", "contours.svg", "curves.csv")}
    checks = [(f"{name} byte-identical across runs", ok)
              for name, ok in same.items()]
    _finish(acceptance_log, 8, "solver artifact determinism", checks, t0)
