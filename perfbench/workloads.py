"""The benchmark workloads: what one pass runs and how its output is checked.

Workloads drive lglab only through its public functions, with
``cli.main([...])`` in-process for the command-line paths.  A pass is a
list of jobs; a job is one CLI command or one query.  A job fails if it
raises, exits non-zero, or fails its output check.  Checks run after the
pass's clock has stopped.  README.md in this directory says why each
workload exists and which layer it stresses.
"""
from __future__ import annotations

import hashlib
import io
import math
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from lglab import (analysis, cli, config, curves, oracle, paths, render,
                   shooting, stacker, weights)

from layers import STACKABLE

BRANCHES = ("minimal", "maximal")
WARM_LEVEL = 0.7
CERT_RTOL = 1e-12
ARTIFACTS = ("solution.pgm", "contours.svg", "curves.csv", "run.cfg")
CORE_PAIR = ("lite_dmd_heavy_core", "lite_dmd_heavy_core_maximal")


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # failure reason, or None if correct


def _build(specs):
    return {name: weights.make_weight(name, alpha) for name, alpha in specs}


def _warm_up(ws) -> None:
    """One level curve per (weight, branch): fills the curves lru tables,
    which a CLI user pays for on every invocation."""
    for w in ws:
        for branch in BRANCHES:
            curves.level_curve(w, WARM_LEVEL, branch)


def _digest(folder: Path) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update((folder / name).read_bytes())
    return h.hexdigest()


def _field_problem(s) -> str | None:
    """Structural invariants of a stacked field, or what breaks them."""
    u = s.field.values
    X, Y = np.meshgrid(s.field.coords, s.field.coords)
    if not np.all(np.isfinite(u)) or u.min() < 0.0 or u.max() > 2.0:
        return "u leaves [0, 2]"
    inside = X * X + Y * Y < 1.0
    both = inside[1:, :] & inside[:-1, :]
    if np.any(np.diff(u, axis=0)[both] < 0.0):
        return "u decreases in y inside the disk"
    out = ~inside
    if not np.array_equal(u[out], np.clip(Y[out] + 1.0, 0.0, 2.0)):
        return "u differs from clip(y + 1, 0, 2) outside the disk"
    return None


class FigureWorkload:
    """``lglab figure <preset>`` for each preset at one grid and level count.

    Pass 0 keeps its artifacts for the final checks; later passes must
    reproduce them byte for byte and are deleted once compared.  The
    final checks rebuild every stack through the public API from the
    ``run.cfg`` the CLI wrote, require ``pgm_text`` of it to equal the
    CLI's ``solution.pgm``, and test the field invariants, the
    heavy-diamond level-1 length and the core mirror pair on it.
    """

    def __init__(self, presets, resolution, levels, weight_specs, outdir):
        self.presets = presets
        self.resolution = resolution
        self.levels = levels
        self.weight_specs = weight_specs
        self.outdir = Path(outdir)
        self.digests: dict[str, str] = {}
        self.bv_energy_s = 0.0

    def warm_up(self) -> None:
        _warm_up(_build(self.weight_specs).values())

    def jobs(self, k: int) -> list[Job]:
        base = self.outdir / f"pass{k}"
        return [Job(p, partial(self._figure, p, base),
                    partial(self._check_job, p, base, k))
                for p in self.presets]

    def _figure(self, preset, base):
        return cli.main(["figure", preset,
                         "--resolution", str(self.resolution),
                         "--levels", str(self.levels), "--outdir", str(base)])

    def _check_job(self, preset, base, k, rc):
        if rc != 0:
            return f"exit code {rc}"
        digest = _digest(base / preset)
        if k > 0:
            shutil.rmtree(base / preset)
        if digest != self.digests.setdefault(preset, digest):
            return "artifacts differ from pass 0"
        return None

    def final_checks(self) -> dict[str, str]:
        failures: dict[str, str] = {}
        checked = {}
        for p in self.presets:
            folder = self.outdir / "pass0" / p
            try:
                s, w = self._rebuild(folder)
            except (OSError, ValueError) as exc:
                failures[p] = f"cannot rebuild the stack: {exc}"
                continue
            pgm = (folder / "solution.pgm").read_text()
            if render.pgm_text(s.field) != pgm:
                failures[p] = "solution.pgm differs from the rebuilt stack"
                continue
            t0 = time.perf_counter()
            energy = stacker.bv_energy(s)
            self.bv_energy_s += time.perf_counter() - t0
            reason = _field_problem(s)
            if reason is None and not (math.isfinite(energy) and energy > 0):
                reason = f"bv_energy {energy!r} is not positive"
            if reason is None and p == "heavy_diamond":
                reason = self._level_one_problem(s, w)
            if reason is not None:
                failures[p] = reason
            checked[p] = (s, energy)
        if all(p in checked and p not in failures for p in CORE_PAIR):
            reason = _mirror_problem(*(checked[p] for p in CORE_PAIR))
            if reason is not None:
                failures.update({p: reason for p in CORE_PAIR})
        return failures

    @staticmethod
    def _rebuild(folder: Path):
        cfg = config.load_config(folder / "run.cfg")
        w = weights.make_weight(cfg.weight, cfg.alpha,
                                layers=config.parse_layers(cfg.layers))
        s = stacker.stack(w, levels=stacker.midpoint_levels(cfg.levels),
                          policy=stacker.SwitchPolicy(cfg.switch_level),
                          res=cfg.resolution)
        return s, w

    @staticmethod
    def _level_one_problem(s, w) -> str | None:
        k = np.flatnonzero(s.levels == 1.0)
        if len(k) != 1:
            return "level 1 is not among the stacked levels"
        length = paths.weighted_length(s.curves[int(k[0])].path, w)
        if abs(length - math.sqrt(5.0)) > 1e-9:
            return f"level-1 curve length {length!r} is not sqrt(5)"
        return None


def _mirror_problem(lo, hi) -> str | None:
    """u_max(x, y) = 2 - u_min(x, -y) within two level spacings, and equal
    BV energy within 0.5%: the tolerances of the acceptance tests."""
    (smin, emin), (smax, emax) = lo, hi
    spacing = float(smin.levels[1] - smin.levels[0])
    dev = float(np.max(np.abs(smax.field.values
                              - (2.0 - np.flipud(smin.field.values)))))
    if dev > 2.0 * spacing:
        return f"mirror relation off by {dev:.3g} (> {2 * spacing:.3g})"
    if abs(emin - emax) > 0.005 * max(emin, emax):
        return f"bv_energy {emin!r} vs {emax!r} differ by more than 0.5%"
    return None


class VerifyWorkload:
    """The verify suites: four through ``lglab verify``, two scaled down.

    ``lglab verify --experiments all`` takes about 66 s on a 2-core box:
    55 s in the rectangles suite at its fixed res 16 and 3 s in the
    submodularity suite at 1000 trials, more than a run may take.  Those
    two suites run through their public functions at RECT_RES and
    SUBMOD_TRIALS instead, where rectangles keeps the largest share of
    the pass, as it has at full size.
    """

    CLI_SUITES = ("snell", "thresholds", "clearance", "corelite")
    RECT_RES = 10
    SUBMOD_RES = 256
    SUBMOD_TRIALS = 300

    def __init__(self, seed, outdir):
        self.seed = seed
        self.outdir = Path(outdir)
        self.bv_energy_s = 0.0

    def warm_up(self) -> None:
        _warm_up(_build(STACKABLE).values())

    def jobs(self, k: int) -> list[Job]:
        folder = self.outdir / f"pass{k}"
        argv = ["verify", "--experiments", ",".join(self.CLI_SUITES),
                "--seed", str(self.seed), "--outdir", str(folder)]
        return [
            Job("verify", partial(cli.main, argv),
                partial(self._check_verify, folder)),
            Job("submodularity",
                partial(analysis.submodularity_check, res=self.SUBMOD_RES,
                        trials=self.SUBMOD_TRIALS, seed=self.seed),
                self._check_submodularity),
            Job("rectangles",
                partial(analysis.rectangle_submodularity_exhaustive,
                        res=self.RECT_RES, seed=self.seed),
                _check_report),
        ]

    def _check_verify(self, folder, rc):
        if rc != 0:
            return f"exit code {rc}"
        rows = (folder / "report.csv").read_text().splitlines()[1:]
        suites = {row.split(":", 1)[0] for row in rows}
        if len(suites) != len(self.CLI_SUITES):
            return f"report.csv covers {len(suites)} suites"
        bad = [row for row in rows if not row.endswith(",true")]
        return f"{len(bad)} quantities fail" if bad else None

    def _check_submodularity(self, passed):
        if passed != self.SUBMOD_TRIALS:
            return f"{self.SUBMOD_TRIALS - passed} random pairs fail"
        return None

    def final_checks(self) -> dict[str, str]:
        return {}


def _check_report(report):
    bad = [q.label for q in report.quantities if not q.passed]
    return f"failing: {', '.join(bad)}" if bad else None


class GeodesicWorkload:
    """Seeded two-point queries: grid-oracle certificates and shots.

    Each pass runs one oracle query, one l1-radial shot and one CLI shot
    (heavy_disk on even passes, layered on odd ones), so the median query
    is an oracle query.  An oracle query builds a level curve, runs the grid
    oracle between its exact endpoints, and re-scores the grid path with
    those endpoints; the re-scored path may not beat the curve by more
    than CERT_RTOL.  Shots may cost no more than their chord, and a shot
    between the endpoints of a level curve may not beat that curve.

    The oracle queries walk the (weight, branch) pairs in a fixed order
    and draw only the level from the seed, so every seed costs about the
    same.  The l1 shot is one fixed query at L1_SCAN: at the CLI defaults
    (2048 angles) one l1 shot takes 17 to 40 s, and its cost at any scan
    size swings by 100x with the endpoints, since a ray that never meets
    its stop line runs the tracer's whole segment budget.
    """

    RES = 512
    STENCIL = 16
    L1_WEIGHT = "light_diamond_tight"
    L1_LEVEL = 0.5
    L1_SCAN = {"scan_angles": 16, "n_shells": 128}
    LAYERS = "0.2:1.0,0.5:2.0,0.8:1.5"

    def __init__(self, seed, outdir):
        self.rng = np.random.default_rng(seed)
        self.outdir = Path(outdir)
        self.combos = [(name, branch) for name, _ in STACKABLE
                       for branch in BRANCHES]
        self.ws: dict = {}
        self.l1_curve_length: float | None = None
        self.bv_energy_s = 0.0

    def warm_up(self) -> None:
        self.ws = _build(STACKABLE)
        self.ws["layered_horizontal"] = weights.make_weight(
            "layered_horizontal", layers=config.parse_layers(self.LAYERS))
        _warm_up(self.ws[name] for name, _ in STACKABLE)

    def jobs(self, k: int) -> list[Job]:
        name, branch = self.combos[k % len(self.combos)]
        t = float(self.rng.uniform(0.05, 1.95))
        out = [Job(f"oracle:{name}:{branch}",
                   partial(self._oracle, self.ws[name], t, branch),
                   _check_certificate)]
        w = self.ws[self.L1_WEIGHT]
        a, b = curves.boundary_points(self.L1_LEVEL)
        out.append(Job("shot:l1", partial(shooting.shoot_two_point, w, a, b,
                                          **self.L1_SCAN),
                       partial(self._check_l1_shot, w, a, b)))
        name, flags = (("heavy_disk", ["--alpha", "2"]) if k % 2 == 0 else
                       ("layered_horizontal", ["--layers", self.LAYERS]))
        p, q = self._pair()
        argv = ["geodesic", "--weight", name, *flags,
                f"--from={p[0]!r},{p[1]!r}", f"--to={q[0]!r},{q[1]!r}",
                "--outdir", str(self.outdir / f"pass{k}")]
        out.append(Job(f"shot:{name}", partial(_cli_shot, argv),
                       partial(_check_cli_shot, self.ws[name], p, q)))
        return out

    def _pair(self):
        while True:
            r = 0.85 * np.sqrt(self.rng.uniform(size=2))
            phi = self.rng.uniform(0.0, 2.0 * math.pi, size=2)
            p, q = ((float(r[i] * math.cos(phi[i])),
                     float(r[i] * math.sin(phi[i]))) for i in (0, 1))
            if math.dist(p, q) > 0.05:
                return p, q

    def _oracle(self, w, t, branch):
        lc = curves.level_curve(w, t, branch)
        a, b = lc.path.vertices[0], lc.path.vertices[-1]
        grid, _ = oracle.grid_shortest_path(w, self.RES, self.STENCIL, a, b)
        rescored = paths.Polyline.from_points(
            np.vstack([[a], grid.as_array()[1:-1], [b]]))
        return (paths.weighted_length(lc.path, w),
                paths.weighted_length(rescored, w))

    def _check_l1_shot(self, w, a, b, result):
        if self.l1_curve_length is None:
            self.l1_curve_length = min(
                paths.weighted_length(
                    curves.level_curve(w, self.L1_LEVEL, br).path, w)
                for br in BRANCHES)
        _, cost = result
        chord = paths.weighted_length(paths.segment(a, b), w)
        if cost > chord * (1.0 + CERT_RTOL):
            return f"shot {cost!r} costs more than its chord {chord!r}"
        return _certificate_problem(self.l1_curve_length, cost)

    def final_checks(self) -> dict[str, str]:
        return {}


def _certificate_problem(curve: float, other: float) -> str | None:
    if other < curve * (1.0 - CERT_RTOL):
        return (f"path of length {other!r} beats the level curve "
                f"{curve!r} by {(curve - other) / curve:.3g}")
    return None


def _check_certificate(result):
    return _certificate_problem(*result)


def _cli_shot(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _check_cli_shot(w, p, q, result):
    rc, text = result
    if rc != 0:
        return f"exit code {rc}"
    lengths = [line[len("length="):] for line in text.splitlines()
               if line.startswith("length=")]
    if len(lengths) != 1:
        return "no length line in the output"
    cost = float(lengths[0])
    chord = paths.weighted_length(paths.segment(p, q), w)
    if not cost <= chord * (1.0 + CERT_RTOL):
        return f"shot {cost!r} costs more than its chord {chord!r}"
    return None


FIGURE_PRESETS = ("constant", "heavy_diamond", "heavy_disk", "light_diamond",
                  "light_diamond_tight", "lite_dmd_heavy_core",
                  "lite_dmd_heavy_core_maximal", "three_heavy_diamonds",
                  "three_heavy_diamonds_maximal")
FINE_PRESETS = ("heavy_diamond", "three_heavy_diamonds", "heavy_disk")


def make(name: str, seed: int, outdir: str):
    if name == "figure":
        return FigureWorkload(FIGURE_PRESETS, 128, 21, STACKABLE, outdir)
    if name == "fine_grid":
        specs = tuple(s for s in STACKABLE if s[0] in FINE_PRESETS)
        return FigureWorkload(FINE_PRESETS, 768, 21, specs, outdir)
    if name == "verify":
        return VerifyWorkload(seed, outdir)
    if name == "geodesic":
        return GeodesicWorkload(seed, outdir)
    raise KeyError(name)
