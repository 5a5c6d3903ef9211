"""Command-line front end.

Subcommands:
  catalog   list the built-in weight fields
  geodesic  two-point weighted shortest path, or the cost of a given route
  solve     build a solution stack and emit PGM / SVG / CSV artifacts
  verify    run the numerical experiment suites and write report.csv
  figure    preset solves keyed by catalog weight name

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 solver
failure.  The LGL_OUT environment variable overrides any configured
output directory.  solve and figure take --timings, which prints the
seconds spent stacking, rendering and writing to stderr only, so stdout
and the artifacts stay byte-identical.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .analysis import SUITES, run_suite
from .config import RunConfig, load_config, parse_layers, serialize_config
from .paths import Polyline, weighted_length
from .render import (curves_csv, geodesic_csv, pgm_text, report_csv, svg_text,
                     write_text)
from .shooting import shoot_two_point
from .snell import SolverError
from .stacker import SwitchPolicy, midpoint_levels, stack
from .weights import catalog_describe, catalog_names, make_weight

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

_SOLVER_ERRORS = (SolverError, NotImplementedError)

_FIGURES = {
    "constant": RunConfig(weight="constant"),
    "heavy_diamond": RunConfig(weight="heavy_diamond", alpha=2.0),
    "heavy_disk": RunConfig(weight="heavy_disk", alpha=2.0),
    "light_diamond": RunConfig(weight="light_diamond", alpha=0.5),
    "light_diamond_tight": RunConfig(weight="light_diamond_tight", alpha=0.5),
    "lite_dmd_heavy_core": RunConfig(weight="lite_dmd_heavy_core"),
    "lite_dmd_heavy_core_maximal": RunConfig(weight="lite_dmd_heavy_core",
                                             switch_level=2.0),
    "three_heavy_diamonds": RunConfig(weight="three_heavy_diamonds",
                                      alpha=2.0),
    "three_heavy_diamonds_maximal": RunConfig(weight="three_heavy_diamonds",
                                              alpha=2.0, switch_level=2.0),
}


def _point(text: str) -> tuple[float, float]:
    try:
        xs, ys = text.split(",")
        return float(xs), float(ys)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected x,y, got {text!r}")


def _via_points(text: str) -> tuple[tuple[float, float], ...]:
    return tuple(_point(part) for part in text.split(";") if part.strip())


def _resolve_outdir(configured: str) -> Path:
    out = os.environ.get("LGL_OUT", "").strip() or configured
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_weight(cfg: RunConfig):
    return make_weight(cfg.weight, cfg.alpha, layers=parse_layers(cfg.layers))


def _merge_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    updates = {}
    for name in ("weight", "alpha", "layers", "resolution", "levels",
                 "switch_level", "outdir", "experiments", "seed"):
        val = getattr(args, name, None)
        if val is not None:
            updates[name] = val
    return replace(cfg, **updates) if updates else cfg


def _solve(cfg: RunConfig, outdir: Path, timings: bool = False) -> int:
    """Stack cfg's level curves and write the four artifacts to outdir.

    With timings, the seconds of each stage go to stderr.
    """
    seconds = dict.fromkeys(("stack", "pgm", "svg", "csv", "write"), 0.0)

    def timed(stage, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds[stage] += time.perf_counter() - start
        return result

    s = timed("stack", stack, _build_weight(cfg),
              levels=midpoint_levels(cfg.levels),
              policy=SwitchPolicy(cfg.switch_level), res=cfg.resolution)
    stride = max(1, (len(s.levels) - 1) // 40)
    timed("write", write_text, outdir / "solution.pgm",
          timed("pgm", pgm_text, s.field))
    timed("write", write_text, outdir / "contours.svg",
          timed("svg", svg_text, s))
    timed("write", write_text, outdir / "curves.csv",
          timed("csv", curves_csv, s, stride=stride))
    timed("write", write_text, outdir / "run.cfg", serialize_config(cfg))
    for name in ("solution.pgm", "contours.svg", "curves.csv", "run.cfg"):
        print(outdir / name)
    if timings:
        print("timings: " + " ".join(f"{stage}={t:.4f}s"
                                     for stage, t in seconds.items()),
              file=sys.stderr)
    return EXIT_OK


def cmd_catalog(args) -> int:
    for name in catalog_names():
        param, note = catalog_describe(name)
        print(f"{name:24s} {param}")
        print(f"{'':24s} {note}")
    return EXIT_OK


def cmd_geodesic(args) -> int:
    cfg = RunConfig(weight=args.weight, alpha=args.alpha,
                    layers=args.layers or "", outdir=args.outdir)
    w = _build_weight(cfg)
    if args.via:
        path = Polyline((args.src, *args.via, args.dst))
        length = weighted_length(path, w)
    else:
        path, length = shoot_two_point(w, args.src, args.dst)
    outdir = _resolve_outdir(cfg.outdir)
    write_text(outdir / "geodesic.csv", geodesic_csv(path))
    print(outdir / "geodesic.csv")
    print(f"length={length:.17g}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _merge_config(args)
    return _solve(cfg, _resolve_outdir(cfg.outdir), args.timings)


def cmd_verify(args) -> int:
    cfg = _merge_config(args)
    names = tuple(sorted(SUITES)) if cfg.experiments == "all" else \
        tuple(n.strip() for n in cfg.experiments.split(","))
    reports = [run_suite(name, seed=cfg.seed) for name in names]
    for rep in reports:
        for line in rep.lines():
            print(line)
    outdir = _resolve_outdir(cfg.outdir)
    write_text(outdir / "report.csv", report_csv(reports))
    print(outdir / "report.csv")
    failing = [f"{rep.name}: {q.label}" for rep in reports
               for q in rep.quantities if not q.passed]
    if failing:
        print("failing checks:", file=sys.stderr)
        for label in failing:
            print(f"  {label}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_figure(args) -> int:
    preset = _FIGURES.get(args.name)
    if preset is None:
        known = ", ".join(sorted(_FIGURES))
        print(f"unknown figure {args.name!r}; known: {known}", file=sys.stderr)
        return EXIT_USAGE
    if args.resolution is not None:
        preset = replace(preset, resolution=args.resolution)
    if args.levels is not None:
        preset = replace(preset, levels=args.levels)
    base = _resolve_outdir(args.outdir if args.outdir is not None
                           else preset.outdir)
    outdir = base / args.name
    outdir.mkdir(parents=True, exist_ok=True)
    return _solve(preset, outdir, args.timings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lglab",
        description="least-gradient laboratory on the weighted unit disk")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list built-in weight fields")

    geo = sub.add_parser("geodesic", help="weighted shortest path")
    geo.add_argument("--weight", default="constant")
    geo.add_argument("--alpha", type=float, default=None)
    geo.add_argument("--layers", default=None,
                     help="depth:weight,... for layered_horizontal")
    geo.add_argument("--from", dest="src", type=_point, required=True,
                     metavar="X,Y")
    geo.add_argument("--to", dest="dst", type=_point, required=True,
                     metavar="X,Y")
    geo.add_argument("--via", type=_via_points, default=None,
                     metavar="X,Y;X,Y",
                     help="score this fixed route instead of shooting")
    geo.add_argument("--outdir", default="out")

    def add_run_flags(p, with_experiments=False):
        p.add_argument("--config", default=None, help="key=value file")
        p.add_argument("--weight", default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--layers", default=None)
        p.add_argument("--resolution", type=int, default=None)
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--switch-level", dest="switch_level", type=float,
                       default=None)
        p.add_argument("--outdir", default=None)
        p.add_argument("--seed", type=int, default=None)
        if with_experiments:
            p.add_argument("--experiments", default=None,
                           help="'all' or comma-joined suite names")

    timings_help = "print the seconds of each stage to stderr"
    solve = sub.add_parser("solve", help="stack level curves into a field")
    add_run_flags(solve)
    solve.add_argument("--timings", action="store_true", help=timings_help)

    verify = sub.add_parser("verify", help="run the experiment suites")
    add_run_flags(verify, with_experiments=True)

    fig = sub.add_parser("figure", help="preset solves by weight name")
    fig.add_argument("name")
    fig.add_argument("--resolution", type=int, default=None)
    fig.add_argument("--levels", type=int, default=None)
    fig.add_argument("--outdir", default=None)
    fig.add_argument("--timings", action="store_true", help=timings_help)

    return parser


_COMMANDS = {
    "catalog": cmd_catalog,
    "geodesic": cmd_geodesic,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "figure": cmd_figure,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, KeyError, OSError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
