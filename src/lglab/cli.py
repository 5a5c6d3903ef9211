"""Command-line front end.

Subcommands:
  catalog   list the built-in weight fields
  geodesic  two-point weighted shortest path, or the cost of a given route
  solve     build a solution stack and emit PGM / SVG / CSV artifacts
  verify    run the numerical experiment suites and write report.csv
  figure    preset solves keyed by catalog weight name

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 solver
failure.  The LGL_OUT environment variable overrides any configured
output directory.  solve, figure, geodesic and verify take --timings: the
seconds of each stage (tables, stack or shoot, rendering, write) or suite
go to stderr only, so stdout and the artifacts stay byte-identical.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .analysis import _suite_names, run_suite
from .config import RunConfig, load_config, parse_layers, serialize_config
from .curves import sweep_tables
from .paths import Polyline, weighted_length
from .render import (curves_csv, geodesic_csv, pgm_text, report_csv,
                     svg_text, write_text)
from .shooting import shoot_two_point
from .snell import SolverError
from .stacker import SwitchPolicy, midpoint_levels, stack
from .weights import (STACKABLE, catalog_describe, catalog_names,
                      make_weight)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

_SOLVER_ERRORS = (SolverError, NotImplementedError)

_FIGURES = {name: RunConfig(weight=name, alpha=alpha)
            for name, alpha in STACKABLE}
_FIGURES.update({f"{name}_maximal": replace(_FIGURES[name], switch_level=2.0)
                 for name in ("lite_dmd_heavy_core", "three_heavy_diamonds")})


def _point(text: str) -> tuple[float, float]:
    try:
        xs, ys = text.split(",")
        return float(xs), float(ys)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected x,y, got {text!r}")


def _via_points(text: str) -> tuple[tuple[float, float], ...]:
    return tuple(_point(part) for part in text.split(";") if part.strip())


def _resolve_outdir(configured: str, *sub: str) -> Path:
    """LGL_OUT or the configured directory, joined with sub, which write_text
    makes; ValueError if the nearest existing part of it is no directory."""
    path = Path(os.environ.get("LGL_OUT", "").strip() or configured, *sub)
    found = next(p for p in (path, *path.parents) if p.exists())
    if not found.is_dir():
        raise ValueError(f"output directory {str(path)!r} cannot be made: "
                         f"{str(found)!r} is not a directory")
    return path


def _build_weight(cfg: RunConfig):
    return make_weight(cfg.weight, cfg.alpha, layers=parse_layers(cfg.layers))


def _merge_config(args) -> RunConfig:
    """The config file, or the defaults, overridden by the flags given."""
    cfg = load_config(args.config) if args.config else RunConfig()
    return replace(cfg, **{f.name: getattr(args, f.name) for f in fields(cfg)
                           if getattr(args, f.name, None) is not None})


def _stopwatch(*stages):
    """Seconds per stage, and timed(stage, fn, *args, **kwargs), which
    returns fn(*args, **kwargs) and adds the seconds it took to stage."""
    seconds = dict.fromkeys(stages, 0.0)

    def timed(stage, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds[stage] += time.perf_counter() - start
        return result

    return seconds, timed


def _print_timings(seconds) -> None:
    print("timings: " + " ".join(f"{stage}={t:.4f}s"
                                 for stage, t in seconds.items()),
          file=sys.stderr)


def _solve(cfg: RunConfig, outdir: Path, timings: bool = False) -> int:
    """Stack cfg's level curves and write the four artifacts to outdir.

    With timings, the seconds of each stage go to stderr.
    """
    seconds, timed = _stopwatch("tables", "stack", "pgm", "svg", "csv",
                                "write")
    w = _build_weight(cfg)
    timed("tables", sweep_tables, w)
    s = timed("stack", stack, w, levels=midpoint_levels(cfg.levels),
              policy=SwitchPolicy(cfg.switch_level), res=cfg.resolution)
    timed("write", write_text, outdir / "solution.pgm",
          timed("pgm", pgm_text, s.field))
    timed("write", write_text, outdir / "contours.svg",
          timed("svg", svg_text, s))
    timed("write", write_text, outdir / "curves.csv",
          timed("csv", curves_csv, s))
    timed("write", write_text, outdir / "run.cfg", serialize_config(cfg))
    for name in ("solution.pgm", "contours.svg", "curves.csv", "run.cfg"):
        print(outdir / name)
    if timings:
        _print_timings(seconds)
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
    outdir = _resolve_outdir(cfg.outdir)
    w = _build_weight(cfg)
    seconds, timed = _stopwatch("shoot", "write")
    if args.via is not None:
        path = Polyline((args.src, *args.via, args.dst))
        length = timed("shoot", weighted_length, path, w)
    else:
        path, length = timed("shoot", shoot_two_point, w, args.src, args.dst)
    timed("write", write_text, outdir / "geodesic.csv", geodesic_csv(path))
    print(outdir / "geodesic.csv")
    print(f"length={length:.17g}")
    if args.timings:
        _print_timings(seconds)
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _merge_config(args)
    return _solve(cfg, _resolve_outdir(cfg.outdir), args.timings)


def cmd_verify(args) -> int:
    cfg = _merge_config(args)
    outdir = _resolve_outdir(cfg.outdir)
    names = _suite_names(cfg.experiments)
    seconds, timed = _stopwatch(*names)
    reports = [timed(name, lambda: run_suite(name, seed=cfg.seed))
               for name in names]
    for rep in reports:
        for line in rep.lines():
            print(line)
    write_text(outdir / "report.csv", report_csv(reports))
    print(outdir / "report.csv")
    if args.timings:
        _print_timings(seconds)
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
    outdir = _resolve_outdir(args.outdir if args.outdir is not None
                             else preset.outdir, args.name)
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
    timings_help = "print the seconds of each stage to stderr"
    geo.add_argument("--timings", action="store_true", help=timings_help)

    solve = sub.add_parser("solve", help="stack level curves into a field")
    solve.add_argument("--config", default=None, help="key=value file")
    solve.add_argument("--weight", default=None)
    solve.add_argument("--alpha", type=float, default=None)
    solve.add_argument("--layers", default=None)
    solve.add_argument("--resolution", type=int, default=None)
    solve.add_argument("--levels", type=int, default=None)
    solve.add_argument("--switch-level", dest="switch_level", type=float,
                       default=None)
    solve.add_argument("--outdir", default=None)
    solve.add_argument("--timings", action="store_true", help=timings_help)

    verify = sub.add_parser("verify", help="run the experiment suites")
    verify.add_argument("--config", default=None, help="key=value file")
    verify.add_argument("--experiments", default=None,
                        help="'all' or comma-joined suite names")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--outdir", default=None)
    verify.add_argument("--timings", action="store_true", help=timings_help)

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
