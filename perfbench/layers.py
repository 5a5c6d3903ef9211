"""Layer boundaries of lglab and the per-layer metrics read from their spans.

Every wrapper sits under the name the calling module imported, because a
``from .curves import level_curve`` in ``stacker`` keeps its own reference:
wrapping ``lglab.curves.level_curve`` alone would miss the calls the stack
makes.  Attributes the benchmark itself calls through (for example
``lglab.oracle.grid_shortest_path``) are wrapped in their home module.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from statistics import median

from stats import TooFewSamples, tail_percentile
from tracer import Patch, Span, self_times

STACKABLE = (("constant", None), ("heavy_diamond", 2.0), ("heavy_disk", 2.0),
             ("light_diamond", 0.5), ("light_diamond_tight", 0.5),
             ("lite_dmd_heavy_core", None), ("three_heavy_diamonds", 2.0))
SUITES = ("snell", "thresholds", "submodularity", "clearance", "corelite",
          "rectangles")
RAY_FAILURES = ("TraceError", "TotalInternalReflection")


def weight_kind(w) -> str:
    """Catalog name of a weight; constant weights carry their value."""
    return w.name.split("(")[0]


def _weight_attr(args, kwargs):
    return {"weight": weight_kind(args[0] if args else kwargs["w"])}


def _suite_attr(args, kwargs):
    return {"suite": args[0] if args else kwargs["name"]}


def _failed_quantities(args, kwargs, report):
    return {"failed": sum(1 for q in report.quantities if not q.passed)}


def _failed_pairs(args, kwargs, passed):
    return {"failed": int(passed != kwargs.get("trials", 1000))}


def patches() -> list[Patch]:
    """Every wrapped attribute, in the order they are installed."""
    from lglab import (analysis, cli, curves, oracle, paths, shooting,
                       stacker, weights)

    out = []
    for mod in (stacker, analysis, curves):
        out.append(Patch(mod, "level_curve", "curves.level_curve",
                         before=_weight_attr))
    for mod in (curves, stacker, shooting, analysis, cli, paths):
        out.append(Patch(mod, "weighted_length", "paths.weighted_length"))
    out.append(Patch(paths.Polyline, "from_points", "paths.from_points"))
    out.append(Patch(weights.RadialWeight, "profile", "weights.profile"))
    for cls in (weights.ConstantWeight, weights.RadialWeight,
                weights.MultiDiamondWeight, weights.LayeredWeight,
                weights.CustomWeight):
        out.append(Patch(cls, "values", "weights.values"))
    for mod in (cli, analysis):
        out.append(Patch(mod, "stack", "stacker.stack"))
    for fn in ("pgm_text", "svg_text", "curves_csv"):
        out.append(Patch(cli, fn, f"render.{fn}"))
    out.append(Patch(cli, "write_text", "render.write_text",
                     before=lambda a, k: {"bytes": len(a[1])}))
    for mod in (oracle, analysis):
        out.append(Patch(mod, "grid_shortest_path", "oracle.query"))
    out.append(Patch(oracle, "dijkstra", "oracle.dijkstra",
                     before=lambda a, k: {"edges": int(a[0].nnz)}))
    for mod in (cli, analysis, shooting):
        out.append(Patch(mod, "shoot_two_point", "shooting.query"))
    out.append(Patch(shooting, "trace_layered_ray", "tracing.ray"))
    out.append(Patch(cli, "run_suite", "analysis.suite",
                     before=_suite_attr, after=_failed_quantities))
    out.append(Patch(analysis, "submodularity_check", "analysis.suite",
                     before=lambda a, k: {"suite": "submodularity"},
                     after=_failed_pairs))
    out.append(Patch(analysis, "rectangle_submodularity_exhaustive",
                     "analysis.suite",
                     before=lambda a, k: {"suite": "rectangles"},
                     after=_failed_quantities))
    return out


# name -> unit, in report order; BENCHMARK.json lists the same names
METRICS = {
    "curves.level_curve.calls": "count",
    "curves.level_curve.self_s": "s",
    "curves.level_p50_ms": "ms",
    "curves.level_p95_ms": "ms",
    "curves.candidates_per_level": "count",
    **{f"curves.level_curve.s.{name}": "s" for name, _ in STACKABLE},
    "paths.weighted_length.calls": "count",
    "paths.weighted_length.s": "s",
    "paths.from_points.calls": "count",
    "paths.from_points.s": "s",
    "weights.profile.calls": "count",
    "weights.profile.s": "s",
    "weights.values.calls": "count",
    "weights.values.s": "s",
    "stacker.stack.s": "s",
    "stacker.self_s": "s",
    "stacker.bv_energy.s": "s",
    "render.pgm_text.s": "s",
    "render.svg_text.s": "s",
    "render.curves_csv.s": "s",
    "render.write_text.s": "s",
    "render.bytes": "B",
    "oracle.queries": "count",
    "oracle.query.s": "s",
    "oracle.dijkstra.s": "s",
    "oracle.build_s": "s",
    "oracle.edges": "count",
    "shooting.queries": "count",
    "shooting.query.s": "s",
    "shooting.self_s": "s",
    "shooting.candidates": "count",
    "tracing.rays": "count",
    "tracing.ray.s": "s",
    "tracing.failed_ratio": "ratio",
    **{f"analysis.suite_s.{name}": "s" for name in SUITES},
    "analysis.quantities_failed": "count",
    "trace.overhead_ratio": "ratio",
}


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-pass counts and times from the spans of one traced pass.

    Times are inclusive unless named self_s; bv_energy, the level
    percentiles and the overhead ratio are filled in by the caller.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name, self_only=False):
        return sum(selfs[i] if self_only else spans[i].duration
                   for i in by_name[name])

    kids = Counter((s.parent, s.name) for s in spans)

    def child_count(i, name):
        return kids[(i, name)]

    m: dict[str, float] = {}
    levels = by_name["curves.level_curve"]
    m["curves.level_curve.calls"] = len(levels)
    m["curves.level_curve.self_s"] = total("curves.level_curve",
                                           self_only=True)
    scored = [c for c in (child_count(i, "paths.weighted_length")
                          for i in levels) if c]
    m["curves.candidates_per_level"] = (sum(scored) / len(scored)
                                        if scored else 0.0)
    for name, _ in STACKABLE:
        m[f"curves.level_curve.s.{name}"] = sum(
            spans[i].duration for i in levels
            if spans[i].attrs["weight"] == name)
    for name in ("paths.weighted_length", "paths.from_points",
                 "weights.profile", "weights.values"):
        m[f"{name}.calls"] = len(by_name[name])
        m[f"{name}.s"] = total(name)
    m["stacker.stack.s"] = total("stacker.stack")
    m["stacker.self_s"] = total("stacker.stack", self_only=True)
    for fn in ("pgm_text", "svg_text", "curves_csv", "write_text"):
        m[f"render.{fn}.s"] = total(f"render.{fn}")
    m["render.bytes"] = sum(spans[i].attrs["bytes"]
                            for i in by_name["render.write_text"])
    queries = by_name["oracle.query"]
    m["oracle.queries"] = len(queries)
    m["oracle.query.s"] = total("oracle.query")
    m["oracle.dijkstra.s"] = total("oracle.dijkstra")
    m["oracle.build_s"] = m["oracle.query.s"] - m["oracle.dijkstra.s"]
    edges = [spans[i].attrs["edges"] for i in by_name["oracle.dijkstra"]]
    m["oracle.edges"] = sum(edges) / len(edges) if edges else 0.0
    shots = by_name["shooting.query"]
    m["shooting.queries"] = len(shots)
    m["shooting.query.s"] = total("shooting.query")
    m["shooting.self_s"] = total("shooting.query", self_only=True)
    m["shooting.candidates"] = sum(child_count(i, "paths.weighted_length")
                                   for i in shots)
    rays = by_name["tracing.ray"]
    m["tracing.rays"] = len(rays)
    m["tracing.ray.s"] = total("tracing.ray")
    failed = sum(1 for i in rays if spans[i].error in RAY_FAILURES)
    m["tracing.failed_ratio"] = failed / len(rays) if rays else 0.0
    top_suites = [i for i in by_name["analysis.suite"]
                  if spans[i].parent is None
                  or spans[spans[i].parent].name != "analysis.suite"]
    for name in SUITES:
        m[f"analysis.suite_s.{name}"] = sum(
            spans[i].duration for i in top_suites
            if spans[i].attrs["suite"] == name)
    m["analysis.quantities_failed"] = sum(spans[i].attrs.get("failed", 0)
                                          for i in top_suites)
    return m


def level_percentiles(spans: list[Span]) -> dict[str, float | None]:
    """Median and p95 level-curve latency in ms; None where refused."""
    ms = [1e3 * s.duration for s in spans if s.name == "curves.level_curve"]
    out: dict[str, float | None] = {"curves.level_p50_ms":
                                    median(ms) if ms else None}
    try:
        out["curves.level_p95_ms"] = tail_percentile(ms, 95.0)
    except TooFewSamples:
        out["curves.level_p95_ms"] = None
    return out


def combine(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-pass metric over the traced passes."""
    return {k: median([p[k] for p in per_pass]) for k in per_pass[0]}
