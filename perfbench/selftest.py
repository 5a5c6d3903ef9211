"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's default test collection;
these tests check the benchmark, not lglab.
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from stats import TooFewSamples, tail_percentile  # noqa: E402
from tracer import Patched, Span, Tracer, self_times  # noqa: E402
from workloads import Job  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(1, 101), 90.0) == 90
    with pytest.raises(TooFewSamples):
        tail_percentile(range(1, 100), 90.0)
    assert tail_percentile(range(20), 50.0) == 9
    with pytest.raises(TooFewSamples):
        tail_percentile(range(19), 50.0)
    with pytest.raises(TooFewSamples):
        tail_percentile([], 95.0)


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        Span("root", 0.0, 10.0, None, "j"),
        Span("a", 1.0, 5.0, 0, "j"),
        Span("a.inner", 3.0, 4.0, 1, "j"),
        Span("b", 2.0, 3.5, 0, "j"),      # overlaps a
        Span("c", 8.0, 12.0, 0, "j"),     # runs past its parent
        Span("d", 6.0, 6.5, 0, "j"),
    ]
    selfs = self_times(spans)
    # covered by children: [1, 5] + [6, 6.5] + [8, 10] = 6.5
    assert selfs[0] == pytest.approx(3.5)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2:] == pytest.approx([1.0, 1.5, 4.0, 0.5])


def test_stacker_self_time_is_stack_minus_level_curves():
    spans = [
        Span("stacker.stack", 0.0, 4.0, None, "j"),
        Span("curves.level_curve", 0.5, 1.5, 0, "j", {"weight": "constant"}),
        Span("paths.weighted_length", 0.6, 0.9, 1, "j"),
        Span("curves.level_curve", 2.0, 2.5, 0, "j", {"weight": "heavy_disk"}),
    ]
    m = layers.pass_metrics(spans)
    assert m["stacker.stack.s"] == pytest.approx(4.0)
    assert m["stacker.self_s"] == pytest.approx(2.5)
    assert m["curves.level_curve.self_s"] == pytest.approx(0.7 + 0.5)
    assert m["curves.candidates_per_level"] == 1.0
    assert m["curves.level_curve.s.heavy_disk"] == pytest.approx(0.5)


class _TinyWorkload:
    """Cheap CLI and library calls that cross several layer boundaries."""

    def __init__(self, outdir):
        self.outdir = outdir

    def jobs(self, k):
        from lglab import cli, curves, weights

        w = weights.make_weight("light_diamond", 0.5)
        argv = ["figure", "heavy_disk", "--resolution", "32", "--levels",
                "17", "--outdir", str(self.outdir / f"pass{k}")]
        return [Job("figure", lambda: cli.main(argv),
                    lambda rc: None if rc == 0 else f"exit {rc}"),
                Job("curve", lambda: curves.level_curve(w, 0.7),
                    lambda lc: None)]


def test_traced_run_restores_every_patched_attribute(tmp_path):
    originals = [(p.owner, p.attr, vars(p.owner)[p.attr])
                 for p in layers.patches()]
    passes, jobs = worker.run_passes(_TinyWorkload(tmp_path), 0.0, True)
    assert [p["traced"] for p in passes] == [False, True]
    assert all(j["reason"] is None for j in jobs)
    names = {s.name for s in passes[1]["spans"]}
    assert {"stacker.stack", "curves.level_curve", "render.pgm_text",
            "render.write_text", "paths.from_points"} <= names
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr}"


def test_patches_are_restored_when_the_body_raises():
    originals = [(p.owner, p.attr, vars(p.owner)[p.attr])
                 for p in layers.patches()]
    with pytest.raises(RuntimeError):
        with Patched(Tracer(), layers.patches()):
            raise RuntimeError("boom")
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == layers.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
