"""Command-line behaviour: artifacts, determinism, exit codes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lglab.cli as cli
from lglab import analysis, curves, stacker
from lglab.analysis import SUITES, ExperimentReport, Quantity
from lglab.curves import LevelCurve, level_curve
from lglab.paths import Polyline
from lglab.snell import SolverError
from lglab.weights import make_weight


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_catalog_stable(capsys):
    code1, out1, _ = run(["catalog"], capsys)
    code2, out2, _ = run(["catalog"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "heavy_diamond" in out1


def test_geodesic_prints_length(tmp_path, capsys):
    # a missing output directory and its parents are made on writing
    outdir = tmp_path / "geo" / "sub"
    code, out, _ = run(["geodesic", "--weight", "constant",
                        "--from", "0,0", "--to", "0.6,0.8",
                        "--outdir", str(outdir)], capsys)
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("length=")][0]
    assert float(line.split("=")[1]) == pytest.approx(1.0, abs=1e-12)
    assert (outdir / "geodesic.csv").exists()


def test_geodesic_via_scores_given_route(tmp_path, capsys):
    code, out, _ = run(["geodesic", "--weight", "constant",
                        "--from", "0,0", "--to", "1,0", "--via", "0.5,0.5",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("length=")][0]
    assert float(line.split("=")[1]) == pytest.approx(2 ** 0.5, abs=1e-12)


@pytest.mark.parametrize("a, b", [("0,0", "0.5,0.5"), ("0,0", "-0.3,0.8")])
def test_geodesic_from_the_disk_centre_costs_the_same_both_ways(
        a, b, tmp_path, capsys):
    # an l2 shot may start at the centre, where every direction is outward
    lines = []
    for p, q in ((a, b), (b, a)):
        code, out, _ = run(["geodesic", "--weight", "heavy_disk", "--alpha",
                            "2", f"--from={p}", f"--to={q}",
                            "--outdir", str(tmp_path)], capsys)
        assert code == 0
        lines += [l for l in out.splitlines() if l.startswith("length=")]
    assert len(lines) == 2 and lines[0] == lines[1]


@pytest.mark.parametrize("via", ["", ";"])
def test_geodesic_via_without_points_scores_the_segment(via, tmp_path,
                                                        capsys, monkeypatch):
    def no_shot(*args):
        raise AssertionError("shot instead of scoring the given route")

    monkeypatch.setattr(cli, "shoot_two_point", no_shot)
    code, out, _ = run(["geodesic", "--weight", "heavy_diamond",
                        "--alpha", "2", "--from=-1,0", "--to", "1,0",
                        "--via", via, "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert "length=3\n" in out


def test_solve_is_byte_deterministic(tmp_path, capsys, monkeypatch):
    # identical config both times; only the physical destination differs
    for sub in ("a", "b"):
        monkeypatch.setenv("LGL_OUT", str(tmp_path / sub))
        code, _, _ = run(["solve", "--weight", "heavy_diamond", "--alpha", "2",
                          "--resolution", "64", "--levels", "33"], capsys)
        assert code == 0
    for name in ("solution.pgm", "contours.svg", "curves.csv", "run.cfg"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_solve_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("weight = constant\nresolution = 48\nlevels = 33\n"
                   f"outdir = {tmp_path / 'out'}\n", encoding="utf-8")
    code, out, _ = run(["solve", "--config", str(cfg)], capsys)
    assert code == 0
    assert (tmp_path / "out" / "solution.pgm").exists()


def test_run_cfg_records_the_seed_of_the_file_or_the_default(tmp_path,
                                                             capsys):
    # solve takes no --seed, but run.cfg keeps the shared file format whole
    cfg = tmp_path / "in.cfg"
    cfg.write_text("weight = constant\nresolution = 32\nlevels = 16\n"
                   "seed = 7\n", encoding="utf-8")
    for argv, seed in ((["--config", str(cfg)], 7), ([], 0)):
        out = tmp_path / f"seed{seed}"
        code, _, _ = run(["solve", *argv, "--weight", "constant",
                          "--resolution", "32", "--levels", "16",
                          "--outdir", str(out)], capsys)
        assert code == 0
        assert f"seed = {seed}\n" in (out / "run.cfg").read_text()


def test_env_var_overrides_outdir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LGL_OUT", str(tmp_path / "env"))
    code, _, _ = run(["solve", "--weight", "constant", "--resolution", "48",
                      "--levels", "33", "--outdir", str(tmp_path / "flag")],
                     capsys)
    assert code == 0
    assert (tmp_path / "env" / "solution.pgm").exists()
    assert not (tmp_path / "flag").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _, err = run(["solve", "--weight", "nosuch",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 2 and "unknown weight" in err
    code, _, err = run(["solve", "--resolution", "9",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 2 and "resolution" in err
    code, _, err = run(["figure", "nope", "--outdir", str(tmp_path)], capsys)
    assert code == 2 and "unknown figure" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--weight", "heavy_diamond"],
    ["verify", "--resolution", "64"],
    ["solve", "--seed", "3"],
    ["solve", "--experiments", "snell"]], ids=" ".join)
def test_flags_a_command_does_not_read_exit_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_a_malformed_point_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["geodesic", "--from=abc", "--to=0,0",
                  "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "expected x,y, got 'abc'" in capsys.readouterr().err


def test_solver_failures_exit_3(tmp_path, capsys):
    # the output directory is made only when a file is written
    code, _, err = run(["solve", "--weight", "layered_horizontal",
                        "--layers", "0.3:2.0", "--resolution", "64",
                        "--levels", "33", "--outdir",
                        str(tmp_path / "cdir" / "sub")], capsys)
    assert code == 3 and "solver failure" in err
    assert not any(tmp_path.iterdir())


def test_a_core_level_between_the_sweep_families_solves(tmp_path, capsys):
    # the 832-level grid puts levels inside the core's gap between its band
    # and apex families, where the chord would cross its neighbours
    code, _, err = run(["solve", "--weight", "lite_dmd_heavy_core",
                        "--levels", "832", "--resolution", "32",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 0, err


def test_verify_exit_codes(tmp_path, capsys, monkeypatch):
    code, out, _ = run(["verify", "--experiments", "clearance",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert "[PASS] clearance" in out
    assert (tmp_path / "report.csv").exists()

    def fake(name, seed=0):
        return ExperimentReport(name, (Quantity("rigged", 9.0, 0.0, 1e-9),))

    monkeypatch.setattr(cli, "run_suite", fake)
    code, out, err = run(["verify", "--experiments", "clearance",
                          "--outdir", str(tmp_path)], capsys)
    assert code == 1
    assert "[FAIL]" in out
    assert "rigged" in err


def test_a_drifting_snell_chain_fails_verify(tmp_path, capsys, monkeypatch):
    # the snell suite's first trial refracts twice between its two end
    # weights, then enters the chain: its third refraction is the chain's
    # first interface, whose angle every later interface inherits
    refract, calls = analysis.snell_refract, []

    def drifting(w_in, w_out, theta_in):
        calls.append(None)
        return refract(w_in, w_out, theta_in) + (1e-9 if len(calls) == 3
                                                 else 0.0)

    monkeypatch.setattr(analysis, "snell_refract", drifting)
    code, out, _ = run(["verify", "--experiments", "snell",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 1
    assert "[FAIL] snell: chain collapse worst error" in out
    assert "[PASS] snell: reciprocity worst error" in out


def _recording_suites(monkeypatch):
    calls = []

    def fake(name, seed=0):
        calls.append(name)
        return ExperimentReport(name, (Quantity("probe", 0.0, 0.0, 0.0),))

    monkeypatch.setattr(cli, "run_suite", fake)
    return calls


@pytest.mark.parametrize("experiments", ["snell,all", "snell,snell"])
def test_verify_rejects_a_bad_suite_list_before_any_suite_runs(
        experiments, tmp_path, capsys, monkeypatch):
    calls = _recording_suites(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"experiments = {experiments}\n", encoding="utf-8")
    for argv in (["--experiments", experiments], ["--config", str(cfg)]):
        code, _, err = run(["verify", *argv, "--outdir", str(tmp_path)],
                           capsys)
        assert code == 2 and "unknown experiment" in err
    assert calls == []
    assert not (tmp_path / "report.csv").exists()


def test_verify_all_runs_every_suite_in_name_order(tmp_path, capsys,
                                                   monkeypatch):
    calls = _recording_suites(monkeypatch)
    code, out, _ = run(["verify", "--experiments", "all",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert calls == sorted(SUITES)
    assert out.splitlines() == [
        *(f"[PASS] {name}: probe = 0 (expected 0 +/- 0 abs)"
          for name in sorted(SUITES)), str(tmp_path / "report.csv")]


@pytest.mark.parametrize("argv, message", [
    (["solve", "--weight", "heavy_diamond", "--resolution", "32",
      "--levels", "16"], "alpha > 1"),
    (["geodesic", "--weight", "heavy_disk", "--from=-0.5,0.3",
      "--to=0.6,-0.2"], "alpha >= pi/2")], ids=["solve", "geodesic"])
def test_nan_alpha_exits_2_with_the_range_message(argv, message, tmp_path,
                                                  capsys):
    code, out, err = run([*argv, "--alpha", "nan", "--outdir", str(tmp_path)],
                         capsys)
    assert code == 2 and message in err
    assert "length=" not in out
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["geodesic", "--weight", "heavy_disk", "--alpha", "2", "--layers",
      "0.2:1.0", "--from=-0.5,0.3", "--to=0.6,-0.2"], "take layers"),
    (["solve", "--weight", "heavy_diamond", "--alpha", "2", "--layers",
      "0.3:2", "--resolution", "32", "--levels", "16"], "take layers"),
    (["solve", "--weight", "layered_horizontal", "--layers", "0.3:2",
      "--alpha", "2", "--resolution", "32", "--levels", "16"],
     "take alpha")], ids=["geodesic", "solve", "layered"])
def test_a_parameter_the_weight_does_not_take_exits_2(argv, message,
                                                      tmp_path, capsys):
    code, out, err = run([*argv, "--outdir", str(tmp_path / "cdir" / "sub")],
                         capsys)
    assert code == 2 and message in err
    assert "length=" not in out
    assert not any(tmp_path.iterdir())


def test_a_failed_figure_leaves_no_output_directory(tmp_path, capsys,
                                                    monkeypatch):
    def failing(*args, **kwargs):
        raise SolverError("rigged stack failure")

    monkeypatch.setattr(cli, "stack", failing)
    code, _, err = run(["figure", "heavy_diamond", "--resolution", "32",
                        "--levels", "16", "--outdir",
                        str(tmp_path / "cdir")], capsys)
    assert code == 3 and "rigged stack failure" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, spied, outdir", [
    (["solve", "--weight", "constant", "--resolution", "32", "--levels",
      "16"], "stack", "afile"),
    (["figure", "constant", "--resolution", "32", "--levels", "16"], "stack",
     "afile"),
    (["figure", "constant", "--resolution", "32", "--levels", "16"], "stack",
     "."),
    (["verify", "--experiments", "corelite"], "run_suite", "afile/sub"),
    (["geodesic", "--from=-0.5,0.3", "--to=0.6,-0.2"], "shoot_two_point",
     "afile")], ids=["solve", "figure", "figure-subdir", "verify", "geodesic"])
def test_an_output_path_through_a_file_exits_2_before_any_work(
        argv, spied, outdir, tmp_path, capsys, monkeypatch):
    # the figure's own subdirectory, tmp_path/constant, is the file there
    afile = tmp_path / ("constant" if outdir == "." else "afile")
    afile.write_text("kept\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, spied, lambda *a, **k: calls.append(a))
    code, out, err = run([*argv, "--outdir", str(tmp_path / outdir)], capsys)
    assert code == 2 and f"{str(afile)!r} is not a directory" in err
    assert calls == [] and out == ""
    assert list(tmp_path.iterdir()) == [afile]
    assert afile.read_text(encoding="utf-8") == "kept\n"


def test_figure_writes_named_subdir(tmp_path, capsys):
    code, _, _ = run(["figure", "heavy_diamond", "--resolution", "64",
                      "--levels", "33", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "heavy_diamond" / "contours.svg").exists()


ARTIFACTS = ("solution.pgm", "contours.svg", "curves.csv", "run.cfg")


@pytest.mark.parametrize("argv", [
    ["figure", "lite_dmd_heavy_core", "--resolution", "32", "--levels", "17"],
    ["solve", "--weight", "heavy_disk", "--alpha", "2", "--resolution", "32",
     "--levels", "17"]], ids=lambda argv: argv[0])
def test_timings_go_to_stderr_only(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LGL_OUT", str(tmp_path))
    folder = tmp_path / argv[1] if argv[0] == "figure" else tmp_path
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    data = [(folder / name).read_bytes() for name in ARTIFACTS]
    # cold sweep tables: the core's are built in their own stage
    curves.sweep_tables.cache_clear()
    code, timed_out, timed_err = run(argv + ["--timings"], capsys)
    assert code == 0
    assert timed_out == out
    assert [(folder / name).read_bytes() for name in ARTIFACTS] == data
    assert timed_err.startswith("timings: ") and timed_err.count("\n") == 1
    seconds = {stage: float(t.rstrip("s")) for stage, t in
               (part.split("=") for part in timed_err.split()[1:])}
    assert list(seconds) == ["tables", "stack", "pgm", "svg", "csv", "write"]
    assert all(t >= 0.0 for t in seconds.values())
    if argv[0] == "figure":
        assert seconds["tables"] > 0.0


@pytest.mark.parametrize("route", [[], ["--via", "0.1,-0.6"]],
                         ids=["shot", "via"])
def test_geodesic_timings_go_to_stderr_only(route, tmp_path, capsys):
    argv = ["geodesic", "--weight", "layered_horizontal", "--layers",
            "0.2:1.0,0.5:2.0,0.8:1.5", "--from=-0.4,0.3", "--to=0.5,-0.7",
            *route, "--outdir", str(tmp_path)]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    data = (tmp_path / "geodesic.csv").read_bytes()
    code, timed_out, timed_err = run(argv + ["--timings"], capsys)
    assert code == 0
    assert timed_out == out
    assert (tmp_path / "geodesic.csv").read_bytes() == data
    parts = timed_err.split()[1:]
    assert timed_err.startswith("timings: ") and timed_err.count("\n") == 1
    assert [part.split("=")[0] for part in parts] == ["shoot", "write"]
    assert all(float(part.split("=")[1].rstrip("s")) >= 0.0
               for part in parts)


@pytest.fixture
def reflecting_glide(monkeypatch):
    """Every sweep reflects, so the core's inner-arc bracket fails."""
    def reflect(*args):
        raise ValueError("sweep hit total internal reflection")

    curves.sweep_tables.cache_clear()
    monkeypatch.setattr(curves, "_sweep", reflect)
    yield
    curves.sweep_tables.cache_clear()


def test_core_bracket_failure_exits_3(reflecting_glide, tmp_path, capsys):
    # a typed error, not an assert, so it also holds under python -O
    with pytest.raises(SolverError, match="inner-arc bracket"):
        level_curve(make_weight("lite_dmd_heavy_core"), 0.5)
    code, _, err = run(["solve", "--weight", "lite_dmd_heavy_core",
                        "--resolution", "32", "--levels", "16",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 3 and "inner-arc bracket" in err


def test_level_curve_that_is_no_graph_exits_3(monkeypatch, tmp_path, capsys):
    # a constructed route that doubles back in x is the solver's failure,
    # not a usage error
    def zig_zag(w, paths, branch):
        (xa, h), (xb, _) = paths[0].as_array().tolist()  # the chord
        return Polyline(((xa, h), (0.2, h), (-0.2, h), (xb, h)))

    monkeypatch.setattr(curves, "_pick", zig_zag)
    code, _, err = run(["solve", "--weight", "constant", "--resolution", "32",
                        "--levels", "16", "--outdir", str(tmp_path)], capsys)
    assert code == 3
    assert err.startswith("solver failure") and "not a graph in x" in err


def test_nesting_violation_exits_3(monkeypatch, tmp_path, capsys):
    # each level curve mirrored in y falls as the level rises, so
    # neighbouring curves cross; a typed error, not an assert
    def falling(w, t, branch, **kwargs):
        lc = level_curve(w, t, branch, **kwargs)
        return LevelCurve(t, branch, Polyline(lc.path.as_array()
                                              * (1.0, -1.0)))

    monkeypatch.setattr(stacker, "level_curve", falling)
    code, _, err = run(["solve", "--weight", "constant", "--resolution", "32",
                        "--levels", "16", "--outdir", str(tmp_path)], capsys)
    assert code == 3 and "cross by" in err


def test_verify_timings_go_to_stderr_only(tmp_path, capsys):
    argv = ["verify", "--experiments", "thresholds,clearance",
            "--outdir", str(tmp_path)]
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    data = (tmp_path / "report.csv").read_bytes()
    code, timed_out, timed_err = run(argv + ["--timings"], capsys)
    assert code == 0
    assert timed_out == out
    assert (tmp_path / "report.csv").read_bytes() == data
    parts = timed_err.split()[1:]
    assert timed_err.startswith("timings: ") and timed_err.count("\n") == 1
    assert [part.split("=")[0] for part in parts] == ["thresholds",
                                                      "clearance"]
    assert all(float(part.split("=")[1].rstrip("s")) > 0.0 for part in parts)


def test_python_m_lglab_runs_the_cli(capsys):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-m", "lglab", "catalog"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(["catalog"], capsys)[1]
