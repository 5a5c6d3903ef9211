"""Command-line behaviour: artifacts, determinism, exit codes."""
import numpy as np
import pytest

import lglab.cli as cli
from lglab import curves, stacker
from lglab.curves import LevelCurve, level_curve
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
    code, out, _ = run(["geodesic", "--weight", "constant",
                        "--from", "0,0", "--to", "0.6,0.8",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("length=")][0]
    assert float(line.split("=")[1]) == pytest.approx(1.0, abs=1e-12)
    assert (tmp_path / "geodesic.csv").exists()


def test_geodesic_via_scores_given_route(tmp_path, capsys):
    code, out, _ = run(["geodesic", "--weight", "constant",
                        "--from", "0,0", "--to", "1,0", "--via", "0.5,0.5",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("length=")][0]
    assert float(line.split("=")[1]) == pytest.approx(2 ** 0.5, abs=1e-12)


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


def test_solver_failures_exit_3(tmp_path, capsys):
    code, _, err = run(["solve", "--weight", "layered_horizontal",
                        "--layers", "0.3:2.0", "--resolution", "64",
                        "--levels", "33", "--outdir", str(tmp_path)], capsys)
    assert code == 3 and "solver failure" in err


def test_verify_exit_codes(tmp_path, capsys, monkeypatch):
    code, out, _ = run(["verify", "--experiments", "clearance",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert "[PASS] clearance" in out
    assert (tmp_path / "report.csv").exists()

    from lglab.analysis import ExperimentReport, Quantity

    def fake(name, seed=0):
        return ExperimentReport(name, (Quantity("rigged", 9.0, 0.0, 1e-9),))

    monkeypatch.setattr(cli, "run_suite", fake)
    code, out, err = run(["verify", "--experiments", "clearance",
                          "--outdir", str(tmp_path)], capsys)
    assert code == 1
    assert "[FAIL]" in out
    assert "rigged" in err


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
    code, timed_out, timed_err = run(argv + ["--timings"], capsys)
    assert code == 0
    assert timed_out == out
    assert [(folder / name).read_bytes() for name in ARTIFACTS] == data
    stages = [part.split("=")[0] for part in timed_err.split()[1:]]
    assert timed_err.startswith("timings: ") and timed_err.count("\n") == 1
    assert stages == ["stack", "pgm", "svg", "csv", "write"]
    assert all(float(part.split("=")[1].rstrip("s")) >= 0.0
               for part in timed_err.split()[1:])


@pytest.fixture
def sagging_glide(monkeypatch):
    """Every inward glide sags, so the core's inner-arc bracket fails."""
    curves._core_geometry.cache_clear()
    monkeypatch.setattr(curves, "_glide_in",
                        lambda w, a, n_shells=curves.SWEEP_SHELLS:
                        ("sag", None, np.empty((0, 2))))
    yield
    curves._core_geometry.cache_clear()


def test_core_bracket_failure_exits_3(sagging_glide, tmp_path, capsys):
    # a typed error, not an assert, so it also holds under python -O
    with pytest.raises(SolverError, match="inner-arc bracket"):
        level_curve(make_weight("lite_dmd_heavy_core"), 0.5)
    code, _, err = run(["solve", "--weight", "lite_dmd_heavy_core",
                        "--resolution", "32", "--levels", "16",
                        "--outdir", str(tmp_path)], capsys)
    assert code == 3 and "inner-arc bracket" in err


def test_nesting_violation_exits_3(monkeypatch, tmp_path, capsys):
    # each level curve mirrored in y falls as the level rises, so
    # neighbouring curves cross; a typed error, not an assert
    def falling(w, t, branch, **kwargs):
        lc = level_curve(w, t, branch, **kwargs)
        return LevelCurve(t, branch, lc.path.mirrored_y())

    monkeypatch.setattr(stacker, "level_curve", falling)
    code, _, err = run(["solve", "--weight", "constant", "--resolution", "32",
                        "--levels", "16", "--outdir", str(tmp_path)], capsys)
    assert code == 3 and "cross by" in err
