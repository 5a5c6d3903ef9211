"""Artifact writers must be format-correct and byte-stable."""
import hashlib

import numpy as np
import pytest

import lglab.cli as cli
from lglab import render
from lglab.analysis import ExperimentReport, Quantity
from lglab.paths import Polyline
from lglab.render import (curves_csv, geodesic_csv, pgm_text, report_csv,
                          svg_text)
from lglab.stacker import GridField, midpoint_levels, stack
from lglab.weights import make_weight


@pytest.fixture(scope="module")
def small_stack():
    return stack(make_weight("heavy_diamond", 2.0),
                 levels=midpoint_levels(81), res=64)


def test_pgm_layout(small_stack):
    text = pgm_text(small_stack.field)
    lines = text.splitlines()
    assert lines[:3] == ["P2", "129 129", "65535"]
    assert len(lines) == 3 + 129
    grid = np.array([line.split() for line in lines[3:]], dtype=int)
    assert grid.min() >= 0 and grid.max() <= 65535
    # first row is y = +1 where the data equals 2
    assert grid[0, 0] == 65535 and grid[-1, 0] == 0
    assert text.endswith("\n")


def test_svg_structure(small_stack):
    svg = svg_text(small_stack)
    assert svg.startswith('<?xml version="1.0"')
    assert 'viewBox="-1.05 -1.05 2.1 2.1"' in svg
    assert svg.count('transform="scale(1,-1)"') == 1
    assert svg.count("<path ") == 41
    assert "stroke=\"#" in svg
    with pytest.raises(ValueError):
        svg_text(small_stack, max_curves=0)


def test_curves_csv_format(small_stack):
    text = curves_csv(small_stack, stride=20)
    lines = text.splitlines()
    assert lines[0] == "level,x,y"
    level, x, y = lines[1].split(",")
    float(level), float(x), float(y)
    with pytest.raises(ValueError):
        curves_csv(small_stack, stride=0)


def test_geodesic_csv_blank_level():
    text = geodesic_csv(Polyline(((0.0, -1.0), (0.5, 0.25))))
    assert text.splitlines()[1] == ",0,-1"
    tagged = geodesic_csv(Polyline(((0.0, -1.0), (0.5, 0.25))), level=1.25)
    assert tagged.splitlines()[2] == "1.25,0.5,0.25"


def test_report_csv_truth_column():
    rep = ExperimentReport("demo", (
        Quantity("fine", 1.0, 1.0, 1e-9),
        Quantity("broken", 9.9, 1.0, 1e-9),
    ))
    lines = report_csv([rep]).splitlines()
    assert lines[0] == "label,value,expected,tolerance,pass"
    assert lines[1].endswith("true")
    assert lines[2].endswith("false")


def test_renderers_are_deterministic(small_stack):
    assert pgm_text(small_stack.field) == pgm_text(small_stack.field)
    assert svg_text(small_stack) == svg_text(small_stack)
    assert curves_csv(small_stack) == curves_csv(small_stack)


def _reference_pgm(values) -> str:
    """The P2 encoder as one str() per pixel: the reference for pgm_text."""
    scaled = np.rint(np.clip(values, 0.0, 2.0) * (65535.0 / 2.0))
    pixels = scaled.astype(np.int64)[::-1]
    lines = ["P2", f"{pixels.shape[1]} {pixels.shape[0]}", "65535"]
    lines.extend(" ".join(map(str, row)) for row in pixels)
    return "\n".join(lines) + "\n"


def test_pgm_matches_reference_on_every_code():
    codes = np.arange(65536).reshape(256, 256)
    values = codes * (2.0 / 65535.0)
    text = pgm_text(GridField(0, values))
    assert text == _reference_pgm(values)
    got = np.array(text.split()[4:], dtype=int).reshape(256, 256)
    assert np.array_equal(got[::-1], codes)


def test_pgm_matches_reference_outside_the_data_range():
    rng = np.random.default_rng(5)
    values = rng.uniform(-3.0, 5.0, (37, 41))
    values[0, :6] = [0.0, -0.0, 2.0, -1e-300, 2.0 + 1e-15, 1e300]
    assert pgm_text(GridField(0, values)) == _reference_pgm(values)


@pytest.mark.parametrize("shape", [
    (4, 1), (1, 1), (5, 2), (50, 1000),
    (3, render._BLOCK - 1), (2, render._BLOCK), (3, render._BLOCK + 1),
    (5, render._BLOCK // 2 + 1)])
def test_pgm_matches_reference_across_widths(shape):
    rng = np.random.default_rng(shape[1])
    values = rng.uniform(-0.1, 2.1, shape)
    values[:, ::3] = 0.0
    assert pgm_text(GridField(0, values)) == _reference_pgm(values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_rejects_non_finite_fields(bad):
    values = np.ones((9, 9))
    values[7, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        pgm_text(GridField(4, values))


# sha256 of the figure artifacts at res 64 and 21 levels, as written before
# the array encoders and the one-count fill replaced the per-pixel ones
_FIGURE_SHA256 = {
    "heavy_diamond": {
        "solution.pgm": "a2ca0e3fd0ff03b47c3cff83f1202d09"
                        "115ae00ee2a48ff72b2244fac4a01482",
        "contours.svg": "a3d3d82eb24f55f365f14a5247ca6f70"
                        "f887001e71b2814ed89dfe25f51038dc",
        "curves.csv": "a3ad87b45bba8c1663d80152dccd15c0"
                      "0a544438aeb45439304a9ff8146a1791",
    },
    "lite_dmd_heavy_core": {
        "solution.pgm": "02e01f79cf632e668638251872605eab"
                        "b91b06c8ac5c08146a12eae47d8bedf7",
        "contours.svg": "c846169292d926402c15603bbde314ec"
                        "80e8481a43fca4a7c351f00cdfca52dc",
        "curves.csv": "214aa7df0458a4f1b4cd1d168fefe74d"
                      "ed74ed2991a3387cf4dd6c8fe198aaaa",
    },
}


@pytest.mark.parametrize("name", sorted(_FIGURE_SHA256))
def test_figure_artifacts_are_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LGL_OUT", raising=False)
    argv = ["figure", name, "--resolution", "64", "--levels", "21",
            "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    for fname, digest in _FIGURE_SHA256[name].items():
        data = (tmp_path / name / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, fname
