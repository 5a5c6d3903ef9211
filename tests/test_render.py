"""Artifact writers must be format-correct and byte-stable."""
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lglab.cli as cli
from lglab import render
from lglab.analysis import ExperimentReport, Quantity
from lglab.paths import Polyline
from lglab.render import (curves_csv, geodesic_csv, pgm_text, report_csv,
                          svg_text)
from lglab.stacker import GridField, SwitchPolicy, midpoint_levels, stack
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


def test_curves_csv_format(small_stack):
    text = curves_csv(small_stack)
    lines = text.splitlines()
    assert lines[0] == "level,x,y"
    level, x, y = lines[1].split(",")
    float(level), float(x), float(y)


def test_geodesic_csv_blank_level():
    text = geodesic_csv(Polyline(((0.0, -1.0), (0.5, 0.25))))
    assert text.splitlines()[1:] == [",0,-1", ",0.5,0.25"]


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


def _banded(shape, values, lengths):
    """A field whose output order, top row first, is runs of values with
    the given lengths, cut into rows of shape[1] regardless of the runs."""
    flat = np.repeat(values, lengths)[:shape[0] * shape[1]]
    return flat.reshape(shape)[::-1].copy()


@pytest.mark.parametrize("shape", [(1, 1), (7, 9), (3, render._BLOCK + 1)])
def test_pgm_writes_a_constant_field_as_one_word(shape):
    values = np.full(shape, 1.25)
    assert pgm_text(GridField(0, values)) == _reference_pgm(values)


def test_pgm_runs_carry_across_row_ends():
    # each row, top first, ends on the value the next row starts with
    band = [0.5, 1.0, 0.25, 2.0, 0.0, 1.0, 1.0, 0.5]
    top = np.array([[v] * 4 + [w] * 6 for v, w in zip(band, band[1:])])
    assert np.array_equal(top[:-1, -1], top[1:, 0])
    values = top[::-1]
    assert pgm_text(GridField(0, values)) == _reference_pgm(values)
    # runs spanning several whole rows
    values = _banded((12, 10), [0.5, 1.0, 0.25, 2.0, 0.0],
                     [15, 10, 33, 40, 22])
    assert pgm_text(GridField(0, values)) == _reference_pgm(values)


@pytest.mark.parametrize("nrows", [1, 2, 31])
def test_pgm_writes_single_column_fields(nrows):
    values = _banded((nrows, 1), [1.0, 0.0, 2.0, 1.0], [5, 9, 1, 30])
    assert pgm_text(GridField(0, values)) == _reference_pgm(values)


def test_pgm_merges_signed_zeros_into_one_code():
    values = np.zeros((6, 8))
    values[::2, 1::3] = -0.0
    values[1, :4] = [-0.0, 0.0, -0.0, -1e-300]
    values[4:] = np.where(np.arange(8) % 2, -0.0, 0.0)
    assert np.signbit(values).any()
    assert pgm_text(GridField(0, values)) == _reference_pgm(values)


def test_pgm_writes_distinct_floats_of_one_code():
    step = 2.0 / 65535.0
    near = [1.0, math.nextafter(1.0, 2.0), 1.0 + 0.4 * step,
            1.0 - 0.4 * step, 1.0 + step, -0.5, -3.0, 0.0, 2.5, 1e9, 2.0,
            77 * step, 77.4 * step, 76.6 * step]
    values = np.array(near * 4).reshape(8, 7)
    codes = np.rint(np.clip(values, 0.0, 2.0) / step)
    assert len(np.unique(values)) > len(np.unique(codes))
    assert pgm_text(GridField(0, values)) == _reference_pgm(values)


@pytest.mark.parametrize("width", [render._BLOCK - 1, render._BLOCK + 1,
                                   render._BLOCK // 2 - 1,
                                   render._BLOCK // 2 + 1])
def test_pgm_runs_cross_row_block_cuts(width):
    # long runs straddle every row end, so each block of rows starts and
    # ends inside a run
    values = _banded((5, width), [0.75, 1.5, 0.0, 2.0, 0.75],
                     [width + 3, 2 * width - 7, width // 2, 5, 2 * width])
    assert pgm_text(GridField(0, values)) == _reference_pgm(values)


def test_pgm_matches_reference_on_a_res_768_field():
    s = stack(make_weight("heavy_disk", 2.0), levels=midpoint_levels(21),
              res=768)
    assert pgm_text(s.field) == _reference_pgm(s.field.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_rejects_non_finite_fields(bad):
    values = np.ones((9, 9))
    values[7, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        pgm_text(GridField(4, values))


def test_write_text_writes_long_texts_in_slices(tmp_path):
    # a multi-byte character on each side of every slice cut
    text = ("ab\u00e9\n" * (render._CHUNK // 2 + 2))[:2 * render._CHUNK + 7]
    path = tmp_path / "long.txt"
    render.write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    render.write_text(path, "")
    assert path.read_bytes() == b""


def _reference_stride(stack) -> int:
    """The step between drawn levels: the least that keeps 41 curves."""
    return (len(stack.levels) - 1) // 41 + 1


def _reference_svg(stack) -> str:
    """svg_text as one "%.6f %.6f" per vertex: the reference for svg_text."""
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.05 -1.05 2.1 2.1" width="640" height="640">',
        '<g transform="scale(1,-1)" fill="none" stroke-width="0.004">',
        '<circle cx="0" cy="0" r="1" stroke="#999999" stroke-width="0.003"/>',
    ]
    for i in range(0, len(stack.levels), _reference_stride(stack)):
        level = float(stack.levels[i])
        shade = int(round(level / 2.0 * 200.0))
        color = f"#{shade:02x}{shade:02x}{shade:02x}"
        d = "M" + " L".join(["%.6f %.6f" % v
                             for v in stack.curves[i].path.vertices])
        out.append(f'<path stroke="{color}" d="{d}"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _reference_curves_csv(stack) -> str:
    """curves_csv as one "%.9g" row format per level: its reference."""
    rows = ["level,x,y"]
    for i in range(0, len(stack.levels), _reference_stride(stack)):
        row = f"{float(stack.levels[i]):.9g},%.9g,%.9g"
        rows.extend([row % v for v in stack.curves[i].path.vertices])
    return "\n".join(rows) + "\n"


def _reference_geodesic_csv(path) -> str:
    """geodesic_csv as one f-string per vertex: its reference."""
    rows = ["level,x,y"]
    rows.extend(f",{x:.9g},{y:.9g}" for x, y in path.vertices)
    return "\n".join(rows) + "\n"


@pytest.fixture(scope="module")
def preset_stacks():
    """Every figure preset at res 32 and 21 levels; the radial ones give
    curves of hundreds to thousands of vertices."""
    return {name: stack(cli._build_weight(cfg), levels=midpoint_levels(21),
                        policy=SwitchPolicy(cfg.switch_level), res=32)
            for name, cfg in cli._FIGURES.items()}


@pytest.mark.parametrize("name", sorted(cli._FIGURES))
def test_writers_match_the_per_vertex_references(preset_stacks, name):
    s = preset_stacks[name]
    assert svg_text(s) == _reference_svg(s)
    assert curves_csv(s) == _reference_curves_csv(s)
    for i in (0, 10, 20):
        path = s.curves[i].path
        assert geodesic_csv(path) == _reference_geodesic_csv(path)


def test_the_least_stride_that_keeps_41_curves_is_drawn():
    # a stride of floor((count - 1) / 40) drew 60 curves at 60 levels
    for count in range(16, 2002):
        s = SimpleNamespace(levels=np.empty(count))
        drawn = render._drawn_levels(s)
        assert drawn.start == 0 and len(drawn) <= 41, count
        assert drawn.step == 1 or len(range(0, count, drawn.step - 1)) > 41
        assert drawn.step == _reference_stride(s), count


def test_writers_match_the_references_at_stride_two(small_stack):
    assert _reference_stride(small_stack) == 2
    assert svg_text(small_stack) == _reference_svg(small_stack)
    assert curves_csv(small_stack) == _reference_curves_csv(small_stack)


def test_radial_stacks_span_several_encoder_blocks(preset_stacks):
    rows = sum(len(c.path.as_array())
               for c in preset_stacks["lite_dmd_heavy_core"].curves)
    assert rows > 3 * render._ROWS


def _nudged(x, ulps):
    """x moved by ulps units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


_SIGNS = st.sampled_from([1.0, -1.0])
# (k + 1/2) 10^-p, the nearest double to a decimal tie, give or take ulps
_TIES = st.builds(lambda k, p, u, s: s * _nudged((2 * k + 1) / (2 * 10 ** p),
                                                  u),
                  st.integers(0, 10 ** 10), st.integers(0, 14),
                  st.integers(-3, 3), _SIGNS)
_ZEROS = st.sampled_from([0.0, -0.0]) | st.builds(
    lambda k, s: s * k * 5e-324, st.integers(1, 2 ** 52 - 1), _SIGNS)
# the array ranges' ends and the values that round up onto them
_EDGES = st.builds(lambda b, u, s: s * _nudged(b, u), st.sampled_from(
    [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0, 9.9999999995e-5,
     9.9999999995, 99.9999995, 999.9999995]), st.integers(-40, 40), _SIGNS)
_VALUES = st.one_of(_TIES, _ZEROS, _EDGES, st.floats(-1.1, 1.1),
                    st.floats(allow_nan=False, allow_infinity=False))
_LAYOUTS = [("%.6f", " ", ""), ("%.9g", ",", "\n")]


def _check_encoder(paths, fmt, sep, end):
    heads = [(f"<{i}>", "+") for i in range(len(paths))]
    expect = "".join(heads[i][j > 0] + fmt % x + sep + fmt % y + end
                     for i, p in enumerate(paths)
                     for j, (x, y) in enumerate(p.tolist()))
    assert render._vertex_text(paths, heads, fmt, sep, end) == expect


@pytest.mark.parametrize("layout", _LAYOUTS, ids=lambda t: t[0])
@settings(max_examples=200, deadline=None)
@given(paths=st.lists(st.lists(st.tuples(_VALUES, _VALUES), min_size=2,
                               max_size=16), min_size=1, max_size=3))
def test_encoder_matches_percent_formatting(layout, paths):
    _check_encoder([np.array(p) for p in paths], *layout)


@pytest.mark.parametrize("layout", _LAYOUTS, ids=lambda t: t[0])
@settings(max_examples=50, deadline=None)
@given(paths=st.lists(st.lists(st.tuples(_VALUES, _VALUES), min_size=2,
                               max_size=2), min_size=1, max_size=40))
def test_encoder_matches_percent_formatting_on_two_vertex_curves(layout,
                                                                 paths):
    _check_encoder([np.array(p) for p in paths], *layout)


@pytest.mark.parametrize("layout", _LAYOUTS, ids=lambda t: t[0])
@pytest.mark.parametrize("sizes", [
    (render._ROWS - 1,), (render._ROWS,), (render._ROWS + 1,),
    (render._ROWS - 1, 2, render._ROWS + 1)])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       special=st.lists(_VALUES, min_size=8, max_size=8))
def test_encoder_matches_percent_formatting_across_blocks(layout, sizes,
                                                          seed, special):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.1, 1.1, (sum(sizes), 2))
    # the special values sit in the first and last rows and on both sides
    # of the first block boundary
    for k, at in enumerate((0, render._ROWS - 1, render._ROWS, -1)):
        rows[min(at, len(rows) - 1)] = special[2 * k:2 * k + 2]
    paths = np.split(rows, np.cumsum(sizes)[:-1])
    _check_encoder(paths, *layout)


# sha256 of every preset's four artifacts at res 64 and 21 levels, in
# _ARTIFACTS order, as written before the array encoders and the one-count
# fill replaced the per-pixel and per-vertex ones; heavy_disk's contours.svg
# and curves.csv are as written once its rim-wrap tangent angles came from
# atan2, which moves three printed coordinates by an ulp-sized amount
_ARTIFACTS = ("contours.svg", "curves.csv", "run.cfg", "solution.pgm")
_FIGURE_SHA256 = {
    "constant": """
        01fbe3877bdb5d15204adb44df2106c3a99c23f47521bf87b7e19af35458f7c3
        e24d288c8efcf2f203fbdb140cc985d6ae5c63171dbfd07dff808c675281acbb
        9d94a888cccbbf7d641484265fb9f0b9fc391a05c2089f0ac3ac9bdcb795b78d
        dd149de0f269453d6ca54eaf6d3fd416b61e4894fa83d988f01219196e302f00""",
    "heavy_diamond": """
        a3d3d82eb24f55f365f14a5247ca6f70f887001e71b2814ed89dfe25f51038dc
        a3ad87b45bba8c1663d80152dccd15c00a544438aeb45439304a9ff8146a1791
        55f645c0fcbd9fdb8fa87dd0d403e5e5b45aa4454ed3ae8ec248aefd413deb73
        a2ca0e3fd0ff03b47c3cff83f1202d09115ae00ee2a48ff72b2244fac4a01482""",
    "heavy_disk": """
        5ea4d4d45509a4c7675a80f7409e0db46b8dceed690ea41817796825014c3e27
        4263f19eee60037007f61902632aca16f7142a4152492424ee6f2780d994ebc2
        78ea62ad578d4102c004d3894ff403d35184eb8d8dc260f87bc68ae215a61dda
        fc6816f51d5e1b6bb3026896d359856914f21255e5b8ef0267610d2830abb290""",
    "light_diamond": """
        0368775f8558efac719aaa88e8f72b436e2ee54d38747f929555e241390a7359
        e01fab8c4083b775f7273b295b524d8bc3d8f6d89b82c5e15458b15bdb43205b
        2dc43061d7962f093871851bea2ac2debd51d349b62545b733676452cbbec8be
        48fc51048c88a06ec0e324aecf2377ebd1a7b1685da8567f5d137508545922fd""",
    "light_diamond_tight": """
        711dc428abc173e56390b903bbd2525719db9fe1278c59351495c298b2f058a2
        7a448d876cf31737be9634d7411305b861dde23e3254cf609898f44b1a7ea8b2
        f15bb29497a3df950d5e51df29e7c5a3626abd10dc796052981e27a7228bc99e
        58786c533dc647005bd95c7a9ba0bced5f76389312aa33310c759e6d681060dc""",
    "lite_dmd_heavy_core": """
        c846169292d926402c15603bbde314ec80e8481a43fca4a7c351f00cdfca52dc
        214aa7df0458a4f1b4cd1d168fefe74ded74ed2991a3387cf4dd6c8fe198aaaa
        ea13db6eda12c19f8609b081b5dd296e5638ba91e395a4420a93c2f698baaa0c
        02e01f79cf632e668638251872605eabb91b06c8ac5c08146a12eae47d8bedf7""",
    "lite_dmd_heavy_core_maximal": """
        5d096d9840da939a9d0e9ba8dd878faba57d887b1ca2beaa943bd457b05e99ef
        8054745ca659e2bb0dd5c63aa1bbda4433a54ca4b2901096435c1d3e0faa684a
        7dc9fb51e2936cbef849902982fea019daa9ad80a7cf7fa51861268f471cbc1e
        d31fea7c10d865f8ff26dbfb6db0856a98f20dd881d03540257c442b1e3f54cb""",
    "three_heavy_diamonds": """
        9fb1cbeb840b0a6bdf43396c0bd966d86ef64ae2ac9c443de8f98f2857c6fcad
        e23499cf10ea02894d6a79b1c865686d7acf0b05cf8f3a408325ff69e30d47cc
        105824d8447984559d0a958d88726003cdd3c5835b601ef4642389c47bbe0f22
        cbc490f8d869d6d077e5f3a46fda581073967dd8ad893be42639da5ec3a3eaec""",
    "three_heavy_diamonds_maximal": """
        fd91b40cc7d794de93368ac22cd0345174476130187eb157dd871cfeeedfac06
        92cab4ff3353c1dbf3721a738e56554009a0044c86a41190c4c2e1510a242efe
        07e38a388db8283e16a2c05a107eac324f1995ea339a42b01560e6b0d30097e8
        534a1e3f832639adbc5d5900adb233854a2bf6ef6e7c540e5c5d2ea7eec132af""",
}


@pytest.mark.parametrize("name", sorted(cli._FIGURES))
def test_figure_artifacts_are_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LGL_OUT", raising=False)
    argv = ["figure", name, "--resolution", "64", "--levels", "21",
            "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    for fname, digest in zip(_ARTIFACTS, _FIGURE_SHA256[name].split()):
        data = (tmp_path / name / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, fname
