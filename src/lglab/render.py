"""Deterministic artifact emission: PGM heightmaps, SVG contour plots, CSV.

Every writer here is pure text-in-text-out with fixed formatting (%.6f
for SVG coordinates, %.9g for CSV numbers, LF line endings), so repeated
runs of the same solve produce byte-identical files.
"""
from __future__ import annotations

import numpy as np

from .analysis import ExperimentReport
from .paths import Polyline
from .stacker import GridField, SolutionStack

SVG_VIEWBOX = "-1.05 -1.05 2.1 2.1"


# Cells per encoded block of rows; keeps the uint8 temporaries small.
_BLOCK = 1 << 15
# Digit k of a code, counting from the left, is written when the code is at
# least _LEAD[k]; the units digit always is.
_LEAD = (10000, 1000, 100, 10)


def pgm_text(field: GridField) -> str:
    """Plain (P2) PGM of a solution field, values [0,2] mapped to 0..65535.

    One grid row per output line, top row (y = +1) first.  Each cell is
    written as five ASCII digits and a separator, a space or the row's
    newline, and a mask drops the leading zeros.
    """
    values = field.values
    nrows, n = values.shape
    out = [f"P2\n{n} {nrows}\n65535\n"]
    step = max(1, _BLOCK // n)
    for top in range(nrows, 0, -step):
        block = values[max(0, top - step):top][::-1]
        if not np.isfinite(block).all():
            raise ValueError("field values must be finite")
        codes = np.rint(np.clip(block, 0.0, 2.0) * (65535.0 / 2.0)).astype(
            np.int32)
        cells = np.empty(codes.shape + (6,), np.uint8)
        rest = codes
        for k in range(4, -1, -1):
            tens = rest // 10
            cells[..., k] = rest - 10 * tens + ord("0")
            rest = tens
        cells[..., 5] = ord(" ")
        cells[:, -1, 5] = ord("\n")
        keep = np.ones(cells.shape, dtype=bool)
        for k, lead in enumerate(_LEAD):
            keep[..., k] = codes >= lead
        out.append(cells[keep].tobytes().decode("ascii"))
    return "".join(out)


def _path_d(path: Polyline) -> str:
    return "M" + " L".join(["%.6f %.6f" % v for v in path.vertices])


def svg_text(stack: SolutionStack, max_curves: int = 41) -> str:
    """SVG 1.1 contour plot, one path per sampled level curve.

    Math coordinates go in as-is; a single group transform flips the
    y-axis into screen orientation.  Stroke shade encodes the level,
    darker = lower.
    """
    if max_curves < 1:
        raise ValueError("max_curves must be positive")
    stride = max(1, (len(stack.levels) - 1) // (max_curves - 1)) \
        if max_curves > 1 else len(stack.levels)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{SVG_VIEWBOX}" width="640" height="640">',
        '<g transform="scale(1,-1)" fill="none" stroke-width="0.004">',
        '<circle cx="0" cy="0" r="1" stroke="#999999" stroke-width="0.003"/>',
    ]
    for i in range(0, len(stack.levels), stride):
        level = float(stack.levels[i])
        shade = int(round(level / 2.0 * 200.0))
        color = f"#{shade:02x}{shade:02x}{shade:02x}"
        d = _path_d(stack.curves[i].path)
        out.append(f'<path stroke="{color}" d="{d}"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def curves_csv(stack: SolutionStack, stride: int = 1) -> str:
    if stride < 1:
        raise ValueError("stride must be positive")
    rows = ["level,x,y"]
    for i in range(0, len(stack.levels), stride):
        row = f"{float(stack.levels[i]):.9g},%.9g,%.9g"
        rows.extend([row % v for v in stack.curves[i].path.vertices])
    return "\n".join(rows) + "\n"


def geodesic_csv(path: Polyline, level: float | None = None) -> str:
    tag = "" if level is None else f"{level:.9g}"
    rows = ["level,x,y"]
    rows.extend(f"{tag},{x:.9g},{y:.9g}" for x, y in path.vertices)
    return "\n".join(rows) + "\n"


def report_csv(reports: list[ExperimentReport]) -> str:
    rows = ["label,value,expected,tolerance,pass"]
    for rep in reports:
        for q in rep.quantities:
            flag = "true" if q.passed else "false"
            rows.append(f"{rep.name}: {q.label},{q.value:.9g},"
                        f"{q.expected:.9g},{q.tolerance:.9g},{flag}")
    return "\n".join(rows) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
