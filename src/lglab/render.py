"""Deterministic artifact emission: PGM heightmaps, SVG contour plots, CSV.

Every writer here is pure text-in-text-out with fixed formatting (%.6f
for SVG coordinates, %.9g for CSV numbers, LF line endings), so repeated
runs of the same solve produce byte-identical files.

Vertex coordinates are written by one array encoder that reproduces
Python's "%.6f" % x and "%.9g" % x byte for byte.  It scales |x| by an
exact power of ten, rounds with np.rint and writes the digits three at a
time from a table.  Python's % writes every value outside the array range
(|x| that rounds to 100 or more for %.6f, whose signed integer part must
fit one 4-byte word; |x| < 1e-4 or |x| that rounds to 10 or more, zero
aside, for %.9g) and every value whose scaled product lies within 1e-6 of
a half-integer, where the product's own rounding could flip the rounded
digit.  Level curves lie in the unit disk, so % writes only the rare
coordinate below 1e-4 in magnitude.
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


# The vertex encoder writes each number as 4-byte words from one table, and
# a byte left NUL is dropped from the text, so one gather writes a
# variable-width piece.  Entry c + 1000 z is the fraction code c < 1000 as
# three digits, its trailing zeros dropped if z; entry 2000 + i + 100 z +
# 200 s is the integer part i < 100, signed if s, with a point unless z.
# z marks the words after which %.9g writes no digit.
_DIGITS = np.array(["%03d" % c for c in range(1000)]
                   + [("%03d" % c).rstrip("0") for c in range(1000)]
                   + [sign + str(i) + point for sign in ("", "-")
                      for point in (".", "") for i in range(100)],
                   "S4").view(np.uint32)
# Vertices per encoded block; keeps the temporaries small.
_ROWS = 1 << 12
# %.9g takes the array path for 1e-4 <= |x| < 10.  Its decimal exponent is
# the number of these bounds |x| reaches, minus 4; each double lies just
# above the decimal it stands for, so the comparisons are exact.
_DECADES = np.array([1e-3, 1e-2, 1e-1, 1.0])
# With j bounds reached, rint(|x| 10^(12 - j)) is |x| at nine significant
# digits, and times 10^j it is |x| at twelve decimals, an integer < 1e13.
_SCALE = 10.0 ** np.arange(12, 7, -1)
_SHIFT = 10.0 ** np.arange(5)
# The scaled product p < 1e9 carries one rounding error of at most
# 2^-53 * 1e9 ~ 1.1e-7, so np.rint(p) rounds like the exact product
# whenever p lies at least _TIE from a half-integer; closer, % decides.
_TIE = 1e-6
# format -> powers of 1000 that cut the scaled integer into the integer
# part and the three-digit fraction codes, the bound that keeps the integer
# part below 100 (%.6f) or 10 (%.9g), and the table step of z per word
_FORMATS = {
    "%.6f": (1000.0 ** np.arange(2, -1, -1)[:, None, None], 1e8, None),
    "%.9g": (1000.0 ** np.arange(4, -1, -1)[:, None, None], 1e13,
             np.array([100, 1000, 1000, 1000, 1000])[:, None, None]),
}


def _numbers(v, fmt, out):
    """Write fmt % x for each x of the (n, 2) array v into out as (n, 2,
    g + 1) NUL-padded words, g the fraction codes; return a mask of the
    values written exactly.  The rest are left to %, and the last byte of
    each number is left free for a separator.

    |x| is scaled to an integer of six decimals (%.6f) or of nine
    significant digits at twelve decimals (%.9g), then cut into base-1000
    codes.  %.9g drops trailing fraction zeros, and the point with them.
    """
    powers, bound, zstep = _FORMATS[fmt]
    a = np.abs(v)
    if fmt == "%.6f":
        ok = a < 1e2
        scale, shift = 1e6, 1.0
    else:
        ok = ((a >= 1e-4) & (a < 10.0)) | (a == 0.0)
        j = np.searchsorted(_DECADES, a, "right")
        scale, shift = _SCALE[j], _SHIFT[j]
    p = np.where(ok, a, 0.0) * scale
    r = np.rint(p)
    ok &= (np.abs(p - r) < 0.5 - _TIE) & (r * shift < bound)
    # n < 2^53 is exact, and n / 1000^k errs by less than 1000^-k, so the
    # cast truncates it to the exact quotient; codes run along the first
    # axis, so every step loops over all values
    n = np.where(ok, r * shift, 0.0)
    q = (n / powers).astype(np.int64)
    codes = q.copy()
    codes[1:] -= 1000 * q[:-1]
    codes[0] += 2000 + 200 * np.signbit(v)
    if zstep is not None:
        codes += zstep * (q * powers == n)
    out[...] = np.moveaxis(_DIGITS[codes], 0, -1)
    return ok


def _vertex_text(paths, heads, fmt, sep, end=""):
    """The vertices of each path as rows head + fmt(x) + sep + fmt(y) + end.

    heads[i] is the pair of heads for the first vertex of paths[i] and for
    the rest.  Rows are encoded in blocks of _ROWS into one NUL-padded
    word array, one row a line, and the NULs deleted; a row with a value
    the array path cannot write exactly is written by % instead.
    """
    if not paths:
        return ""
    texts = [h for pair in heads for h in pair]
    size = 4 * -(-max(map(len, texts)) // 4)  # whole words
    table = np.array(texts, f"S{size}").view(np.uint32).reshape(
        len(texts), -1)
    width = table.shape[1]
    words = len(_FORMATS[fmt][0])
    ends = np.cumsum([len(p) for p in paths])
    starts = ends - [len(p) for p in paths]
    total, out = int(ends[-1]), []
    for lo in range(0, total, _ROWS):
        hi = min(lo + _ROWS, total)
        rows = np.arange(lo, hi)
        first, last = np.searchsorted(ends, [lo, hi - 1], "right")
        xy = np.concatenate([paths[i][max(lo - starts[i], 0):hi - starts[i]]
                             for i in range(first, last + 1)])
        curve = np.searchsorted(ends, rows, "right")
        kind = 2 * curve + (rows != starts[curve])
        buf = np.empty((len(rows), width + 2 * words), np.uint32)
        buf[:, :width] = np.take(table, kind, axis=0)
        ok = _numbers(xy, fmt, buf[:, width:].reshape(len(rows), 2, words))
        # a number ends in a fraction word of at most three digits, so its
        # last byte is free
        chars = buf.view(np.uint8)
        chars[:, 4 * (width + words) - 1] = ord(sep)
        chars[:, -1] = ord(end) if end else 0
        raw, row = buf.tobytes(), chars.shape[1]
        pieces, at = [], 0
        for r in np.flatnonzero(~(ok[:, 0] & ok[:, 1])).tolist():
            x, y = xy[r].tolist()
            pieces += [raw[at * row:r * row],
                       (texts[kind[r]] + fmt % x + sep + fmt % y
                        + end).encode("ascii")]
            at = r + 1
        pieces.append(raw[at * row:])
        out.append(b"".join(pieces).translate(None, b"\0").decode("ascii"))
    return "".join(out)


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
    paths, heads = [], []
    for i in range(0, len(stack.levels), stride):
        shade = int(round(float(stack.levels[i]) / 2.0 * 200.0))
        color = f"#{shade:02x}{shade:02x}{shade:02x}"
        close = '"/>\n' if heads else ""
        heads.append((f'{close}<path stroke="{color}" d="M', " L"))
        paths.append(stack.curves[i].path.as_array())
    if paths:
        out.append(_vertex_text(paths, heads, "%.6f", " ") + '"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def curves_csv(stack: SolutionStack, stride: int = 1) -> str:
    if stride < 1:
        raise ValueError("stride must be positive")
    picked = range(0, len(stack.levels), stride)
    heads = [(f"{float(stack.levels[i]):.9g},",) * 2 for i in picked]
    paths = [stack.curves[i].path.as_array() for i in picked]
    return "level,x,y\n" + _vertex_text(paths, heads, "%.9g", ",", "\n")


def geodesic_csv(path: Polyline, level: float | None = None) -> str:
    tag = "" if level is None else f"{level:.9g}"
    return "level,x,y\n" + _vertex_text([path.as_array()], [(tag + ",",) * 2],
                                         "%.9g", ",", "\n")


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
