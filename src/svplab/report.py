"""Deterministic JSON / CSV / SVG artifact writers.

Floats are rendered with repr (shortest round-trip form) so identical
runs produce byte-identical files; the SVG plotter is a tiny hand-rolled
semilog renderer for the same reason.  CSV files document their columns
in '#' header comments above the header row; the energy-table header is
a fixed contract: tau,I,sectionEnergy,dIdtau,C1,C2,mu,lambda.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

SVP_CSV_HEADER = "tau,I,sectionEnergy,dIdtau,C1,C2,mu,lambda"


def fmt(x):
    """Shortest round-trip decimal form of a float (deterministic)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return fmt(x)
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, payload):
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return path


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_csv(path, header, rows, comments=()):
    """CSV with '#' comment lines, a header row and repr-formatted values."""
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    for row in rows:
        if all(type(v) is float and math.isfinite(v) for v in row):
            lines.append(",".join(map(repr, row)))  # fmt(v) is repr(v) for finite floats
        else:
            lines.append(",".join(fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
                                  for v in row))
    return _write_lines(path, lines)


def write_field_csv(path, mesh, values):
    """Node coordinates and nodal value, one row per node, as write_csv
    writes them.

    The nodes are the C-order product of the grid axes, so a row's
    coordinate prefix is the product of per-axis repr strings, each formed
    once per axis value.
    """
    grid = mesh.grid
    d = grid.dim
    header = ",".join(f"x{i + 1}" for i in range(d)) + ",value"
    comments = [
        "field snapshot: node coordinates and nodal value",
        f"columns x1..x{d}: mesh coordinates (axial last)",
    ]
    values = np.asarray(values, dtype=float)
    prefixes = [""]
    for axis in grid.axes:
        cells = [repr(x) + "," for x in axis.tolist()]
        prefixes = [pre + cell for pre in prefixes for cell in cells]
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(map(str.__add__, prefixes, map(repr, values.tolist())))
    return _write_lines(path, lines)


def _svg_escape(s):
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_semilog(path, series, title, xlabel, ylabel):
    """Semilog-y polyline plot.

    series is a list of (label, x array, y array, color); nonpositive y
    values are dropped (log scale).
    """
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    xs, ys = [], []
    for _, x, y, _c in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = y > 0
        if keep.any():
            xs.append(x[keep])
            ys.append(np.log10(y[keep]))
    if not xs:
        xmin, xmax, ymin, ymax = 0.0, 1.0, 0.0, 1.0
    else:
        xmin = min(float(a.min()) for a in xs)
        xmax = max(float(a.max()) for a in xs)
        ymin = min(float(a.min()) for a in ys)
        ymax = max(float(a.max()) for a in ys)
    if xmax <= xmin:
        xmax = xmin + 1.0
    if ymax <= ymin:
        ymax = ymin + 1.0

    def px(x):
        return ml + (x - xmin) / (xmax - xmin) * pw

    def py(ylog):
        return mt + (ymax - ylog) / (ymax - ymin) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{_svg_escape(title)}</text>',
        f'<text x="{width / 2}" y="{height - 10}" text-anchor="middle" font-size="12">{_svg_escape(xlabel)}</text>',
        f'<text x="15" y="{height / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 15 {height / 2})">{_svg_escape(ylabel)}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for i in range(5):
        gx = xmin + (xmax - xmin) * i / 4
        gy = ymin + (ymax - ymin) * i / 4
        parts.append(
            f'<line x1="{fmt(px(gx))}" y1="{mt}" x2="{fmt(px(gx))}" y2="{mt + ph}" '
            'stroke="lightgray" stroke-width="0.5"/>'
        )
        parts.append(
            f'<line x1="{ml}" y1="{fmt(py(gy))}" x2="{ml + pw}" y2="{fmt(py(gy))}" '
            'stroke="lightgray" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{fmt(px(gx))}" y="{mt + ph + 15}" text-anchor="middle" '
            f'font-size="10">{fmt(round(gx, 6))}</text>'
        )
        parts.append(
            f'<text x="{ml - 5}" y="{fmt(py(gy) + 3)}" text-anchor="end" '
            f'font-size="10">1e{fmt(round(gy, 3))}</text>'
        )
    legend_y = mt + 14
    for label, x, y, color in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = y > 0
        pts = " ".join(
            f"{fmt(px(xx))},{fmt(py(math.log10(yy)))}" for xx, yy in zip(x[keep], y[keep])
        )
        if pts:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{ml + pw - 5}" y="{legend_y}" text-anchor="end" font-size="11" '
            f'fill="{color}">{_svg_escape(label)}</text>'
        )
        legend_y += 14
    parts.append("</svg>")
    return _write_lines(path, parts)


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
