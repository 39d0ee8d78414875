"""Tiny dependency-free SVG line/band plots.

Plots are a convenience; CSV files are the record.  Output is deterministic
apart from the version comment on the first line.
"""

from __future__ import annotations

from . import __version__ as _version

_PANEL_W = 320
_PANEL_H = 240
_MARGIN = 42
_COLUMNS = 2
_COLORS = ("#1f6fb4", "#d1495b", "#3a8c5c", "#8a5ab8", "#c98a18")


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _poly(xs, ys) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def _panel(title, x, series, x0, y0) -> list[str]:
    """series: list of (label, values, color, band_lower_or_None)."""
    left, right = x0 + _MARGIN, x0 + _PANEL_W - 12
    top, bottom = y0 + 24, y0 + _PANEL_H - _MARGIN
    all_vals = [v for _, vals, _, band in series for v in vals] + [
        v for _, _, _, band in series if band is not None for v in band
    ]
    vlo = min(all_vals + [0.0])
    vhi = max(all_vals + [1e-9])
    xlo, xhi = min(x), max(x) if max(x) > min(x) else min(x) + 1
    parts = [
        f'<rect x="{x0}" y="{y0}" width="{_PANEL_W}" height="{_PANEL_H}" '
        'fill="white" stroke="#ccc"/>',
        f'<text x="{x0 + _PANEL_W / 2:.0f}" y="{y0 + 16}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="#333"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="#333"/>',
        f'<text x="{left}" y="{bottom + 14}" font-size="9" font-family="sans-serif" '
        f'text-anchor="middle">{xlo:g}</text>',
        f'<text x="{right}" y="{bottom + 14}" font-size="9" font-family="sans-serif" '
        f'text-anchor="middle">{xhi:g}</text>',
        f'<text x="{left - 4}" y="{bottom}" font-size="9" font-family="sans-serif" '
        f'text-anchor="end">{vlo:g}</text>',
        f'<text x="{left - 4}" y="{top + 4}" font-size="9" font-family="sans-serif" '
        f'text-anchor="end">{vhi:g}</text>',
    ]
    px = _scale(x, xlo, xhi, left, right)
    legend_y = y0 + 30
    for label, vals, color, band in series:
        if band is not None:
            upper = vals
            py_u = _scale(upper, vlo, vhi, bottom, top)
            py_l = _scale(band, vlo, vhi, bottom, top)
            pts = _poly(px, py_u) + " " + _poly(px[::-1], py_l[::-1])
            parts.append(f'<polygon points="{pts}" fill="{color}" opacity="0.25"/>')
        else:
            py = _scale(vals, vlo, vhi, bottom, top)
            parts.append(
                f'<polyline points="{_poly(px, py)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{right - 4}" y="{legend_y}" font-size="9" '
                f'font-family="sans-serif" text-anchor="end" fill="{color}">'
                f"{label}</text>"
            )
            legend_y += 11
    return parts


def render_panels(panels: list[dict], path):
    """Write an SVG grid of panels, ``_COLUMNS`` to a row.

    Each panel dict: ``title``, ``x`` (list), ``series`` (list of dicts with
    ``label``, ``values``, optional ``lower``/``upper`` band).
    """
    rows = (len(panels) + _COLUMNS - 1) // _COLUMNS
    width = _COLUMNS * (_PANEL_W + 10) + 10
    height = rows * (_PANEL_H + 10) + 10
    parts = [
        f"<!-- hergm-kit {_version} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#fafafa"/>',
    ]
    for idx, panel in enumerate(panels):
        x0 = 10 + (idx % _COLUMNS) * (_PANEL_W + 10)
        y0 = 10 + (idx // _COLUMNS) * (_PANEL_H + 10)
        series = []
        for s_idx, s in enumerate(panel["series"]):
            color = _COLORS[s_idx % len(_COLORS)]
            if "upper" in s and "lower" in s:
                series.append((s["label"], list(s["upper"]), color, list(s["lower"])))
            if "values" in s:
                series.append((s["label"], list(s["values"]), color, None))
        parts.extend(_panel(panel["title"], list(panel["x"]), series, x0, y0))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
