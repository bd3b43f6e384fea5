"""Deterministic SVG rendering of explanation reports.

All floats are written with fixed precision so rendering is byte-stable; the
JSON artifacts carry the full-precision numbers.
"""

from html import escape
from pathlib import Path

import numpy as np

from .bagio import dump_json
from .explain import GlobalExplanation

# 8-stop viridis-like ramp (dark purple to yellow), linearly interpolated
VIRIDIS_STOPS = (
    "#440154", "#46327e", "#365c8d", "#277f8e",
    "#1fa187", "#4ac16d", "#a0da39", "#fde725",
)
CLASS_COLORS = {"normal": "#2166ac", "tumor": "#b2182b"}
_CELL = 16
_TOPK_STROKE = "#ff3b30"


def _hex_to_rgb(h: str):
    return tuple(int(h[i:i + 2], 16) for i in (1, 3, 5))


def color_for(t: float) -> str:
    """Map t in [0,1] onto the ramp (clipped, piecewise-linear in RGB)."""
    t = min(max(float(t), 0.0), 1.0)
    pos = t * (len(VIRIDIS_STOPS) - 1)
    i = min(int(pos), len(VIRIDIS_STOPS) - 2)
    frac = pos - i
    a = _hex_to_rgb(VIRIDIS_STOPS[i])
    b = _hex_to_rgb(VIRIDIS_STOPS[i + 1])
    rgb = tuple(round(x + (y - x) * frac) for x, y in zip(a, b))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _rect(x, y, w, h, fill, extra=""):
    return (f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
            f'fill="{fill}"{extra}/>')


def _text(x, y, s, size):
    return (f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="start">{escape(s, quote=False)}</text>')


def render_local_svg(exp: dict) -> str:
    """Attention heatmap (top-K cells outlined) plus a |kappa|-sorted bar chart
    of a local report, as `explain_slide` builds it or its JSON file holds it.

    Cell colors normalize alpha by its per-slide maximum for visibility only;
    the JSON report keeps the raw attention weights.
    """
    rows, cols = exp["grid_shape"]
    grid_w, grid_h = cols * _CELL, rows * _CELL
    max_alpha = max((e["alpha"] for e in exp["attention_grid"]), default=0.0)
    scale = 1.0 / max_alpha if max_alpha > 0 else 0.0
    topk_cells = {(e["row"], e["col"]) for e in exp["topk"]}

    parts = [_rect(0, 30, grid_w, grid_h, "#f0f0f0")]
    for e in exp["attention_grid"]:
        parts.append(_rect(e["col"] * _CELL, 30 + e["row"] * _CELL, _CELL, _CELL,
                           color_for(e["alpha"] * scale)))
    for r, c in sorted(topk_cells):
        parts.append(_rect(c * _CELL, 30 + r * _CELL, _CELL, _CELL, "none",
                           extra=f' stroke="{_TOPK_STROKE}" stroke-width="2"'))

    bars_top = 30 + grid_h + 30
    ordered = sorted(exp["contributions"], key=lambda c: -abs(c["kappa"]))
    max_abs = max((abs(c["kappa"]) for c in ordered), default=0.0)
    bar_scale = 180.0 / max_abs if max_abs > 0 else 0.0
    for i, c in enumerate(ordered):
        y = bars_top + 18 * i
        width = abs(c["kappa"]) * bar_scale
        fill = VIRIDIS_STOPS[4] if c["kappa"] >= 0 else VIRIDIS_STOPS[0]
        parts.append(_text(0, y + 11, c["concept"], size=10))
        parts.append(_rect(170, y + 2, width, 12, fill))
        parts.append(_text(175 + width, y + 11, f'{c["kappa"]:+.4f}', size=10))

    header = (f'{exp["slide_id"]}: {exp["decision"]} '
              f'(concept {exp["prob_concept"]:.4f}, image {exp["prob_image"]:.4f})')
    parts.insert(0, _text(0, 14, header, size=12))
    width = max(grid_w, 420)
    height = bars_top + 18 * len(ordered) + 10
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}">\n{body}\n</svg>\n')


def _scatter(entries, x0, y0, side, title):
    pts = np.asarray([(e["x"], e["y"]) for e in entries], dtype=float)
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    span[span == 0] = 1.0
    parts = [_text(x0, y0 - 6, title, size=11),
             _rect(x0, y0, side, side, "none", extra=' stroke="#999"')]
    for (x, y), e in zip(pts, entries):
        u = x0 + (x - lo[0]) / span[0] * (side - 8) + 4
        v = y0 + (y - lo[1]) / span[1] * (side - 8) + 4
        parts.append(f'<circle cx="{u:.1f}" cy="{v:.1f}" r="3" '
                     f'fill="{CLASS_COLORS[e["class"]]}" fill-opacity="0.7"/>')
    return parts


def render_global_svg(report: dict) -> str:
    """Mean-contribution bars per class, the two 2-D scatters, and per-concept
    value summaries (mean +/- std whiskers per class) of a global report, as
    `global_explanations` builds it or its JSON file holds it."""
    parts = [_text(0, 14, f"global explanation (grouped by {report['group_by']} class)",
                   size=12)]

    # grouped signed bars: one row per concept, one bar per class
    names = report["concept_names"]
    means = report["mean_contributions"]
    all_means = [v for vec in means.values() for v in vec]
    max_abs = max((abs(v) for v in all_means), default=0.0)
    bar_scale = 140.0 / max_abs if max_abs > 0 else 0.0
    center_x, row_h = 330, 26
    top = 40
    parts.append(_text(170, top - 8, "mean contribution per class", size=11))
    for i, name in enumerate(names):
        y = top + i * row_h
        parts.append(_text(0, y + 12, name, size=10))
        for j, cls in enumerate(sorted(means)):
            v = means[cls][i]
            w = abs(v) * bar_scale
            x = center_x if v >= 0 else center_x - w
            parts.append(_rect(x, y + 2 + j * 10, w, 8, CLASS_COLORS[cls]))
        parts.append(
            f'<line x1="{center_x}" y1="{y}" x2="{center_x}" y2="{y + row_h - 4}" '
            f'stroke="#999" stroke-width="1"/>'
        )
    scatter_top = top + len(names) * row_h + 30

    method = report["projection_method"]
    parts += _scatter(report["wsi_2d"], 0, scatter_top, 220, f"slide level ({method})")
    parts += _scatter(report["patch_2d"], 260, scatter_top, 220, f"patch level ({method})")

    # per-concept slide-value whiskers: dot at the mean, line spans +/- one std
    dist_top = scatter_top + 250
    parts.append(_text(170, dist_top - 8, "slide-level concept values", size=11))
    wsi_values = report["wsi_values"]
    spans = [abs(v) for d in wsi_values.values() for vals in d.values() for v in vals]
    v_scale = 140.0 / max(spans) if spans and max(spans) > 0 else 0.0
    for i, name in enumerate(names):
        y = dist_top + i * row_h
        parts.append(_text(0, y + 12, name, size=10))
        for j, cls in enumerate(sorted(wsi_values[name])):
            vals = np.asarray(wsi_values[name][cls], dtype=float)
            mean, std = float(vals.mean()), float(vals.std())
            cy = y + 6 + j * 10
            x1 = center_x + (mean - std) * v_scale
            x2 = center_x + (mean + std) * v_scale
            cx = center_x + mean * v_scale
            parts.append(f'<line x1="{x1:.1f}" y1="{cy}" x2="{x2:.1f}" y2="{cy}" '
                         f'stroke="{CLASS_COLORS[cls]}" stroke-width="2"/>')
            parts.append(f'<circle cx="{cx:.1f}" cy="{cy}" r="3" '
                         f'fill="{CLASS_COLORS[cls]}"/>')

    height = dist_top + len(names) * row_h + 10
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="560" '
            f'height="{height}">\n{body}\n</svg>\n')


def write_local_report(exp: dict, out_dir) -> tuple:
    out_dir = Path(out_dir)
    json_path = out_dir / f"{exp['slide_id']}.explain.json"
    svg_path = out_dir / f"{exp['slide_id']}.explain.svg"
    dump_json(exp, json_path)
    svg_path.write_text(render_local_svg(exp), encoding="utf-8")
    return json_path, svg_path


def write_global_report(g: GlobalExplanation, out_dir) -> tuple:
    out_dir = Path(out_dir)
    json_path = out_dir / "global.json"
    svg_path = out_dir / "global.svg"
    dump_json(g.report, json_path)
    svg_path.write_text(render_global_svg(g.report), encoding="utf-8")
    return json_path, svg_path
