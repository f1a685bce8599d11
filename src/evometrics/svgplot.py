"""Static SVG line plots of version series.

Output is a standalone SVG document built from plain strings: no plotting
library, no timestamps, no randomness, so identical inputs produce
byte-identical files. Version labels run along the abscissa in series
order; an optional footer annotates the trend decision and the gap
versions that hold no data.
"""

from __future__ import annotations

import math
import re

from .dataset import VersionSeries
from .errors import AnalysisError
from .trend import TrendResult

WIDTH = 720
HEIGHT = 420
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 46
MARGIN_BOTTOM = 96

LINE_COLOR = "#1f77b4"
GRID_COLOR = "#d9d9d9"
AXIS_COLOR = "#000000"


# the characters XML 1.0's Char production leaves out, which no escape can carry
_NOT_XML_CHAR = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _escape(text: str) -> str:
    # each of them is unprintable, so only an unprintable label is searched, and the
    # pattern is compiled (about 1 ms) in the rare process that meets one
    if not text.isprintable() and (bad := re.search(_NOT_XML_CHAR, text)):
        raise AnalysisError(f"cannot plot label {text!r}: XML cannot carry U+{ord(bad[0]):04X}")
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _tick_label(value: float) -> str:
    return f"{value:.6g}"


def render_svg(
    series: VersionSeries,
    trend: TrendResult | None = None,
    gaps: tuple[str, ...] = (),
) -> str:
    """Render one series as an SVG document string.

    The polyline runs through the covered versions only; gap versions are
    listed in a footer annotation instead of being interpolated over.
    """
    if not series.points:
        raise AnalysisError("empty series: nothing to plot")

    versions = series.versions()
    values = series.values()
    count = len(versions)

    plot_left = MARGIN_LEFT
    plot_right = WIDTH - MARGIN_RIGHT
    plot_top = MARGIN_TOP
    plot_bottom = HEIGHT - MARGIN_BOTTOM
    plot_width = plot_right - plot_left
    plot_height = plot_bottom - plot_top

    vmin = min(values)
    vmax = max(values)
    if vmin == vmax:
        pad = abs(vmin) * 0.1 or 1.0
        vmin -= pad
        vmax += pad
    else:
        pad = (vmax - vmin) * 0.08
        vmin -= pad
        vmax += pad
    if not math.isfinite(vmax - vmin):  # every coordinate and tick would come out nan
        raise AnalysisError("plot range beyond the float range: nothing to plot")

    def x_px(idx: int) -> float:
        if count == 1:
            return plot_left + plot_width / 2.0
        return plot_left + idx * (plot_width / (count - 1))

    def y_px(value: float) -> float:
        return plot_bottom - (value - vmin) / (vmax - vmin) * plot_height

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    title = " / ".join(map(_escape, (series.package, series.metric, series.statistic)))
    lines.append(
        f'<text x="{WIDTH / 2:.1f}" y="26" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>'
    )

    for k in range(5):
        value = vmin + (vmax - vmin) * k / 4
        y = y_px(value)
        lines.append(
            f'<line x1="{plot_left}" y1="{y:.2f}" x2="{plot_right}" y2="{y:.2f}" '
            f'stroke="{GRID_COLOR}" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{plot_left - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{_tick_label(value)}</text>'
        )

    lines.append(
        f'<line x1="{plot_left}" y1="{plot_bottom}" x2="{plot_right}" y2="{plot_bottom}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1.5"/>'
    )
    lines.append(
        f'<line x1="{plot_left}" y1="{plot_top}" x2="{plot_left}" y2="{plot_bottom}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1.5"/>'
    )

    for idx, version in enumerate(versions):
        x = x_px(idx)
        lines.append(
            f'<line x1="{x:.2f}" y1="{plot_bottom}" x2="{x:.2f}" y2="{plot_bottom + 5}" '
            f'stroke="{AXIS_COLOR}" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{plot_bottom + 16:.2f}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif" transform="rotate(-35 {x:.2f} {plot_bottom + 16:.2f})">'
            f"{_escape(version)}</text>"
        )

    points = " ".join(f"{x_px(i):.2f},{y_px(v):.2f}" for i, v in enumerate(values))
    lines.append(
        f'<polyline fill="none" stroke="{LINE_COLOR}" stroke-width="2" points="{points}"/>'
    )
    for idx, value in enumerate(values):
        lines.append(
            f'<circle cx="{x_px(idx):.2f}" cy="{y_px(value):.2f}" r="3" fill="{LINE_COLOR}"/>'
        )

    footer_y = HEIGHT - 26
    if trend is not None:
        note = (
            f"trend: {trend.decision}  (p_two_sided={trend.p_two_sided:.4g}, "
            f"alpha={trend.alpha:g}, method={trend.method})"
        )
        lines.append(
            f'<text x="{plot_left}" y="{footer_y}" font-size="11" '
            f'font-family="sans-serif">{_escape(note)}</text>'
        )
        footer_y += 14
    if gaps:
        note = "gaps (no data): " + ", ".join(map(_escape, gaps))
        lines.append(
            f'<text x="{plot_left}" y="{footer_y}" font-size="11" '
            f'font-family="sans-serif">{note}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
