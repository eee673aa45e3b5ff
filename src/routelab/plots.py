"""Minimal SVG line/bar rendering, no plotting dependency.

Good enough for convergence curves and equilibrium-count bars: axes, ticks,
a legend, and deterministic output (fixed float formatting) so identical
data renders byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

WIDTH = 860
HEIGHT = 460
MARGIN_LEFT = 70
MARGIN_RIGHT = 170
MARGIN_TOP = 50
MARGIN_BOTTOM = 55

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    if abs(value - round(value)) < 1e-9:
        return str(int(round(value)))
    return f"{value:.2f}"


@dataclass
class Series:
    label: str
    xs: list[float]
    ys: list[float]
    color: str | None = None
    width: float = 1.6
    opacity: float = 1.0


def _axes(x_min, x_max, y_min, y_max, xlabel, ylabel, title) -> tuple[list[str], callable, callable]:
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    span_x = (x_max - x_min) or 1.0
    span_y = (y_max - y_min) or 1.0

    def sx(x):
        return MARGIN_LEFT + (x - x_min) / span_x * plot_w

    def sy(y):
        return MARGIN_TOP + plot_h - (y - y_min) / span_y * plot_h

    parts = [
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{MARGIN_LEFT + plot_w / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>',
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2})">{ylabel}</text>',
    ]
    for k in range(5):
        fx = x_min + span_x * k / 4
        fy = y_min + span_y * k / 4
        parts.append(
            f'<text x="{_fmt(sx(fx))}" y="{HEIGHT - MARGIN_BOTTOM + 18}" '
            f'text-anchor="middle" font-size="11">{_tick_label(fx)}</text>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(sy(fy) + 4)}" '
            f'text-anchor="end" font-size="11">{_tick_label(fy)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(sy(fy))}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{_fmt(sy(fy))}" stroke="#ddd" stroke-width="0.5"/>'
        )
    return parts, sx, sy


def line_plot(
    series: list[Series],
    title: str,
    xlabel: str,
    ylabel: str,
    y_range: tuple[float, float],
) -> str:
    xs = [x for s in series for x in s.xs] or [0.0, 1.0]
    parts, sx, sy = _axes(min(xs), max(xs), *y_range, xlabel, ylabel, title)
    # Series share their coordinates (episodes, proportions): each distinct
    # value is formatted once. Equal keys (0.0 and -0.0 too) give equal text.
    x_text = {x: _fmt(sx(x)) for x in dict.fromkeys(xs)}
    y_text = {y: _fmt(sy(y)) for y in dict.fromkeys(y for s in series for y in s.ys)}
    legend_y = MARGIN_TOP + 10
    for k, s in enumerate(series):
        color = s.color or PALETTE[k % len(PALETTE)]
        points = " ".join([f"{x_text[x]},{y_text[y]}" for x, y in zip(s.xs, s.ys)])
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{s.width}" '
            f'stroke-opacity="{s.opacity}" points="{points}"/>'
        )
        if s.label:
            lx = WIDTH - MARGIN_RIGHT + 12
            parts.append(
                f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
                f'stroke="{color}" stroke-width="2.5"/>'
            )
            parts.append(
                f'<text x="{lx + 28}" y="{legend_y + 4}" font-size="12">{s.label}</text>'
            )
            legend_y += 18
    return _document(parts)


def bar_plot(labels: list[str], values: list[float], title: str, xlabel: str, ylabel: str) -> str:
    y_min = 0.0
    y_max = max(values) if values else 1.0
    y_max = y_max * 1.1 or 1.0
    parts, sx, sy = _axes(0.0, float(max(len(values), 1)), y_min, y_max, xlabel, ylabel, title)
    slot = (WIDTH - MARGIN_LEFT - MARGIN_RIGHT) / max(len(values), 1)
    for k, (label, value) in enumerate(zip(labels, values)):
        x0 = MARGIN_LEFT + k * slot + slot * 0.15
        bar_w = slot * 0.7
        y_top = sy(value)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y_top)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(sy(0.0) - y_top)}" fill="{PALETTE[0]}" fill-opacity="0.85"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 + bar_w / 2)}" y="{HEIGHT - MARGIN_BOTTOM + 18}" '
            f'text-anchor="middle" font-size="11">{label}</text>'
        )
        parts.append(
            f'<text x="{_fmt(x0 + bar_w / 2)}" y="{_fmt(y_top - 5)}" '
            f'text-anchor="middle" font-size="11">{_tick_label(value)}</text>'
        )
    return _document(parts)


def _document(parts: list[str]) -> str:
    body = "\n  ".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">\n'
        f'  <rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f"  {body}\n"
        "</svg>\n"
    )
