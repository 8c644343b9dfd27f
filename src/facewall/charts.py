"""Self-contained deterministic SVG line charts for bucket series.

One polyline vertex per bucket (counts, solid) plus the per-class share on
a 0..1 secondary scale (dashed). No timestamps, no external fonts, fixed
2-decimal coordinates: the same store and config always produce the same
bytes.
"""

from __future__ import annotations

from .timeline import BucketSeries

DEFAULT_WIDTH = 960
DEFAULT_HEIGHT = 320

MARGIN_LEFT = 56.0
MARGIN_RIGHT = 16.0
MARGIN_TOP = 34.0
MARGIN_BOTTOM = 42.0

STYLE = (
    "text{font-family:sans-serif;font-size:11px;fill:#222}"
    ".title{font-size:13px;font-weight:bold}"
    ".axis{stroke:#444;stroke-width:1;fill:none}"
    ".grid{stroke:#ddd;stroke-width:1;fill:none}"
    ".counts{stroke:#1f77b4;stroke-width:1.5;fill:none}"
    ".proportions{stroke:#d62728;stroke-width:1;stroke-dasharray:4 3;fill:none}"
)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_series_chart(
    series: BucketSeries,
    title: str,
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
    measure: str = "posts",
) -> str:
    plot_w = width - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = height - MARGIN_TOP - MARGIN_BOTTOM
    n = len(series.buckets)
    y_max = max(series.counts) if series.counts else 0
    y_max = max(y_max, 1)

    def x_at(i: int) -> float:
        if n <= 1:
            return MARGIN_LEFT + plot_w / 2
        return MARGIN_LEFT + plot_w * i / (n - 1)

    def y_count(c: float) -> float:
        return MARGIN_TOP + plot_h * (1 - c / y_max)

    def y_share(p: float) -> float:
        return MARGIN_TOP + plot_h * (1 - p)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<style>{STYLE}</style>",
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text class="title" x="{_fmt(MARGIN_LEFT)}" y="20">{_escape(title)}</text>',
        # axes
        f'<path class="axis" d="M {_fmt(MARGIN_LEFT)} {_fmt(MARGIN_TOP)} '
        f'L {_fmt(MARGIN_LEFT)} {_fmt(MARGIN_TOP + plot_h)} '
        f'L {_fmt(MARGIN_LEFT + plot_w)} {_fmt(MARGIN_TOP + plot_h)}"/>',
        f'<text x="6" y="{_fmt(MARGIN_TOP + 4)}">{y_max}</text>',
        f'<text x="6" y="{_fmt(MARGIN_TOP + plot_h + 4)}">0</text>',
    ]

    # x labels wherever the year changes (plus the first bucket)
    last_year = None
    for i, bucket in enumerate(series.buckets):
        year = bucket.start.year
        if year != last_year:
            parts.append(
                f'<line class="grid" x1="{_fmt(x_at(i))}" y1="{_fmt(MARGIN_TOP)}" '
                f'x2="{_fmt(x_at(i))}" y2="{_fmt(MARGIN_TOP + plot_h)}"/>'
            )
            parts.append(
                f'<text x="{_fmt(x_at(i) - 14)}" y="{_fmt(MARGIN_TOP + plot_h + 16)}">{year}</text>'
            )
            last_year = year

    if n:
        count_points = " ".join(
            f"{_fmt(x_at(i))},{_fmt(y_count(c))}" for i, c in enumerate(series.counts)
        )
        parts.append(f'<polyline id="counts" class="counts" points="{count_points}"/>')
        if measure == "posts":
            # occurrence counts are not bounded by bucket totals, so the 0..1
            # share line only makes sense for the post-count measure
            share_points = " ".join(
                f"{_fmt(x_at(i))},{_fmt(y_share(p))}" for i, p in enumerate(series.proportions)
            )
            parts.append(
                f'<polyline id="proportions" class="proportions" points="{share_points}"/>'
            )
    else:
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2 - 30)}" '
            f'y="{_fmt(MARGIN_TOP + plot_h / 2)}">no data</text>'
        )

    unit = "posts" if measure == "posts" else "lexicon occurrences"
    legend = f"{series.class_key}: {unit} per {series.buckets[0].granularity if n else 'bucket'} (solid, left axis)"
    if measure == "posts":
        legend += " / share of bucket posts (dashed, 0-1)"
    parts.append(
        f'<text x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP + plot_h + 32)}">{_escape(legend)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
