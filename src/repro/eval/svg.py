"""SVG renderings of the paper's figures (no plotting dependencies).

Figures 8 and 9 are grouped bar charts on a log axis.  This module emits
them as self-contained SVG documents: one group of bars per kernel, one
bar per machine (model value), with the paper's value drawn as a tick so
the comparison is visible in the figure itself, exactly like the text
renderer in :mod:`repro.eval.figures` but as a real graphic.

The XML is hand-assembled; the structure is simple enough that the tests
parse it back with :mod:`xml.etree` and check the geometry.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ExperimentError

#: Distinct fill per machine (hex, color-blind-safe-ish).
MACHINE_COLORS = {
    "ppc": "#9aa0a6",
    "altivec": "#5f6368",
    "viram": "#1a73e8",
    "imagine": "#e8710a",
    "raw": "#188038",
}
DEFAULT_COLOR = "#7b1fa2"

BAR_WIDTH = 28
BAR_GAP = 8
GROUP_GAP = 48
CHART_HEIGHT = 280
MARGIN_LEFT = 56
MARGIN_TOP = 48
MARGIN_BOTTOM = 72


def _log_height(value: float, vmax: float) -> float:
    """Bar height on a log axis from 0.1 to vmax."""
    floor = 0.1
    if value <= floor:
        return 1.0
    span = math.log10(vmax / floor)
    return CHART_HEIGHT * math.log10(value / floor) / span


def speedup_figure_svg(
    title: str,
    data: Mapping[str, Mapping[str, float]],
    paper: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> str:
    """Render a Figure 8/9-style grouped log-bar chart as an SVG string.

    ``data`` maps kernel -> machine -> model speedup; ``paper``
    optionally supplies published values, drawn as horizontal ticks over
    the bars.
    """
    if not data:
        raise ExperimentError("no data to render")
    values = [v for series in data.values() for v in series.values()]
    if paper:
        values += [v for series in paper.values() for v in series.values()]
    vmax = max(max(values), 1.0) * 1.2

    parts = []
    x = MARGIN_LEFT
    baseline = MARGIN_TOP + CHART_HEIGHT
    for kernel, series in data.items():
        group_start = x
        for machine, value in series.items():
            height = _log_height(value, vmax)
            color = MACHINE_COLORS.get(machine, DEFAULT_COLOR)
            parts.append(
                f'<rect class="bar" data-kernel="{kernel}" '
                f'data-machine="{machine}" data-value="{value:.4g}" '
                f'x="{x}" y="{baseline - height:.1f}" width="{BAR_WIDTH}" '
                f'height="{height:.1f}" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{x + BAR_WIDTH / 2}" y="{baseline + 14}" '
                f'font-size="9" text-anchor="middle">{machine}</text>'
            )
            if paper and machine in paper.get(kernel, {}):
                tick_y = baseline - _log_height(paper[kernel][machine], vmax)
                parts.append(
                    f'<line class="paper-tick" data-kernel="{kernel}" '
                    f'data-machine="{machine}" x1="{x - 3}" '
                    f'y1="{tick_y:.1f}" x2="{x + BAR_WIDTH + 3}" '
                    f'y2="{tick_y:.1f}" stroke="#d93025" '
                    'stroke-width="2"/>'
                )
            x += BAR_WIDTH + BAR_GAP
        label_x = (group_start + x - BAR_GAP) / 2
        parts.append(
            f'<text x="{label_x}" y="{baseline + 32}" font-size="11" '
            f'font-weight="bold" text-anchor="middle">{kernel}</text>'
        )
        x += GROUP_GAP

    width = x + MARGIN_LEFT - GROUP_GAP
    # Log gridlines at powers of ten.
    grid = []
    decade = 1.0
    while decade <= vmax:
        y = baseline - _log_height(decade, vmax)
        grid.append(
            f'<line x1="{MARGIN_LEFT - 8}" y1="{y:.1f}" x2="{width - 8}" '
            f'y2="{y:.1f}" stroke="#dadce0" stroke-width="1"/>'
            f'<text x="{MARGIN_LEFT - 12}" y="{y + 3:.1f}" font-size="9" '
            f'text-anchor="end">{decade:g}x</text>'
        )
        decade *= 10.0

    height_total = baseline + MARGIN_BOTTOM
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height_total}" viewBox="0 0 {width} {height_total}" '
        'font-family="sans-serif">'
        f'<title>{title}</title>'
        f'<text x="{MARGIN_LEFT}" y="{MARGIN_TOP - 24}" font-size="13" '
        f'font-weight="bold">{title}</text>'
        f'<text x="{MARGIN_LEFT}" y="{MARGIN_TOP - 8}" font-size="10" '
        'fill="#5f6368">bars: model; red ticks: paper; log scale</text>'
        + "".join(grid)
        + f'<line x1="{MARGIN_LEFT - 8}" y1="{baseline}" x2="{width - 8}" '
        f'y2="{baseline}" stroke="#202124" stroke-width="1"/>'
        + "".join(parts)
        + "</svg>"
    )


#: Row fill per resource class (first track-path component) for the
#: utilization timeline; classes without an entry fall back.
CLASS_COLORS = {
    "accounting": "#1a73e8",
    "dram": "#e8710a",
    "tlb": "#d93025",
    "cache": "#9334e6",
    "resource": "#188038",
    "engine": "#5f6368",
    "viram": "#129eaf",
    "imagine": "#b06000",
    "raw": "#0d652d",
    "ppc": "#3c4043",
}

TL_ROW_HEIGHT = 20
TL_ROW_GAP = 6
TL_LABEL_WIDTH = 230
TL_CHART_WIDTH = 640
TL_MARGIN_TOP = 52
TL_MARGIN_BOTTOM = 40


def utilization_timeline_svg(
    title: str,
    tracks: Mapping[str, Sequence[Tuple[float, float]]],
    total: float,
) -> str:
    """Render per-track busy/idle segments as a Gantt-style SVG.

    ``tracks`` maps track name -> merged ``(start, end)`` busy intervals
    (cycles); ``total`` is the horizon the horizontal axis spans.  Each
    busy interval becomes a ``rect`` carrying ``data-track``/
    ``data-start``/``data-end``, and each row a ``data-busy`` total, so
    the tests can parse the geometry back out, mirroring
    :func:`speedup_figure_svg`.
    """
    if not tracks:
        raise ExperimentError("no tracks to render")
    if total <= 0:
        raise ExperimentError(f"non-positive horizon {total}")

    def x_of(cycles: float) -> float:
        return TL_LABEL_WIDTH + TL_CHART_WIDTH * cycles / total

    parts = []
    y = TL_MARGIN_TOP
    for track, segments in tracks.items():
        cls = track.split("/", 1)[0]
        color = CLASS_COLORS.get(cls, DEFAULT_COLOR)
        busy = sum(end - start for start, end in segments)
        parts.append(
            f'<text x="{TL_LABEL_WIDTH - 8}" y="{y + TL_ROW_HEIGHT - 6}" '
            f'font-size="10" text-anchor="end">{track}</text>'
        )
        parts.append(
            f'<rect class="row" data-track="{track}" '
            f'data-busy="{busy:.4f}" x="{TL_LABEL_WIDTH}" y="{y}" '
            f'width="{TL_CHART_WIDTH}" height="{TL_ROW_HEIGHT}" '
            'fill="#f1f3f4"/>'
        )
        for start, end in segments:
            width = max(0.5, x_of(end) - x_of(start))
            parts.append(
                f'<rect class="busy" data-track="{track}" '
                f'data-start="{start:.4f}" data-end="{end:.4f}" '
                f'x="{x_of(start):.2f}" y="{y + 2}" width="{width:.2f}" '
                f'height="{TL_ROW_HEIGHT - 4}" fill="{color}"/>'
            )
        y += TL_ROW_HEIGHT + TL_ROW_GAP

    # Cycle axis: five evenly spaced ticks including 0 and the horizon.
    axis = []
    for i in range(5):
        cycles = total * i / 4
        x = x_of(cycles)
        axis.append(
            f'<line x1="{x:.2f}" y1="{TL_MARGIN_TOP - 6}" x2="{x:.2f}" '
            f'y2="{y}" stroke="#dadce0" stroke-width="1"/>'
            f'<text x="{x:.2f}" y="{y + 16}" font-size="9" '
            f'text-anchor="middle">{cycles:,.0f}</text>'
        )

    width = TL_LABEL_WIDTH + TL_CHART_WIDTH + 24
    height = y + TL_MARGIN_BOTTOM
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="sans-serif">'
        f'<title>{title}</title>'
        f'<text x="16" y="22" font-size="13" font-weight="bold">'
        f'{title}</text>'
        f'<text x="16" y="38" font-size="10" fill="#5f6368">'
        'per-track busy intervals, simulated cycles</text>'
        + "".join(axis)
        + "".join(parts)
        + "</svg>"
    )


def figure_svgs(results=None) -> Dict[str, str]:
    """``figure8.svg`` and ``figure9.svg`` as text, by file name.

    Runs the Table 3 sweep (or reuses ``results``) and renders both
    speedup figures with the paper's values as ticks.
    """
    from repro.eval.experiments import FIGURES, exp_figure
    from repro.eval.tables import run_table3

    results = results if results is not None else run_table3()
    svgs = {}
    for figure in FIGURES:
        outcome = exp_figure(figure, results=results)
        paper = {
            kernel: {
                machine: outcome.checks[f"{kernel}_{machine}"][1]
                for machine in series
            }
            for kernel, series in outcome.data.items()
        }
        svgs[f"{outcome.id}.svg"] = speedup_figure_svg(
            outcome.title, outcome.data, paper
        )
    return svgs


def write_figures(
    directory: Union[str, Path],
    results=None,
) -> "list[Path]":
    """Write :func:`figure_svgs` into ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, svg in figure_svgs(results).items():
        path = directory / name
        path.write_text(svg)
        written.append(path)
    return written
