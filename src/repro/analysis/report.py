"""Plain-text rendering of tables and figure summaries."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence

if TYPE_CHECKING:  # a table renderer must not load the figure builders
    from repro.analysis.figures import FigureSeries

__all__ = ["render_table", "render_series_summary", "ascii_plot"]


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned monospace table."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in materialised)
    return "\n".join(parts)


def render_series_summary(figure: FigureSeries) -> str:
    """One line per series: mean / min / max / first / last."""
    rows = []
    for name, points in figure.series.items():
        if not points:
            rows.append([name, 0, "-", "-", "-", "-", "-"])
            continue
        values = [y for _, y in points]
        rows.append([
            name,
            len(points),
            f"{sum(values) / len(values):.2f}",
            f"{min(values):.2f}",
            f"{max(values):.2f}",
            f"{values[0]:.2f}",
            f"{values[-1]:.2f}",
        ])
    return render_table(
        ["series", "points", "mean", "min", "max", "first", "last"],
        rows,
        title=f"[{figure.figure_id}] {figure.title}",
    )


def ascii_plot(
    figure: FigureSeries,
    width: int = 72,
    height: int = 16,
) -> str:
    """A rough terminal plot of a figure's series (one glyph per series).

    Intended for eyeballing curve shapes from the benchmark harness; it is
    no substitute for real plotting, but makes crossovers and trends
    visible in logs.
    """
    glyphs = "*o+x#@%&"
    all_points = [p for pts in figure.series.values() for p in pts]
    if not all_points:
        return f"[{figure.figure_id}] (no data)"
    xs = [x for x, _ in all_points]
    ys = [y for _, y in all_points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(figure.series.items()):
        glyph = glyphs[index % len(glyphs)]
        for x, y in points:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = glyph
    lines = [f"[{figure.figure_id}] {figure.title}"]
    lines.append(f"y: {y_lo:.1f} .. {y_hi:.1f} ({figure.ylabel})")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f"x: {x_lo:.1f} .. {x_hi:.1f} ({figure.xlabel})")
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={name}"
        for i, name in enumerate(figure.series)
    )
    lines.append(legend)
    return "\n".join(lines)
