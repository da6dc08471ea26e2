"""Gnuplot export for regenerated figures.

The paper's figures are classic mid-90s gnuplot; this module writes each
:class:`~repro.analysis.figures.FigureSeries` as a ``.dat`` file (one
block per series) plus a ready-to-run ``.gp`` script, so anyone with
gnuplot can redraw the paper's plots from the reproduction's data::

    gnuplot benchmarks/results/fig8.gp   # writes fig8.png
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Tuple, Union

from repro.analysis.figures import FigureSeries

__all__ = ["write_dat", "write_script", "export_figure"]


def write_dat(figure: FigureSeries, path: Union[str, Path]) -> Path:
    """Write the figure's series as a gnuplot data file.

    Series are separated by double blank lines (gnuplot ``index`` blocks),
    each preceded by a ``# name`` comment.
    """
    path = Path(path)
    blocks: List[str] = []
    for name, points in figure.series.items():
        lines = [f"# {name}"]
        lines.extend(f"{x:.6g} {y:.6g}" for x, y in points)
        blocks.append("\n".join(lines))
    path.write_text("\n\n\n".join(blocks) + "\n", encoding="utf-8")
    return path


def write_script(
    figure: FigureSeries,
    dat_path: Union[str, Path],
    path: Union[str, Path],
    logscale: str = "",
    with_style: str = "lines",
    output: Union[str, Path, None] = None,
) -> Path:
    """Write a gnuplot script plotting every series of ``figure``.

    Args:
        figure: the series to plot.
        dat_path: data file produced by :func:`write_dat`.
        path: where to write the ``.gp`` script.
        logscale: e.g. ``"xy"`` for the rank-distribution figures.
        with_style: gnuplot style (``lines``, ``points``, ...).
        output: PNG path; defaults to the script's file name with
            ``.png``, relative like the data path, so the script runs
            from its own directory in any checkout.
    """
    path = Path(path)
    dat_path = Path(dat_path)
    if output is None:
        output = path.with_suffix(".png").name
    lines = [
        "set terminal png size 900,600",
        f'set output "{output}"',
        f'set title "{figure.title}"',
        f'set xlabel "{figure.xlabel}"',
        f'set ylabel "{figure.ylabel}"',
        "set key outside",
    ]
    if logscale:
        lines.append(f"set logscale {logscale}")
    plot_parts = [
        f'"{dat_path.name}" index {index} with {with_style} '
        f'title "{name}"'
        for index, name in enumerate(figure.series)
    ]
    lines.append("plot " + ", \\\n     ".join(plot_parts))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def export_figure(
    figure: FigureSeries,
    directory: Union[str, Path],
    logscale: str = "",
    with_style: str = "lines",
) -> Tuple[Path, Path]:
    """Write ``<figure_id>.dat`` and ``<figure_id>.gp`` into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dat = write_dat(figure, directory / f"{figure.figure_id}.dat")
    script = write_script(
        figure, dat, directory / f"{figure.figure_id}.gp",
        logscale=logscale, with_style=with_style,
    )
    return dat, script
