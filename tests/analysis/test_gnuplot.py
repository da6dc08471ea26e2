"""Tests for gnuplot export."""

from repro.analysis.figures import FigureSeries
from repro.analysis.gnuplot import export_figure, write_dat, write_script


def figure():
    return FigureSeries(
        figure_id="figX", title="Demo figure", xlabel="Day",
        ylabel="Percent",
        series={
            "SIZE": [(0, 10.0), (1, 12.5)],
            "LRU": [(0, 8.0), (1, 9.0)],
        },
    )


class TestWriteDat:
    def test_blocks_and_points(self, tmp_path):
        path = write_dat(figure(), tmp_path / "f.dat")
        text = path.read_text()
        assert "# SIZE" in text
        assert "# LRU" in text
        assert "0 10" in text
        assert "1 12.5" in text
        # gnuplot index blocks: double blank line between series.
        assert "\n\n\n" in text


class TestWriteScript:
    def test_script_contents(self, tmp_path):
        dat = write_dat(figure(), tmp_path / "f.dat")
        script = write_script(figure(), dat, tmp_path / "f.gp", logscale="xy")
        text = script.read_text()
        assert 'set title "Demo figure"' in text
        assert "set logscale xy" in text
        assert 'index 0' in text and 'index 1' in text
        assert 'title "SIZE"' in text
        assert str(script.with_suffix(".png").name) in text

    def test_default_output_name(self, tmp_path):
        dat = write_dat(figure(), tmp_path / "f.dat")
        script = write_script(figure(), dat, tmp_path / "f.gp")
        assert "f.png" in script.read_text()

    def test_default_output_is_relative(self, tmp_path):
        """The script names its PNG as it names its data file: by file
        name, so ``gnuplot f.gp`` works wherever the pair is copied."""
        dat = write_dat(figure(), tmp_path / "f.dat")
        script = write_script(figure(), dat, tmp_path / "f.gp")
        assert 'set output "f.png"' in script.read_text().splitlines()


class TestExportFigure:
    def test_writes_both_files(self, tmp_path):
        dat, script = export_figure(figure(), tmp_path / "out")
        assert dat.exists() and dat.name == "figX.dat"
        assert script.exists() and script.name == "figX.gp"

    def test_real_figure_exports(self, tmp_path):
        from repro.analysis.figures import fig3_7_infinite_cache
        from repro.core.experiments import run_infinite_cache
        from repro.workloads import generate_valid
        trace = generate_valid("C", seed=2, scale=0.02)
        result = run_infinite_cache(trace, "C")
        real = fig3_7_infinite_cache(result, "C")
        dat, script = export_figure(real, tmp_path)
        assert dat.stat().st_size > 0
        assert "fig5" in script.name
