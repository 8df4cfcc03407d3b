"""Unit tests for the report renderer."""

import pytest

from repro.experiments.report import Report


def make_report():
    r = Report(title="T", headers=("name", "value"))
    r.add_row("a", 1)
    r.add_row("b", 2.5)
    return r


class TestReport:
    def test_add_row_validates_width(self):
        r = make_report()
        with pytest.raises(ValueError):
            r.add_row("only-one")

    def test_column(self):
        r = make_report()
        assert r.column("name") == ["a", "b"]
        assert r.column("value") == [1, 2.5]

    def test_column_unknown_header(self):
        with pytest.raises(ValueError):
            make_report().column("ghost")

    def test_row_lookup(self):
        r = make_report()
        assert r.row("b") == ("b", 2.5)

    def test_row_missing(self):
        with pytest.raises(KeyError):
            make_report().row("zz")

    def test_render_contains_everything(self):
        r = make_report()
        r.add_note("hello")
        text = r.render()
        assert "T" in text
        assert "name" in text and "value" in text
        assert "2.50" in text  # floats get two decimals
        assert "note: hello" in text

    def test_render_alignment(self):
        r = Report(title="T", headers=("x",))
        r.add_row("longvalue")
        lines = r.render().splitlines()
        header_line = lines[2]
        assert header_line.startswith("x")

    def test_str_is_render(self):
        r = make_report()
        assert str(r) == r.render()


class TestRenderBars:
    def test_bars_scale_to_peak(self):
        r = Report(title="B", headers=("name", "value"))
        r.add_row("big", 10.0)
        r.add_row("half", 5.0)
        text = r.render_bars("value", width=10)
        lines = text.splitlines()
        assert lines[2].count("#") == 10
        assert lines[3].count("#") == 5

    def test_negative_values_use_minus_glyph(self):
        r = Report(title="B", headers=("name", "value"))
        r.add_row("bad", -4.0)
        r.add_row("good", 4.0)
        text = r.render_bars("value")
        assert "-" * 10 in text.splitlines()[2]

    def test_empty_report(self):
        r = Report(title="B", headers=("name", "value"))
        assert r.render_bars("value") == "B"


class TestJsonRoundtrip:
    def test_json_is_parseable(self):
        import json
        payload = json.loads(make_report().to_json())
        assert payload["headers"] == ["name", "value"]
