"""Unit tests for the statistics counters."""

import pytest

from repro.common.stats import StatGroup, StatRegistry


class TestStatGroup:
    def test_inc_creates_and_accumulates(self):
        g = StatGroup("g")
        g.inc("hits")
        g.inc("hits", 2)
        assert g["hits"] == 3

    def test_missing_counter_reads_zero(self):
        g = StatGroup("g")
        assert g["nothing"] == 0
        assert g.get("nothing", 7) == 7

    def test_set_overwrites(self):
        g = StatGroup("g")
        g.inc("x", 5)
        g.set("x", 1)
        assert g["x"] == 1

    def test_ratio(self):
        g = StatGroup("g")
        g.inc("hits", 3)
        g.inc("total", 4)
        assert g.ratio("hits", "total") == pytest.approx(0.75)

    def test_ratio_zero_denominator_is_zero(self):
        g = StatGroup("g")
        assert g.ratio("hits", "total") == 0.0

    def test_contains(self):
        g = StatGroup("g")
        assert "hits" not in g
        g.inc("hits")
        assert "hits" in g

    def test_reset(self):
        g = StatGroup("g")
        g.inc("hits")
        g.reset()
        assert g["hits"] == 0
        assert g.as_dict() == {}

    def test_reset_forgets_keys_entirely(self):
        g = StatGroup("g")
        g.inc("hits", 4)
        g.reset()
        assert "hits" not in g           # forgotten, not kept at zero
        assert list(g) == []
        g.inc("hits")                    # recreated from scratch at zero
        assert g["hits"] == 1

    def test_merge(self):
        a, b = StatGroup("a"), StatGroup("b")
        a.inc("x", 1)
        b.inc("x", 2)
        b.inc("y", 3)
        a.merge(b)
        assert a["x"] == 3
        assert a["y"] == 3

    def test_merge_accumulates_and_leaves_source_untouched(self):
        a, b = StatGroup("a"), StatGroup("b")
        b.inc("x", 2.5)
        a.merge(b)
        a.merge(b)                       # merging twice doubles, not replaces
        assert a["x"] == 5.0
        assert b.as_dict() == {"x": 2.5}

    def test_merge_empty_group_is_identity(self):
        a = StatGroup("a")
        a.inc("x", 7)
        a.merge(StatGroup("b"))
        assert a.as_dict() == {"x": 7}

    def test_merge_after_reset_starts_from_zero(self):
        a, b = StatGroup("a"), StatGroup("b")
        a.inc("x", 100)
        b.inc("x", 3)
        a.reset()
        a.merge(b)
        assert a["x"] == 3

    def test_as_dict_sorted(self):
        g = StatGroup("g")
        g.inc("z")
        g.inc("a")
        assert list(g.as_dict()) == ["a", "z"]

    def test_iteration(self):
        g = StatGroup("g")
        g.inc("b", 2)
        g.inc("a", 1)
        assert list(g) == [("a", 1), ("b", 2)]


class TestStatRegistry:
    def test_group_is_created_once(self):
        reg = StatRegistry()
        assert reg.group("x") is reg.group("x")

    def test_registry_reset_forgets_keys_but_keeps_groups(self):
        reg = StatRegistry()
        g = reg.group("a")
        g.inc("n", 5)
        reg.reset()
        assert "a" in reg                # group survives
        assert reg["a"] is g
        assert "n" not in g              # its counters do not

    def test_contains_and_groups(self):
        reg = StatRegistry()
        reg.group("a")
        assert "a" in reg
        assert "b" not in reg
        assert set(reg.groups()) == {"a"}

    def test_reset_all(self):
        reg = StatRegistry()
        reg.group("a").inc("n", 5)
        reg.reset()
        assert reg["a"]["n"] == 0

    def test_nested_dict_snapshot(self):
        reg = StatRegistry()
        reg.group("a").inc("n", 5)
        assert reg.as_nested_dict() == {"a": {"n": 5}}

    def test_render_formats_ints_and_floats(self):
        reg = StatRegistry()
        reg.group("a").inc("n", 5)
        reg.group("a").set("r", 0.5)
        text = reg.render()
        assert "a.n = 5" in text
        assert "a.r = 0.5" in text
