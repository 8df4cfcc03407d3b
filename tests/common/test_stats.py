"""Unit tests for the statistics counters."""

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

    def test_set_overwrites(self):
        g = StatGroup("g")
        g.inc("x", 5)
        g.set("x", 1)
        assert g["x"] == 1

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
        assert g.as_dict() == {}
        g.inc("hits")                    # recreated from scratch at zero
        assert g["hits"] == 1

    def test_as_dict_sorted(self):
        g = StatGroup("g")
        g.inc("z")
        g.inc("a")
        assert list(g.as_dict()) == ["a", "z"]

    def test_zero_valued_counters_are_not_reported(self):
        g = StatGroup("g")
        g.inc("x", 0)
        assert "x" not in g
        assert g.as_dict() == {}
        g.inc("y", 2)
        g.inc("y", -2)
        assert "y" not in g
        assert g.as_dict() == {}

    def test_write_through_a_bound_slot_is_reported(self):
        g = StatGroup("g")
        g.counter("x").value += 3
        assert "x" in g
        assert g["x"] == 3
        assert g.as_dict() == {"x": 3}


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
