"""Unit tests for replacement policies."""

import random

import pytest

from repro.cache.replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    make_policy,
)


class TestLruPolicy:
    def test_victim_is_least_recent(self):
        p = LruPolicy()
        p.touch("a")
        p.touch("b")
        p.touch("c")
        assert p.victim() == "a"

    def test_touch_refreshes(self):
        p = LruPolicy()
        p.touch("a")
        p.touch("b")
        p.touch("a")
        assert p.victim() == "b"

    def test_keys_in_recency_order(self):
        p = LruPolicy()
        for k in "abc":
            p.touch(k)
        p.touch("a")
        assert list(p.keys()) == ["b", "c", "a"]


class TestFifoPolicy:
    def test_hit_does_not_refresh(self):
        p = FifoPolicy()
        p.touch("a")
        p.touch("b")
        p.touch("a")  # re-touch must not move "a" back
        assert p.victim() == "a"


class TestRandomPolicy:
    def test_victim_is_member(self):
        p = RandomPolicy(random.Random(0))
        for k in range(10):
            p.touch(k)
        for _ in range(20):
            assert p.victim() in set(p.keys())

    def test_double_touch_is_idempotent(self):
        p = RandomPolicy(random.Random(0))
        p.touch("a")
        p.touch("a")
        assert len(p) == 1


class TestMakePolicy:
    @pytest.mark.parametrize("name,cls", [
        ("lru", LruPolicy), ("fifo", FifoPolicy), ("random", RandomPolicy)])
    def test_known_names(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_policy("plru")
