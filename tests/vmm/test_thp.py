"""Unit tests for the THP page-size policy."""

import pytest

from repro.vmm.thp import ThpPolicy


class TestThpPolicy:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            ThpPolicy(-0.1)
        with pytest.raises(ValueError):
            ThpPolicy(1.1)

    def test_all_small(self):
        thp = ThpPolicy(0.0)
        assert not any(thp.is_large_region(1, r) for r in range(100))

    def test_all_large(self):
        thp = ThpPolicy(1.0)
        assert all(thp.is_large_region(1, r) for r in range(100))

    def test_decision_is_stable(self):
        thp = ThpPolicy(0.5, seed=3)
        first = [thp.is_large_region(1, r) for r in range(50)]
        second = [thp.is_large_region(1, r) for r in range(50)]
        assert first == second

    def test_same_seed_reproduces_across_instances(self):
        a = ThpPolicy(0.5, seed=3)
        b = ThpPolicy(0.5, seed=3)
        assert [a.is_large_region(1, r) for r in range(50)] == \
               [b.is_large_region(1, r) for r in range(50)]

    def test_different_seeds_differ(self):
        a = ThpPolicy(0.5, seed=3)
        b = ThpPolicy(0.5, seed=4)
        assert [a.is_large_region(1, r) for r in range(200)] != \
               [b.is_large_region(1, r) for r in range(200)]

    def test_fraction_is_approximately_respected(self):
        thp = ThpPolicy(0.3, seed=7)
        large = sum(thp.is_large_region(1, r) for r in range(2000))
        assert 0.25 < large / 2000 < 0.35
