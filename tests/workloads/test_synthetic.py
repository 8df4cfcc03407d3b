"""Unit tests for the synthetic pattern generators."""

from itertools import islice

import pytest

from repro.common.rng import make_rng
from repro.workloads.synthetic import (
    PATTERNS,
    pointer_chase,
    sequential,
    strided,
    uniform_random,
    zipf,
)


def take(gen, n):
    return list(islice(gen, n))


class TestSequential:
    def test_wraps_around(self):
        gen = sequential(4, make_rng(0), {})
        assert take(gen, 6) == [0, 1, 2, 3, 0, 1]

    def test_random_start(self):
        gen = sequential(1000, make_rng(1), {"random_start": True})
        first = next(gen)
        assert 0 <= first < 1000


class TestStrided:
    def test_covers_all_pages_per_pass(self):
        gen = strided(32, make_rng(0), {"stride": 5})
        pages = take(gen, 32)
        assert sorted(pages) == list(range(32))

    def test_stride_adjusted_to_coprime(self):
        # stride 4 shares a factor with 32; generator must fix it up.
        gen = strided(32, make_rng(0), {"stride": 4})
        assert sorted(take(gen, 32)) == list(range(32))

    def test_constant_stride(self):
        gen = strided(31, make_rng(0), {"stride": 7})
        pages = take(gen, 4)
        deltas = {(b - a) % 31 for a, b in zip(pages, pages[1:])}
        assert deltas == {7}


class TestZipf:
    def test_in_range(self):
        gen = zipf(100, make_rng(2), {"alpha": 1.0})
        assert all(0 <= p < 100 for p in take(gen, 500))

    def test_hot_pages_are_low_indices(self):
        gen = zipf(1000, make_rng(3), {"alpha": 1.2})
        pages = take(gen, 3000)
        low = sum(1 for p in pages if p < 50)
        assert low > len(pages) * 0.4


class TestUniformRandom:
    def test_spreads_over_footprint(self):
        gen = uniform_random(1000, make_rng(4), {})
        pages = set(take(gen, 3000))
        assert len(pages) > 800


class TestPointerChase:
    def test_is_a_permutation_cycle(self):
        gen = pointer_chase(64, make_rng(5), {})
        pages = take(gen, 64)
        assert sorted(pages) == list(range(64))  # full cycle, no repeats

    def test_cycle_repeats_exactly(self):
        gen = pointer_chase(64, make_rng(6), {})
        first = take(gen, 64)
        second = take(gen, 64)
        assert first == second

    def test_not_sequential(self):
        gen = pointer_chase(256, make_rng(7), {})
        pages = take(gen, 256)
        adjacent = sum(1 for a, b in zip(pages, pages[1:]) if b == a + 1)
        assert adjacent < 20


class TestMakePattern:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_all_patterns_constructible(self, name):
        gen = PATTERNS[name](64, make_rng(8), {})
        assert all(0 <= p < 64 for p in take(gen, 50))

    def test_determinism(self):
        a = take(zipf(100, make_rng(9), {"alpha": 1.0}), 50)
        b = take(zipf(100, make_rng(9), {"alpha": 1.0}), 50)
        assert a == b
