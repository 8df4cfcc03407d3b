"""Unit tests for deterministic RNG utilities."""

import pytest

from repro.common.rng import ZipfSampler, make_rng, shuffled_ranks


class TestMakeRng:
    def test_same_seed_same_stream_reproduces(self):
        a = make_rng(42, "trace")
        b = make_rng(42, "trace")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_decorrelate(self):
        a = make_rng(42, "trace")
        b = make_rng(42, "frames")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()


class TestZipfSampler:
    def test_rejects_bad_population(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, make_rng(0))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0, make_rng(0))

    def test_samples_within_range(self):
        sampler = ZipfSampler(100, 1.2, make_rng(1))
        for _ in range(1000):
            assert 0 <= sampler.sample() < 100

    def test_alpha_zero_is_roughly_uniform(self):
        sampler = ZipfSampler(4, 0.0, make_rng(2))
        counts = [0] * 4
        for _ in range(8000):
            counts[sampler.sample()] += 1
        for c in counts:
            assert 1600 < c < 2400

    def test_skew_prefers_low_ranks(self):
        sampler = ZipfSampler(1000, 1.5, make_rng(3))
        draws = [sampler.sample() for _ in range(5000)]
        top10 = sum(1 for d in draws if d < 10)
        # With alpha=1.5 the top-10 ranks take the large majority of mass.
        assert top10 > len(draws) * 0.5

    def test_single_item_population(self):
        sampler = ZipfSampler(1, 2.0, make_rng(4))
        assert sampler.sample() == 0


class TestShuffledRanks:
    def test_is_permutation(self):
        ranks = shuffled_ranks(100, make_rng(5))
        assert sorted(ranks) == list(range(100))

    def test_deterministic(self):
        assert shuffled_ranks(50, make_rng(6)) == shuffled_ranks(50, make_rng(6))
