"""Unit tests for the log-bucketed latency histogram."""

import pytest

from repro.obs.histogram import LogHistogram


class TestEmpty:
    def test_empty_percentiles_are_zero(self):
        h = LogHistogram("t")
        assert h.count == 0
        assert h.percentile(50) == 0.0
        assert h.p50 == 0.0 and h.p99 == 0.0
        assert h.mean == 0.0

    def test_empty_as_dict(self):
        d = LogHistogram("t").as_dict()
        assert d["count"] == 0
        assert d["min"] == 0 and d["max"] == 0
        assert d["buckets"] == []


class TestSingleSample:
    def test_all_percentiles_equal_the_sample(self):
        h = LogHistogram()
        h.record(37)
        for p in (0, 1, 50, 90, 99, 100):
            assert h.percentile(p) == 37.0
        assert h.min == 37 and h.max == 37
        assert h.mean == 37.0

    def test_zero_value_lands_in_bucket_zero(self):
        h = LogHistogram()
        h.record(0)
        assert h.buckets() == [[0, 0, 1]]
        assert h.p50 == 0.0


class TestBucketBoundaries:
    def test_powers_of_two_open_new_buckets(self):
        h = LogHistogram()
        for v in (1, 2, 4, 8):
            h.record(v)
        # bucket b holds [2**(b-1), 2**b - 1]
        assert h.buckets() == [[1, 1, 1], [2, 3, 1], [4, 7, 1], [8, 15, 1]]

    def test_bucket_upper_edge_stays_in_bucket(self):
        h = LogHistogram()
        h.record(3)  # top of bucket 2 ([2, 3])
        h.record(4)  # bottom of bucket 3 ([4, 7])
        assert h.buckets() == [[2, 3, 1], [4, 7, 1]]

    def test_percentile_clamped_to_observed_range(self):
        h = LogHistogram()
        for _ in range(100):
            h.record(5)  # bucket [4, 7]; interpolation alone would drift
        assert h.percentile(50) == 5.0
        assert h.percentile(99) == 5.0
        assert h.percentile(100) == 5.0

    def test_percentile_monotone_in_p(self):
        h = LogHistogram()
        for v in (1, 2, 3, 10, 20, 100, 500, 1000):
            h.record(v)
        quantiles = [h.percentile(p) for p in (0, 25, 50, 75, 90, 99, 100)]
        assert quantiles == sorted(quantiles)
        assert quantiles[-1] == 1000.0

    def test_out_of_range_percentile_raises(self):
        h = LogHistogram()
        h.record(1)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_negative_values_clamp_to_zero(self):
        h = LogHistogram()
        h.record(-5)
        assert h.min == 0 and h.max == 0
        assert h.buckets() == [[0, 0, 1]]


class TestLifecycle:
    def test_reset_forgets_everything(self):
        h = LogHistogram("t")
        h.record(9)
        h.reset()
        assert h.count == 0 and h.total == 0
        assert h.min is None and h.max == 0
        assert h.buckets() == []
        assert h.percentile(50) == 0.0

    def test_as_dict_is_json_ready(self):
        import json
        h = LogHistogram("lat")
        for v in (1, 5, 1000):
            h.record(v)
        d = json.loads(json.dumps(h.as_dict()))
        assert d["name"] == "lat"
        assert d["count"] == 3
        assert d["p50"] >= d["min"]
