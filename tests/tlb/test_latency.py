"""Unit tests for the CACTI-like SRAM latency model (Figure 4 substrate)."""

import pytest

from repro.common import addr
from repro.tlb import latency


class TestAccessTime:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            latency.access_time(0)

    def test_monotonic_in_capacity(self):
        sizes = [16 * addr.KiB << i for i in range(11)]
        times = [latency.access_time(s) for s in sizes]
        assert times == sorted(times)
        assert len(set(times)) == len(times)


class TestNormalizedLatency:
    def test_reference_is_one(self):
        assert latency.normalized_latency(latency.REFERENCE_CAPACITY) == pytest.approx(1.0)

    def test_growth_is_superlinear_in_sqrt(self):
        # Quadrupling capacity should roughly double wire delay.
        x4 = latency.normalized_latency(64 * addr.KiB)
        assert 1.5 < x4 < 2.5

    def test_16mib_does_not_scale(self):
        # The paper's Figure 4 argument: MB-scale SRAM is order-of-
        # magnitude slower than the 16KiB reference.
        assert latency.normalized_latency(16 * addr.MiB) > 10


class TestLatencyCycles:
    def test_anchor_is_l2_tlb(self):
        # A 1536-entry TLB (~24KiB of 16B entries) costs ~9 cycles.
        assert latency.latency_cycles(1536 * 16) == 9

    def test_bigger_arrays_cost_more_cycles(self):
        small = latency.latency_cycles(1536 * 16)
        big = latency.latency_cycles(1536 * 8 * 16)
        assert big > small

    def test_never_below_one_cycle(self):
        assert latency.latency_cycles(64) >= 1


class TestSweep:
    def test_default_sweep_covers_16k_to_16m(self):
        points = latency.capacity_sweep()
        assert points[0][0] == 16 * addr.KiB
        assert points[-1][0] == 16 * addr.MiB
        assert len(points) == 11

    def test_custom_capacities(self):
        points = latency.capacity_sweep([addr.MiB])
        assert len(points) == 1 and points[0][0] == addr.MiB
