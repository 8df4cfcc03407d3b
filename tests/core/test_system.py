"""Unit tests for the Machine system simulator."""

import pytest

from repro.common import addr
from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.workloads.trace import CoreStream, MemoryReference


def looping_stream(core, pages, repeats, vm=0, asid=1, stride=1):
    """A stream touching ``pages`` 4 KiB pages round-robin ``repeats`` times."""
    refs = []
    icount = 0
    for _ in range(repeats):
        for p in range(0, pages, stride):
            icount += 10
            refs.append(MemoryReference(icount, p * addr.SMALL_PAGE_SIZE, False))
    return CoreStream(core=core, vm_id=vm, asid=asid, references=refs)


class TestRun:
    def test_reference_count(self):
        m = Machine(SystemConfig(num_cores=1), scheme="baseline")
        result = m.run([looping_stream(0, pages=10, repeats=3)])
        assert result.references == 30

    def test_max_references_caps_run(self):
        m = Machine(SystemConfig(num_cores=1), scheme="baseline")
        result = m.run([looping_stream(0, pages=10, repeats=3)],
                       max_references=7)
        assert result.references == 7

    def test_rejects_stream_beyond_core_count(self):
        m = Machine(SystemConfig(num_cores=1), scheme="baseline")
        with pytest.raises(ValueError):
            m.run([looping_stream(1, pages=4, repeats=1)])

    @pytest.mark.parametrize("core, vm, asid, message", [
        (-1, 0, 1, "stream core -1 is negative"),
        (0, 70000, 1, "stream vm 70000 outside 0..65535"),
        (0, 0, 70000, "stream asid 70000 outside 0..65535"),
        (0, -1, 1, "stream vm -1"),
        (0, 0, -1, "stream asid -1"),
    ])
    def test_rejects_out_of_range_stream_identity(self, core, vm, asid,
                                                  message):
        # Negative indexing would replay core -1 on the last core, and
        # ids wider than a TLB key's 16-bit fields would alias.
        m = Machine(SystemConfig(num_cores=2), scheme="pom")
        stream = looping_stream(core, pages=7, repeats=7, vm=vm, asid=asid)
        with pytest.raises(ValueError, match=message):
            m.run([stream])
        assert m.last_replay_mode is None

    def test_small_working_set_has_few_misses(self):
        m = Machine(SystemConfig(num_cores=1), scheme="baseline")
        result = m.run([looping_stream(0, pages=8, repeats=100)])
        # 8 pages fit in the L1 TLB: compulsory misses only.
        assert result.l2_tlb_misses == 8
        assert result.page_walks == 8

    def test_instructions_accumulate(self):
        m = Machine(SystemConfig(num_cores=1), scheme="baseline")
        stream = looping_stream(0, pages=10, repeats=2)
        result = m.run([stream])
        assert result.instructions == stream.instructions


class TestPomWalkElimination:
    def test_pom_eliminates_capacity_walks(self):
        # Working set larger than the 1536-entry L2 TLB but tiny for the
        # POM-TLB: after the first pass, walks stop.
        pages = 4096
        base = Machine(SystemConfig(num_cores=1), scheme="baseline")
        pom = Machine(SystemConfig(num_cores=1), scheme="pom")
        stream = looping_stream(0, pages=pages, repeats=3)
        r_base = base.run([stream])
        r_pom = pom.run([stream])
        assert r_base.page_walks > pages  # baseline keeps walking
        assert r_pom.page_walks == pages  # POM: compulsory only
        assert r_pom.walk_elimination > 0.6



class TestResultMetrics:
    def run_pom(self, repeats=3):
        m = Machine(SystemConfig(num_cores=1), scheme="pom")
        return m.run([looping_stream(0, pages=4096, repeats=repeats)])

    def test_avg_penalty(self):
        r = self.run_pom()
        assert r.avg_penalty_per_miss == pytest.approx(
            r.penalty_cycles / r.l2_tlb_misses)

    def test_mpki(self):
        r = self.run_pom()
        assert r.mpki == pytest.approx(1000 * r.l2_tlb_misses / r.instructions)

    def test_fig9_ratios_populated(self):
        r = self.run_pom()
        assert 0 <= r.tlb_cache_hit_ratio("l2") <= 1
        assert 0 <= r.tlb_cache_hit_ratio("l3") <= 1
        assert r.pom_hit_ratio() > 0

    def test_predictor_accuracy_populated(self):
        r = self.run_pom()
        acc = r.predictor_accuracy()
        assert acc["size"] > 0.9  # all-small workload: near-perfect

    def test_row_buffer_hit_rate_range(self):
        r = self.run_pom()
        assert 0 <= r.row_buffer_hit_rate() <= 1

    def test_metrics_zero_safe_on_empty_run(self):
        m = Machine(SystemConfig(num_cores=1), scheme="pom")
        r = m.run([])
        assert r.avg_penalty_per_miss == 0
        assert r.mpki == 0
        assert r.walk_elimination == 0
        assert r.pom_hit_ratio() == 0


class TestNativeMode:
    def test_native_run(self):
        cfg = SystemConfig(num_cores=1, virtualized=False)
        m = Machine(cfg, scheme="baseline")
        result = m.run([looping_stream(0, pages=64, repeats=2)])
        assert result.page_walks == 64

    def test_native_walks_are_cheaper_than_virtualized(self):
        stream = looping_stream(0, pages=2048, repeats=2)
        virt = Machine(SystemConfig(num_cores=1, virtualized=True),
                       scheme="baseline").run([stream])
        native = Machine(SystemConfig(num_cores=1, virtualized=False),
                         scheme="baseline").run([stream])
        assert native.avg_penalty_per_miss < virt.avg_penalty_per_miss


class TestMultiCore:
    def test_streams_interleave_across_cores(self):
        m = Machine(SystemConfig(num_cores=2), scheme="pom")
        streams = [looping_stream(0, pages=128, repeats=2, asid=1),
                   looping_stream(1, pages=128, repeats=2, asid=2)]
        result = m.run(streams)
        assert result.references == 2 * 2 * 128
        # Both cores saw TLB activity.
        assert m.stats["core0.l2_tlb"]["misses"] > 0
        assert m.stats["core1.l2_tlb"]["misses"] > 0

    def test_multi_vm_isolation(self):
        m = Machine(SystemConfig(num_cores=2), scheme="pom")
        streams = [looping_stream(0, pages=64, repeats=1, vm=1, asid=1),
                   looping_stream(1, pages=64, repeats=1, vm=2, asid=1)]
        m.run(streams)
        # Two VMs with identical gVAs must not share translations.
        assert m.stats["mmu"]["page_walks"] == 128


class TestShootdownIntegration:
    def test_machine_shootdown(self):
        m = Machine(SystemConfig(num_cores=1), scheme="pom")
        m.run([looping_stream(0, pages=4, repeats=2)])
        walks = m.stats["mmu"]["page_walks"]
        m.shootdown(0, 1, 0)
        m.run([looping_stream(0, pages=1, repeats=1)])
        assert m.stats["mmu"]["page_walks"] == walks + 1
