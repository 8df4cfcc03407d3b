"""Shootdowns and a VM teardown through the POM-TLB and Shared_L2.

The golden fixtures' lifecycle cases replay shootdown storms and
teardowns on the suite's workloads; this test aims a denser storm at
the invalidation paths of the POM flow and of Shared_L2's shadow and
shared arrays: a run with 24 mid-run shootdowns and one ``destroy_vm``,
with every invariant checker armed, must reproduce the full stat
snapshot recorded before the partitioned and skewed schemes shared one
miss flow (``pom``, ``pom_skewed``) and before Shared_L2's shadow
became its private L2 (``shared_l2``).  Small private L2 TLBs and a
16 KiB POM-TLB make the run hit the POM-TLB at both sizes, evict from
it and bypass the caches.
"""

import random

import pytest

from repro.common import addr
from repro.common.config import (MmuConfig, PomTlbConfig, SystemConfig,
                                 TlbConfig)
from repro.core.system import Machine
from repro.workloads.lifecycle import LifecycleEvent
from repro.workloads.trace import CoreStream, MemoryReference


def _run(scheme):
    mmu = MmuConfig(l2_unified=TlbConfig(name="l2_tlb", entries=128, ways=4,
                                         latency_cycles=9,
                                         miss_penalty_cycles=17))
    config = SystemConfig(num_cores=2, mmu=mmu,
                          pom_tlb=PomTlbConfig(size_bytes=16 * addr.KiB))
    machine = Machine(config, scheme=scheme, thp_large_fraction=0.3,
                      seed=11, verify=True)
    rng = random.Random(5)
    pages = [rng.randrange(1 << 16) << 12 for _ in range(400)]
    streams = [CoreStream(core, core, 1, [
        MemoryReference(4 * i, rng.choice(pages) | (8 * i & 0xFFF),
                        i % 5 == 0) for i in range(1500)])
        for core in range(2)]
    events = [LifecycleEvent(position=1000 + 60 * n, kind="shootdown",
                             vm_id=n % 2, asid=1, vaddr=vaddr)
              for n, vaddr in enumerate(pages[:24])]
    events.append(LifecycleEvent(position=2000, kind="destroy_vm", vm_id=1))
    machine.run(streams, events=events)
    assert machine.last_replay_mode == "scalar"
    return machine.stats.as_nested_dict()


EXPECTED = {
    "pom": {
        "core0.l1_tlb_2m": {"evictions": 30, "fills": 58, "hits": 316,
            "misses": 58, "shootdowns": 3},
        "core0.l1_tlb_4k": {"evictions": 841, "fills": 906, "hits": 220,
            "misses": 906, "shootdowns": 1},
        "core0.l1d": {"data_evictions": 1615, "data_fills": 2127,
            "data_hits": 973, "data_misses": 2127},
        "core0.l2_tlb": {"evictions": 651, "fills": 782, "hits": 182,
            "misses": 782, "shootdowns": 3},
        "core0.l2d": {"data_evictions": 79, "data_fills": 1836,
            "data_hits": 291, "data_misses": 1836, "tlb_evictions": 2,
            "tlb_fills": 1032, "tlb_hits": 711, "tlb_misses": 548},
        "core0.predictor": {"bypass_correct": 278, "bypass_wrong": 34,
            "size_correct": 712, "size_wrong": 70},
        "core0.vm0.asid1.gpsc": {"misses": 10, "pde_hits": 133,
            "pdp_hits": 327},
        "core0.vm0.asid1.hpsc": {"misses": 1, "pde_hits": 768, "pdp_hits": 33,
            "pml4_hits": 1},
        "core0.vm0.asid1.walker": {"nested_cycles": 90076, "nested_refs": 1600,
            "nested_walks": 470},
        "core1.l1_tlb_2m": {"evictions": 22, "fills": 80, "hits": 319,
            "misses": 80, "shootdowns": 30},
        "core1.l1_tlb_4k": {"evictions": 768, "fills": 898, "hits": 203,
            "misses": 898, "shootdowns": 66},
        "core1.l1d": {"data_evictions": 1728, "data_fills": 2240,
            "data_hits": 1276, "data_misses": 2240},
        "core1.l2_tlb": {"evictions": 552, "fills": 810, "hits": 168,
            "misses": 810, "shootdowns": 131},
        "core1.l2d": {"data_evictions": 80, "data_fills": 2046,
            "data_hits": 194, "data_misses": 2046, "tlb_fills": 1155,
            "tlb_hits": 877, "tlb_misses": 546},
        "core1.predictor": {"bypass_correct": 204, "bypass_wrong": 1,
            "size_correct": 719, "size_wrong": 91},
        "core1.vm1.asid1.gpsc": {"misses": 10, "pde_hits": 168,
            "pdp_hits": 427},
        "core1.vm1.asid1.hpsc": {"misses": 2, "pde_hits": 944, "pdp_hits": 61,
            "pml4_hits": 2},
        "core1.vm1.asid1.walker": {"nested_cycles": 136957,
            "nested_refs": 2016, "nested_walks": 605},
        "l3d": {"data_fills": 3874, "data_hits": 8, "data_misses": 3874,
            "tlb_fills": 1498, "tlb_hits": 689, "tlb_misses": 405},
        "main_dram": {"accesses": 3874, "bytes": 247936, "row_conflicts": 3792,
            "row_hits": 66, "row_misses": 16},
        "mmu": {"l2_tlb_misses": 1592, "page_walk_cycles": 227033,
            "page_walks": 1075, "penalty_cycles": 319361,
            "shootdown_cycles": 3492, "shootdowns": 24},
        "pom_flow": {"resolved_by_walk": 1075, "resolved_first_try": 484,
            "resolved_second_try": 33, "set_from_dram": 405,
            "set_from_dram_bypass": 18, "set_from_l2": 1588,
            "set_from_l3": 689},
        "pom_tlb": {"evictions": 353, "fills": 1075, "hits_large": 32,
            "hits_small": 485, "misses_large": 1085, "misses_small": 1098,
            "shootdowns": 251},
        "stacked_dram": {"accesses": 438, "bytes": 28032, "row_hits": 430,
            "row_misses": 8},
        "writebacks": {},
    },
    "pom_skewed": {
        "core0.l1_tlb_2m": {"evictions": 30, "fills": 58, "hits": 316,
            "misses": 58, "shootdowns": 3},
        "core0.l1_tlb_4k": {"evictions": 841, "fills": 906, "hits": 220,
            "misses": 906, "shootdowns": 1},
        "core0.l1d": {"data_evictions": 1452, "data_fills": 1964,
            "data_hits": 711, "data_misses": 1964},
        "core0.l2_tlb": {"evictions": 651, "fills": 782, "hits": 182,
            "misses": 782, "shootdowns": 3},
        "core0.l2d": {"data_evictions": 74, "data_fills": 1833,
            "data_hits": 131, "data_misses": 1833, "tlb_fills": 1073,
            "tlb_hits": 2913, "tlb_misses": 719},
        "core0.predictor": {"bypass_correct": 421, "bypass_wrong": 18,
            "size_correct": 712, "size_wrong": 70},
        "core0.vm0.asid1.gpsc": {"misses": 9, "pde_hits": 89, "pdp_hits": 245},
        "core0.vm0.asid1.hpsc": {"misses": 1, "pde_hits": 555, "pdp_hits": 33,
            "pml4_hits": 1},
        "core0.vm0.asid1.walker": {"nested_cycles": 86326, "nested_refs": 1175,
            "nested_walks": 343},
        "core1.l1_tlb_2m": {"evictions": 22, "fills": 80, "hits": 319,
            "misses": 80, "shootdowns": 30},
        "core1.l1_tlb_4k": {"evictions": 768, "fills": 898, "hits": 203,
            "misses": 898, "shootdowns": 66},
        "core1.l1d": {"data_evictions": 1653, "data_fills": 2165,
            "data_hits": 1137, "data_misses": 2165},
        "core1.l2_tlb": {"evictions": 552, "fills": 810, "hits": 168,
            "misses": 810, "shootdowns": 131},
        "core1.l2d": {"data_evictions": 85, "data_fills": 2046,
            "data_hits": 119, "data_misses": 2046, "tlb_fills": 1232,
            "tlb_hits": 4205, "tlb_misses": 686},
        "core1.predictor": {"bypass_correct": 264, "size_correct": 719,
            "size_wrong": 91},
        "core1.vm1.asid1.gpsc": {"misses": 10, "pde_hits": 157,
            "pdp_hits": 379},
        "core1.vm1.asid1.hpsc": {"misses": 2, "pde_hits": 837, "pdp_hits": 61,
            "pml4_hits": 2},
        "core1.vm1.asid1.walker": {"nested_cycles": 135169,
            "nested_refs": 1802, "nested_walks": 546},
        "l3d": {"data_fills": 3874, "data_hits": 5, "data_misses": 3874,
            "tlb_fills": 1340, "tlb_hits": 965, "tlb_misses": 440},
        "main_dram": {"accesses": 3874, "bytes": 247936, "row_conflicts": 3792,
            "row_hits": 66, "row_misses": 16},
        "mmu": {"l2_tlb_misses": 1592, "page_walk_cycles": 221495,
            "page_walks": 889, "penalty_cycles": 394925,
            "shootdown_cycles": 3552, "shootdowns": 24},
        "pom_flow": {"resolved_by_walk": 889, "resolved_first_try": 666,
            "resolved_second_try": 37, "set_from_dram": 440,
            "set_from_dram_bypass": 11, "set_from_l2": 7118,
            "set_from_l3": 965},
        "pom_tlb": {"evictions": 14, "fills": 889, "hits_large": 32,
            "hits_small": 671, "misses_large": 903, "misses_small": 912,
            "shootdowns": 306},
        "stacked_dram": {"accesses": 467, "bytes": 29888, "row_hits": 459,
            "row_misses": 8},
        "writebacks": {},
    },
    "shared_l2": {
        "core0.l1_tlb_2m": {"evictions": 30, "fills": 58, "hits": 316,
            "misses": 58, "shootdowns": 3},
        "core0.l1_tlb_4k": {"evictions": 841, "fills": 906, "hits": 220,
            "misses": 906, "shootdowns": 1},
        "core0.l1d": {"data_evictions": 1446, "data_fills": 1958,
            "data_hits": 702, "data_misses": 1958},
        "core0.l2_tlb": {},
        "core0.l2d": {"data_evictions": 59, "data_fills": 1833,
            "data_hits": 125, "data_misses": 1833},
        "core0.shadow_l2_tlb": {"evictions": 651, "fills": 782, "hits": 182,
            "misses": 782, "shootdowns": 3},
        "core0.vm0.asid1.gpsc": {"misses": 8, "pde_hits": 88, "pdp_hits": 244},
        "core0.vm0.asid1.hpsc": {"misses": 1, "pde_hits": 547, "pdp_hits": 33,
            "pml4_hits": 1},
        "core0.vm0.asid1.walker": {"nested_cycles": 86196, "nested_refs": 1160,
            "nested_walks": 340},
        "core1.l1_tlb_2m": {"evictions": 22, "fills": 80, "hits": 319,
            "misses": 80, "shootdowns": 30},
        "core1.l1_tlb_4k": {"evictions": 768, "fills": 898, "hits": 203,
            "misses": 898, "shootdowns": 66},
        "core1.l1d": {"data_evictions": 1653, "data_fills": 2165,
            "data_hits": 1137, "data_misses": 2165},
        "core1.l2_tlb": {},
        "core1.l2d": {"data_evictions": 57, "data_fills": 2045,
            "data_hits": 120, "data_misses": 2045},
        "core1.shadow_l2_tlb": {"evictions": 552, "fills": 810, "hits": 168,
            "misses": 810, "shootdowns": 131},
        "core1.vm1.asid1.gpsc": {"misses": 10, "pde_hits": 157,
            "pdp_hits": 379},
        "core1.vm1.asid1.hpsc": {"misses": 2, "pde_hits": 837, "pdp_hits": 61,
            "pml4_hits": 2},
        "core1.vm1.asid1.walker": {"nested_cycles": 135169,
            "nested_refs": 1802, "nested_walks": 546},
        "l3d": {"data_fills": 3874, "data_hits": 4, "data_misses": 3874},
        "main_dram": {"accesses": 3874, "bytes": 247936, "row_conflicts": 3792,
            "row_hits": 66, "row_misses": 16},
        "mmu": {"l2_tlb_misses": 1592, "page_walk_cycles": 221365,
            "page_walks": 886, "penalty_cycles": 244195,
            "shootdown_cycles": 2904, "shootdowns": 24},
        "shared_l2_tlb": {"fills": 886, "hits": 1056, "misses": 886,
            "shootdowns": 310},
        "writebacks": {},
    },
}


@pytest.mark.parametrize("scheme", sorted(EXPECTED))
def test_invalidation_counters_pinned(scheme):
    assert _run(scheme) == EXPECTED[scheme]
