"""The unrolled SRAM-TLB probes of translate_packed match lookup/insert.

``translate_packed`` probes and fills the L1 and L2 TLBs (for Shared_L2
the L2 is the shadow, and its hook does the same for the shared array)
straight over their set dicts.  The oracle is a plain front end,
written out below over ``SramTlb.lookup``/``insert``: two identical
machines with tiny TLBs (one or two sets of two ways, so evictions
happen constantly) translate the same random references, one through
each path, and must agree on every TLB set's contents *and recency
order* (Shared_L2's shared array included), every counter, and every
returned :class:`TranslationResult`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import addr
from repro.common.config import (MmuConfig, SharedL2Config, SystemConfig,
                                 TlbConfig)
from repro.core.mmu import SCHEMES, TranslationResult
from repro.core.system import Machine
from repro.tlb.entry import TlbEntry, pack_context, pack_key


def tiny_machine(scheme):
    mmu = MmuConfig(
        l1_small=TlbConfig("l1_tlb_4k", entries=2, ways=2, latency_cycles=1,
                           miss_penalty_cycles=9),
        l1_large=TlbConfig("l1_tlb_2m", entries=2, ways=2, latency_cycles=1,
                           miss_penalty_cycles=9),
        l2_unified=TlbConfig("l2_tlb", entries=4, ways=2, latency_cycles=9,
                             miss_penalty_cycles=17))
    kwargs = {}
    if scheme == "shared_l2":
        kwargs["shared_config"] = SharedL2Config(entries_per_core=2, ways=2)
    return Machine(SystemConfig(num_cores=2, mmu=mmu), scheme=scheme,
                   thp_large_fraction=0.5, seed=3, **kwargs)


def oracle_translate(scheme, core, ctx, vaddr, page):
    """The L1 -> L2 -> miss flow over ``SramTlb.lookup``/``insert``."""
    tlbs = scheme.cores[core]
    vm_id, asid = (ctx >> 1) & 0xFFFF, (ctx >> 17) & 0xFFFF
    shift = addr.page_shift(page.large)
    key = pack_key(vm_id, asid, vaddr >> shift, page.large)
    l1 = tlbs.l1(page.large)
    if l1.lookup(key) is not None:
        return TranslationResult(tlbs.l1_latency, False, 0)
    entry = TlbEntry(page.host_frame >> shift)
    shared = scheme.shared
    cycles = tlbs.l1_latency + tlbs.l2_latency
    penalty = 0
    l2_miss = tlbs.l2.lookup(key) is None
    if l2_miss:
        scheme._l2_misses.value += 1
        if shared is None:
            penalty = scheme._resolve_miss(core, vm_id, asid, vaddr, page,
                                           entry)
            cycles += penalty
        tlbs.l2.insert(key, entry)
    if shared is not None:
        # Every L1 miss pays the shared latency, and its extra cost over
        # a private L2 as penalty; a shared miss adds dispatch + walk.
        cycles = tlbs.l1_latency + scheme._shared_latency
        penalty = scheme._extra_hit_cost
        if shared.lookup(key) is None:
            penalty += tlbs.l2_miss_overhead + scheme._walk(
                core, vm_id, asid, vaddr)
            cycles += penalty
            shared.insert(key, entry)
    l1.insert(key, entry)
    if l2_miss or shared is not None:
        scheme._penalty_cycles.value += penalty
    return TranslationResult(cycles, l2_miss, penalty)


def sram_tlbs(scheme):
    tlbs = []
    for core in scheme.cores:
        tlbs += [core.l1_small, core.l1_large, core.l2]
    if scheme.shared is not None:
        tlbs.append(scheme.shared)
    return tlbs


def tlb_state(scheme):
    """Every set's (key, entry) pairs in recency order, per TLB."""
    return [[list(entries.items()) for entries in tlb._sets]
            for tlb in sram_tlbs(scheme)]


#: A footprint a few times the TLBs' reach: L1 and L2 hits, misses and
#: evictions all stay common.
references = st.lists(
    st.tuples(st.integers(0, 1),      # core
              st.integers(1, 2),      # vm
              st.integers(0, 1),      # asid
              st.integers(0, 1),      # 2 MiB region
              st.integers(0, 2)),     # 4 KiB page in the region
    min_size=1, max_size=120)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@settings(max_examples=40, deadline=None)
@given(refs=references)
def test_unrolled_probes_match_lookup_insert_at(scheme, refs):
    fast, oracle = tiny_machine(scheme), tiny_machine(scheme)
    for core, vm, asid, region, page in refs:
        vaddr = region * addr.LARGE_PAGE_SIZE + page * addr.SMALL_PAGE_SIZE
        ctx = pack_context(vm, asid)
        got = fast.scheme.translate_packed(core, ctx, vaddr,
                                           fast.touch(vm, asid, vaddr))
        want = oracle_translate(oracle.scheme, core, ctx, vaddr,
                                oracle.touch(vm, asid, vaddr))
        assert (type(got), got) == (type(want), want)
        assert tlb_state(fast.scheme) == tlb_state(oracle.scheme)
        assert (fast.stats.as_nested_dict()
                == oracle.stats.as_nested_dict())
