"""The unrolled SRAM-TLB probes of translate_packed match lookup/insert_at.

``translate_packed`` probes and fills the L1 and L2 TLBs (for Shared_L2
the L2 is the shadow, and its hook does the same for the shared array)
straight over their set dicts.  The traced
translate flow still goes through ``SramTlb.lookup``/``insert_at``, so
it serves as the oracle: two identical machines with tiny TLBs (one or
two sets of two ways, so evictions happen constantly) translate the
same random references, one through each path, and must agree on every
TLB set's contents *and recency order* (Shared_L2's shared array
included), every counter, and every returned
:class:`TranslationResult`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import addr
from repro.common.config import (MmuConfig, SharedL2Config, SystemConfig,
                                 TlbConfig)
from repro.core.mmu import SCHEMES
from repro.core.system import Machine
from repro.tlb.entry import pack_context


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
        want = oracle.scheme._translate_traced(core, ctx, vaddr,
                                               oracle.touch(vm, asid, vaddr))
        assert (type(got), got) == (type(want), want)
        assert tlb_state(fast.scheme) == tlb_state(oracle.scheme)
        assert (fast.stats.as_nested_dict()
                == oracle.stats.as_nested_dict())
