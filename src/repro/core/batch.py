"""Vectorized columnar batch-replay engine (the ``pomtlb[fast]`` path).

:func:`try_replay` replays workload streams' columns through the same
machine state ``Machine.run``'s scalar loop drives, but restructured
around numpy:

1. **Global merge order up front.**  The replay order
   (:func:`~repro.workloads.trace.merge_order`) is a merge by
   ``(icount, core, source)`` over per-stream non-decreasing icount
   columns, which is exactly a stable lexicographic sort of the
   concatenated columns.  One ``np.lexsort`` yields the whole replay
   order as an index array.
2. **Pure per-reference values vectorized.**  For each slice of the
   global order, whole stream columns are resolved at once: page lookup
   (binary search over sorted VPN arrays), packed TLB keys, L1-TLB set
   indices (the ``SramTlb`` hash reduces to ``vpn ^ ctx_hash`` with a
   per-stream constant), physical addresses, and cache set/tag splits
   for every data-cache level.
3. **Live-state replay loop.**  A tight Python loop walks the slice in
   exact global order and checks the *live* TLB/cache dicts — so no
   precomputed hit/miss classification can go stale — inlining the
   branch outcomes the scalar engine produces (L1/L2 TLB hits, the full
   L1D/L2D/L3D/DRAM data cascade) as plain dict operations, and
   delegating everything else (page walks, POM/TSB/shared-L2 miss
   resolution, demand paging, first-slice stream debuts) to the
   unmodified scalar calls at the exact same position in the order.

Bit-identity with the scalar engine is by construction: every state
mutation and counter update either *is* the scalar code path, or is a
line-by-line inline of it operating on the same live objects in the
same order.  ``tests/integration/test_engine_equivalence.py`` holds
both engines to the same golden counter fixtures, for all five schemes.

The engine declines (returns None, recording the reason on the machine)
whenever any feature needs the scalar per-reference hook order:
tracing, windowed metrics, fault injection, the consistency verifier,
TLB-priority victim selection, or numpy being unavailable.
``Machine.run`` then falls back to the scalar loop, which remains the
semantics of record.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

try:  # numpy is the optional ``pomtlb[fast]`` extra, never a hard dep
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via tests' stubbing
    _np = None

from ..cache.cache import DATA
from ..common import addr
from ..tlb.entry import SET_HASH_ASID, SET_HASH_VM, TlbEntry

_new = tuple.__new__  # TlbEntry without its Python-level __new__

HAS_NUMPY = _np is not None

_SMALL_SHIFT = addr.SMALL_PAGE_SHIFT
_LARGE_SHIFT = addr.LARGE_PAGE_SHIFT
_SMALL_MASK = addr.SMALL_PAGE_SIZE - 1
_LARGE_MASK = addr.LARGE_PAGE_SIZE - 1

#: Key packing shifts the VPN left by 33; virtual addresses at or above
#: 2**42 would overflow the signed-64 key column, so such stream slices
#: replay through the scalar path (the packed trace format allows the
#: full u64 range).
_VADDR_SAFE_LIMIT = 1 << 42

#: References per global-order slice: large enough to amortize the numpy
#: kernel launches, small enough that the working arrays stay cache-hot.
_SLICE = 8192

_FALSEY = frozenset(("0", "false", "no", "off", ""))


def resolve_batch_flag(flag: Optional[bool] = None) -> bool:
    """Effective batch-enable: explicit flag wins, else ``POMTLB_BATCH``.

    The knob is an execution field — it can never change results, only
    which engine produces them — so it defaults to on and is excluded
    from campaign checkpoint keys.
    """
    if flag is not None:
        return bool(flag)
    raw = os.environ.get("POMTLB_BATCH")
    if raw is None:
        return True
    return raw.strip().lower() not in _FALSEY


class _StreamState:
    """Per-stream hot-loop state: live dict handles, tallies, cursors."""

    __slots__ = (
        "core", "ctx", "ctx_hash", "touch", "lget", "sget",
        "large_pages", "small_pages", "translate", "resolve",
        "vaddrs", "np_va",
        "cursor", "prev_key", "prev_line",
        "lkeys", "lframes", "llen", "skeys", "sframes", "slen",
        "l1s_sets", "l1l_sets", "l1s_mask", "l1l_mask",
        "l1s_ways", "l1l_ways",
        "l2_sets", "l2_mask", "l2_ways",
        "l1_lat", "l12_lat",
        "d1_tags", "d1_ways", "d2_tags", "d2_ways",
        # counter slots (commit targets)
        "s_h1s", "s_h1l", "s_m1s", "s_m1l", "s_f1s", "s_f1l",
        "s_e1s", "s_e1l", "s_h2", "s_m2",
        "s_d1h", "s_d1m", "s_d1f", "s_d1e",
        "s_d2h", "s_d2m", "s_d2f", "s_d2ed", "s_d2et",
        # tallies (committed per slice / discarded at the warmup reset)
        "h1s", "h1l", "m1s", "m1l", "f1s", "f1l", "e1s", "e1l", "h2", "m2",
        "d1h", "d1m", "d1f", "d1e", "d2h", "d2m", "d2f", "d2ed", "d2et",
    )

    def __init__(self, machine, stream) -> None:
        # _stream_info creates the stream's VM/process lazily — calling
        # it here, at the stream's first replayed reference, keeps the
        # host-memory frame allocation order identical to the scalar
        # engine's.
        core, ctx, large_pages, small_pages, touch_slow = (
            machine._stream_info(stream))
        self.core = core
        self.ctx = ctx
        vm_id = (ctx >> 1) & 0xFFFF
        asid = (ctx >> 17) & 0xFFFF
        # SramTlb._set_index == (vpn ^ ctx_hash) & mask.
        self.ctx_hash = (vm_id * SET_HASH_VM) ^ (asid * SET_HASH_ASID)
        self.touch = touch_slow
        self.large_pages = large_pages
        self.small_pages = small_pages
        self.lget = large_pages.get
        self.sget = small_pages.get
        self.translate = machine.scheme.translate_packed
        self.resolve = machine.scheme.resolve_packed
        self.vaddrs = stream.vaddrs
        self.np_va = _np.frombuffer(stream.vaddrs, dtype=_np.uint64)
        self.cursor = 0
        self.prev_key = -1
        self.prev_line = -1
        self.lkeys = self.lframes = None
        self.skeys = self.sframes = None
        self.llen = -1
        self.slen = -1
        tlbs = machine.scheme.cores[core]
        l1s, l1l, l2 = tlbs.l1_small, tlbs.l1_large, tlbs.l2
        self.l1s_sets, self.l1s_mask, self.l1s_ways = l1s.batch_view()
        self.l1l_sets, self.l1l_mask, self.l1l_ways = l1l.batch_view()
        self.l2_sets, self.l2_mask, self.l2_ways = l2.batch_view()
        self.l1_lat = tlbs.l1_latency
        self.l12_lat = tlbs.l1_latency + tlbs.l2_latency
        self.s_h1s, self.s_m1s = l1s._hits, l1s._misses
        self.s_f1s, self.s_e1s = l1s._fills, l1s._evictions
        self.s_h1l, self.s_m1l = l1l._hits, l1l._misses
        self.s_f1l, self.s_e1l = l1l._fills, l1l._evictions
        self.s_h2, self.s_m2 = l2._hits, l2._misses
        d1 = machine.hierarchy._l1[core]
        d2 = machine.hierarchy._l2[core]
        self.d1_tags, self.d1_ways = d1._tags, d1._ways
        self.d2_tags, self.d2_ways = d2._tags, d2._ways
        self.s_d1h, self.s_d1m = d1._data_hits, d1._data_misses
        self.s_d1f, self.s_d1e = d1._data_fills, d1._data_evictions
        self.s_d2h, self.s_d2m = d2._data_hits, d2._data_misses
        self.s_d2f = d2._data_fills
        self.s_d2ed, self.s_d2et = d2._data_evictions, d2._tlb_evictions
        (self.h1s) = (self.h1l) = (self.m1s) = (self.m1l) = 0
        self.f1s = self.f1l = self.e1s = self.e1l = self.h2 = self.m2 = 0
        self.d1h = self.d1m = self.d1f = self.d1e = 0
        self.d2h = self.d2m = self.d2f = self.d2ed = self.d2et = 0

    # -- page-cache maintenance (append-only dicts, rebuilt on growth) ---

    def refresh_pages(self) -> None:
        """Sorted VPN/frame arrays for binary-search page resolution.

        Pages are only ever *added* during a run, so a stale cache can
        only produce false negatives — which the replay loop resolves
        through the live dicts — never false positives.
        """
        lp = self.large_pages
        if len(lp) != self.llen:
            self.llen = len(lp)
            self.lkeys, self.lframes = _sorted_pages(lp)
        sp = self.small_pages
        if len(sp) != self.slen:
            self.slen = len(sp)
            self.skeys, self.sframes = _sorted_pages(sp)

    def zero_tallies(self) -> None:
        self.h1s = self.h1l = self.m1s = self.m1l = 0
        self.f1s = self.f1l = self.e1s = self.e1l = self.h2 = self.m2 = 0
        self.d1h = self.d1m = self.d1f = self.d1e = 0
        self.d2h = self.d2m = self.d2f = self.d2ed = self.d2et = 0

    def commit_tallies(self) -> None:
        """Flush per-slice counts into the shared counter slots.

        Addition into the slots commutes with every interleaved direct
        update the slow paths made, so deferring the fast-path counts to
        slice granularity is value-identical to the scalar per-reference
        updates.
        """
        for n, slot in (
                (self.h1s, self.s_h1s), (self.h1l, self.s_h1l),
                (self.m1s, self.s_m1s), (self.m1l, self.s_m1l),
                (self.f1s, self.s_f1s), (self.f1l, self.s_f1l),
                (self.e1s, self.s_e1s), (self.e1l, self.s_e1l),
                (self.h2, self.s_h2), (self.m2, self.s_m2),
                (self.d1h, self.s_d1h), (self.d1m, self.s_d1m),
                (self.d1f, self.s_d1f), (self.d1e, self.s_d1e),
                (self.d2h, self.s_d2h), (self.d2m, self.s_d2m),
                (self.d2f, self.s_d2f), (self.d2ed, self.s_d2ed),
                (self.d2et, self.s_d2et)):
            slot.value += n
        self.zero_tallies()


def _sorted_pages(pages: Dict):
    """(sorted VPN array, matching host-frame array) of one page dict."""
    n = len(pages)
    if not n:
        return None, None
    keys = _np.fromiter(pages.keys(), dtype=_np.int64, count=n)
    frames = _np.fromiter([page[2] for page in pages.values()],
                          dtype=_np.int64, count=n)
    order = _np.argsort(keys, kind="stable")
    return keys[order], frames[order]


def _decline(machine, reason: str):
    machine.batch_fallback_reason = reason
    return None


def try_replay(machine, streams, max_references, warmup_references):
    """Batched replay; returns the run tally tuple, or None to decline.

    On success the return value is ``(references, translation_cycles,
    data_cycles, last_icount, warmup_boundary)`` — exactly the loop
    outputs ``Machine.run`` folds into a :class:`SimulationResult`.
    """
    if _np is None:
        return _decline(machine, "numpy unavailable (install pomtlb[fast])")
    obs = machine.obs
    if obs.tracer.enabled:
        return _decline(machine, "event tracing enabled")
    if obs.windows is not None:
        return _decline(machine, "windowed metrics enabled")
    if machine.faults.active:
        return _decline(machine, "fault injection active")
    if machine.verifier.active:
        return _decline(machine, "consistency verifier armed")
    hierarchy = machine.hierarchy
    if hierarchy._l3.tlb_priority:
        return _decline(machine, "tlb_priority victim selection enabled")
    scheme = machine.scheme
    for attr in ("pom", "tsb", "shared"):
        backing = getattr(scheme, attr, None)
        if backing is not None and not getattr(type(backing), "L1_PRIVATE",
                                               False):
            return _decline(
                machine, f"{attr} backing lacks the L1_PRIVATE contract")
    live = [s for s in streams if len(s)]
    if not live:
        return _decline(machine, "no non-empty streams")

    # -- global merge order -------------------------------------------------
    counts = [len(s) for s in live]
    ic_parts = [_np.frombuffer(s.icounts, dtype=_np.uint64) for s in live]
    for part in ic_parts:
        if part.size > 1 and bool(_np.any(part[1:] < part[:-1])):
            return _decline(machine, "non-monotonic icount column")
    ic = _np.concatenate(ic_parts)
    total = int(ic.size)
    cores_arr = _np.repeat(
        _np.array([s.core for s in live], dtype=_np.int16),
        _np.array(counts))
    src_arr = _np.repeat(
        _np.arange(len(live), dtype=_np.int16), _np.array(counts))
    offsets = _np.zeros(len(live), dtype=_np.int64)
    _np.cumsum(_np.array(counts[:-1], dtype=_np.int64), out=offsets[1:])
    # The heap merge pops by (icount, core, source-index) with ties —
    # only possible within one stream — resolved in stream order; a
    # stable lexsort of the concatenated columns is the same sequence.
    order = _np.lexsort((src_arr, cores_arr, ic))
    sid_g = src_arr[order]
    cores_g = cores_arr[order]
    ic_g = ic[order]

    # Two streams on one core interleave on the same L1 structures, so
    # a same-stream repeat is no longer a guaranteed L1 hit.
    collapse_ok = len({s.core for s in live}) == len(live)

    states: List[Optional[_StreamState]] = [None] * len(live)
    # A stream whose VM and process already exist (this machine ran
    # before — the warm-replay case) gets its state built up front:
    # _stream_info is side-effect-free then, so no frame-allocation
    # order is at stake and the debut slice vectorizes like any other.
    # Missing VMs/processes must still be created at the global position
    # of the stream's first reference, inside the loop below.
    virtualized = machine.config.virtualized
    for s, stream in enumerate(live):
        if virtualized:
            vm = machine.host.vms.get(stream.vm_id)
            if vm is not None and stream.asid in vm.processes:
                states[s] = _StreamState(machine, stream)
        elif stream.asid in machine._native_processes:
            states[s] = _StreamState(machine, stream)

    # -- hierarchy constants -----------------------------------------------
    d1_any = hierarchy._l1[0]
    d2_any = hierarchy._l2[0]
    d3 = hierarchy._l3
    d1_line_shift, d1_set_mask = d1_any._line_shift, d1_any._set_mask
    d1_set_shift = d1_any._set_shift
    d2_line_shift, d2_set_mask = d2_any._line_shift, d2_any._set_mask
    d2_set_shift = d2_any._set_shift
    d3_line_shift, d3_set_mask = d3._line_shift, d3._set_mask
    d3_set_shift = d3._set_shift
    d3_tags, d3_ways = d3._tags, d3._ways
    s_d3h, s_d3m = d3._data_hits, d3._data_misses
    s_d3f = d3._data_fills
    s_d3ed, s_d3et = d3._data_evictions, d3._tlb_evictions
    l1d_lat = hierarchy._l1_latency
    l2d_lat = hierarchy._l2_latency
    l3d_lat = hierarchy._l3_latency
    dram_access = hierarchy.main_dram.access
    l4 = hierarchy.l4
    data_access = hierarchy.data_access
    # With a shared array every L1 miss resolves through the scalar
    # front end; without one the private-L2 probe is inlined below.
    l2_inline = scheme.shared is None

    histograms = obs.histograms
    rec_t = rec_p = None
    if histograms is not None:
        # Bound list appends of the deferred histograms (no frame per
        # recorded latency); folded at every slice end.
        rec_t = histograms["translation_cycles"].record
        rec_p = histograms["penalty_cycles"].record
    verifier = machine.verifier

    # -- run-level accumulators (mirrors the scalar loop's locals) ----------
    references = 0
    translation_cycles = 0
    data_cycles = 0
    if isinstance(warmup_references, int):
        warmup_remaining: Dict[int, int] = (
            {-1: warmup_references} if warmup_references else {})
    else:
        warmup_remaining = {core: count for core, count
                            in warmup_references.items() if count > 0}
    warming = bool(warmup_remaining)
    warmup_boundary: Dict[int, int] = {}
    last_icount: Dict[int, int] = {}
    stop_at = max_references if max_references is not None else float("inf")
    stopped = False
    nh1 = nh2 = 0  # pending histogram counts (l1-hit / l2-hit latencies)
    l1_lat_hist = l12_lat_hist = 0
    processed = 0

    int64 = _np.int64
    flatnonzero = _np.flatnonzero
    searchsorted = _np.searchsorted

    g0 = 0
    while g0 < total and not stopped:
        g1 = min(g0 + _SLICE, total)
        n = g1 - g0
        c_idx = order[g0:g1]
        sid_np = sid_g[g0:g1]
        lidx_np = c_idx - offsets[sid_np]
        # Slice-order value arrays; key -1 = replay through the scalar
        # path, -2/-3 = collapsed duplicate (small/large).
        ks_a = _np.full(n, -1, dtype=int64)
        t1_a = _np.zeros(n, dtype=int64)
        ds1_a = _np.zeros(n, dtype=int64)
        dt1_a = _np.zeros(n, dtype=int64)
        t2_a = _np.zeros(n, dtype=int64)
        ppn_a = _np.zeros(n, dtype=int64)
        hpa_a = _np.zeros(n, dtype=int64)
        ds2_a = _np.zeros(n, dtype=int64)
        dt2_a = _np.zeros(n, dtype=int64)
        ds3_a = _np.zeros(n, dtype=int64)
        dt3_a = _np.zeros(n, dtype=int64)

        per_stream = _np.bincount(sid_np, minlength=len(live))
        debut = [states[s] is None for s in range(len(live))]
        for s in flatnonzero(per_stream):
            st = states[s]
            cnt = int(per_stream[s])
            if st is None:
                # Stream debut: its VM/process must be created at the
                # exact global position of its first reference (frame
                # allocation order!), so the whole debut slice replays
                # scalar and the state is built inside the loop below.
                continue
            cur = st.cursor
            st.cursor = cur + cnt
            pos = flatnonzero(sid_np == s)
            vv_u = st.np_va[cur:cur + cnt]
            if int(vv_u.max()) >= _VADDR_SAFE_LIMIT:
                if collapse_ok:
                    st.prev_key = -1  # break the duplicate chain
                continue
            vv = vv_u.astype(int64)
            st.refresh_pages()
            lvpn = vv >> _LARGE_SHIFT
            svpn = vv >> _SMALL_SHIFT
            lk = st.lkeys
            if lk is not None:
                li = searchsorted(lk, lvpn)
                _np.minimum(li, lk.size - 1, out=li)
                lm = lk[li] == lvpn
                lframe = st.lframes[li]
            else:
                lm = _np.zeros(cnt, dtype=bool)
                lframe = None
            sk = st.skeys
            if sk is not None:
                si = searchsorted(sk, svpn)
                _np.minimum(si, sk.size - 1, out=si)
                sm = sk[si] == svpn
                sframe = st.sframes[si]
            else:
                sm = _np.zeros(cnt, dtype=bool)
                sframe = None
            resolved = lm | sm
            frame = _np.zeros(cnt, dtype=int64)
            if lframe is not None:
                _np.copyto(frame, lframe, where=lm)
            if sframe is not None:
                _np.copyto(frame, sframe, where=sm & ~lm)
            vpn = _np.where(lm, lvpn, svpn)
            hpa = frame | _np.where(lm, vv & _LARGE_MASK, vv & _SMALL_MASK)
            lmi = lm.astype(int64)
            key = _np.where(resolved, (vpn << 33) | st.ctx | lmi, -1)
            hashed = vpn ^ st.ctx_hash
            t1 = hashed & _np.where(lm, st.l1l_mask, st.l1s_mask)
            line1 = hpa >> d1_line_shift
            if collapse_ok:
                prev_k = _np.empty(cnt, dtype=int64)
                prev_k[0] = st.prev_key
                prev_k[1:] = key[:-1]
                line1_m = _np.where(resolved, line1, -1)
                prev_l = _np.empty(cnt, dtype=int64)
                prev_l[0] = st.prev_line
                prev_l[1:] = line1_m[:-1]
                dup = (key >= 0) & (key == prev_k) & (line1_m == prev_l)
                st.prev_key = int(key[-1])
                st.prev_line = int(line1_m[-1])
                out_key = _np.where(dup, -2 - lmi, key)
            else:
                out_key = key
            ks_a[pos] = out_key
            t1_a[pos] = t1
            ds1_a[pos] = line1 & d1_set_mask
            dt1_a[pos] = line1 >> d1_set_shift
            t2_a[pos] = hashed & st.l2_mask
            ppn_a[pos] = frame >> _np.where(lm, _LARGE_SHIFT, _SMALL_SHIFT)
            hpa_a[pos] = hpa
            line2 = hpa >> d2_line_shift
            ds2_a[pos] = line2 & d2_set_mask
            dt2_a[pos] = line2 >> d2_set_shift
            line3 = hpa >> d3_line_shift
            ds3_a[pos] = line3 & d3_set_mask
            dt3_a[pos] = line3 >> d3_set_shift

        # Everything the replay loop reads per reference becomes a plain
        # list up front: Python-int indexing is several times cheaper
        # than numpy scalar extraction at this call rate.
        ks = ks_a.tolist()
        t1s = t1_a.tolist()
        ds1s = ds1_a.tolist()
        dt1s = dt1_a.tolist()
        t2s = t2_a.tolist()
        ppns = ppn_a.tolist()
        hpas = hpa_a.tolist()
        ds2s = ds2_a.tolist()
        dt2s = dt2_a.tolist()
        ds3s = ds3_a.tolist()
        dt3s = dt3_a.tolist()
        sids = sid_np.tolist()
        lidxs = lidx_np.tolist()
        ic_l = ic_g[g0:g1].tolist() if warming else None

        j = 0
        while j < n:
            s = sids[j]
            st = states[s]
            if st is None:
                st = states[s] = _StreamState(machine, live[s])
                st.cursor = lidxs[j]
            if warming:
                if warmup_remaining:
                    wkey = -1 if -1 in warmup_remaining else st.core
                    if wkey in warmup_remaining:
                        warmup_remaining[wkey] -= 1
                        if warmup_remaining[wkey] <= 0:
                            del warmup_remaining[wkey]
                else:
                    warming = False
                    references = 0
                    translation_cycles = 0
                    data_cycles = 0
                    # Pre-boundary fast-path counts are discarded, not
                    # committed: reset() zeroes every value, so
                    # committing first would be equivalent.
                    for other in states:
                        if other is not None:
                            other.zero_tallies()
                    nh1 = nh2 = 0
                    machine.stats.reset()
                    obs.reset()
                    verifier.reset()
                    warmup_boundary = dict(last_icount)
            k = ks[j]
            if k >= 0:
                large = k & 1
                tset = (st.l1l_sets if large else st.l1s_sets)[t1s[j]]
                entry = tset.pop(k, None)
                if entry is not None:  # L1 TLB hit (inline lookup)
                    tset[k] = entry
                    if large:
                        st.h1l += 1
                    else:
                        st.h1s += 1
                    nh1 += 1
                    tcy = st.l1_lat
                elif l2_inline and k in (l2set := st.l2_sets[t2s[j]]):
                    # L1 miss, private-L2 hit: inline of the base
                    # translate_packed prefix (counters + MRU + L1 fill).
                    if large:
                        st.m1l += 1
                        ways = st.l1l_ways
                    else:
                        st.m1s += 1
                        ways = st.l1s_ways
                    l2set[k] = l2set.pop(k)
                    st.h2 += 1
                    if len(tset) >= ways:
                        del tset[next(iter(tset))]
                        if large:
                            st.e1l += 1
                        else:
                            st.e1s += 1
                    tset[k] = _new(TlbEntry, (ppns[j], True))
                    if large:
                        st.f1l += 1
                    else:
                        st.f1s += 1
                    nh2 += 1
                    tcy = st.l12_lat
                    l12_lat_hist = tcy
                elif l2_inline:
                    # Full TLB miss with the base front end: tally both
                    # probe misses here (the peeks above were
                    # side-effect-free) and hand the precomputed key +
                    # set indices straight to the scheme's miss tail —
                    # no re-hash, no re-probe of either TLB.
                    li = lidxs[j]
                    va = st.vaddrs[li]
                    if large:
                        st.m1l += 1
                        page = st.lget(va >> _LARGE_SHIFT)
                    else:
                        st.m1s += 1
                        page = st.sget(va >> _SMALL_SHIFT)
                    st.m2 += 1
                    tcy, pen = st.resolve(st.core, st.ctx, va, page,
                                          k, t1s[j], t2s[j])
                    if rec_t is not None:
                        rec_t(tcy)
                        rec_p(pen)
                else:
                    # Shared-L2 scheme: its shadow + shared-array
                    # bookkeeping replaces the private L2, so the scalar
                    # path re-probes and counts everything itself.
                    li = lidxs[j]
                    va = st.vaddrs[li]
                    page = (st.lget(va >> _LARGE_SHIFT) if large
                            else st.sget(va >> _SMALL_SHIFT))
                    res = st.translate(st.core, st.ctx, va, page)
                    tcy = res[0]
                    if rec_t is not None:
                        rec_t(tcy)
                        if res[1]:
                            rec_p(res[2])
                l1_lat_hist = st.l1_lat
                translation_cycles += tcy
                # -- data access, inlined over the live cache dicts ----
                dtag = dt1s[j]
                d1set = st.d1_tags[ds1s[j]]
                kind = d1set.pop(dtag, None)
                if kind is not None:  # L1D hit
                    d1set[dtag] = kind
                    st.d1h += 1
                    data_cycles += l1d_lat
                else:
                    st.d1m += 1
                    d2set = st.d2_tags[ds2s[j]]
                    dtag2 = dt2s[j]
                    kind = d2set.pop(dtag2, None)
                    if kind is not None:  # L2D hit + L1 fill
                        d2set[dtag2] = kind
                        st.d2h += 1
                        if len(d1set) >= st.d1_ways:
                            # L1D never holds TLB-kind lines (they only
                            # enter via tlb_line_fill into L2/L3).
                            del d1set[next(iter(d1set))]
                            st.d1e += 1
                        d1set[dtag] = DATA
                        st.d1f += 1
                        data_cycles += l2d_lat
                    else:
                        st.d2m += 1
                        d3set = d3_tags[ds3s[j]]
                        dtag3 = dt3s[j]
                        kind = d3set.pop(dtag3, None)
                        if kind is not None:  # L3D hit + L2/L1 fills
                            d3set[dtag3] = kind
                            s_d3h.value += 1
                            dcy = l3d_lat
                        else:
                            s_d3m.value += 1
                            paddr = hpas[j]
                            if l4 is None:
                                dcy = l3d_lat + dram_access(paddr)
                            else:
                                probe = l4.access(paddr)
                                if probe.hit:
                                    dcy = l3d_lat + probe.cycles
                                else:
                                    dcy = l3d_lat + max(probe.cycles,
                                                        dram_access(paddr))
                                    l4.fill(paddr)
                            if len(d3set) >= d3_ways:
                                victim = next(iter(d3set))
                                if d3set.pop(victim) == DATA:
                                    s_d3ed.value += 1
                                else:
                                    s_d3et.value += 1
                            d3set[dtag3] = DATA
                            s_d3f.value += 1
                        if len(d2set) >= st.d2_ways:
                            victim = next(iter(d2set))
                            if d2set.pop(victim) == DATA:
                                st.d2ed += 1
                            else:
                                st.d2et += 1
                        d2set[dtag2] = DATA
                        st.d2f += 1
                        if len(d1set) >= st.d1_ways:
                            del d1set[next(iter(d1set))]
                            st.d1e += 1
                        d1set[dtag] = DATA
                        st.d1f += 1
                        data_cycles += dcy
            elif k == -1:
                # Scalar fallback: debut/unresolved/huge-address refs run
                # the untouched per-reference path at this exact
                # position in the global order.
                li = lidxs[j]
                va = st.vaddrs[li]
                page = st.lget(va >> _LARGE_SHIFT)
                if page is None:
                    page = st.sget(va >> _SMALL_SHIFT)
                    if page is None:
                        page = st.touch(va)
                res = st.translate(st.core, st.ctx, va, page)
                translation_cycles += res[0]
                hpa = page[2] | (va & (_LARGE_MASK if page[0]
                                       else _SMALL_MASK))
                data_cycles += data_access(st.core, hpa)
                if rec_t is not None:
                    rec_t(res[0])
                    if res[1]:
                        rec_p(res[2])
                l1_lat_hist = st.l1_lat
            else:
                # Collapsed duplicate (same stream, same key, same L1D
                # line as its processed predecessor): guaranteed L1-TLB
                # and L1D hits whose only effects are counters and
                # already-MRU recency refreshes.
                if k == -3:
                    st.h1l += 1
                else:
                    st.h1s += 1
                st.d1h += 1
                nh1 += 1
                l1_lat_hist = st.l1_lat
                translation_cycles += st.l1_lat
                data_cycles += l1d_lat
            references += 1
            if warming:
                last_icount[st.core] = ic_l[j]
            j += 1
            if references >= stop_at:
                stopped = True
                break
        processed = g0 + j
        # Streams that debuted inside this slice replayed scalar without
        # advancing their column cursor; align it for the next slice.
        for s in flatnonzero(per_stream):
            st = states[s]
            if debut[s] and st is not None:
                st.cursor = int(lidx_np[flatnonzero(sid_np == s)[-1]]) + 1
        obs.fold()
        g0 = g1

    # -- commit pending fast-path counts ------------------------------------
    for st in states:
        if st is not None:
            st.commit_tallies()
    if rec_t is not None:
        if nh1:
            histograms["translation_cycles"].record_many(l1_lat_hist, nh1)
        if nh2:
            histograms["translation_cycles"].record_many(l12_lat_hist, nh2)

    if warming:
        raise ValueError(
            f"warmup ({warmup_references}) consumed the whole trace")

    # Final per-core last-icounts over everything processed: identical
    # to the scalar loop's (last processed reference of each core wins;
    # warm-up-only cores keep their warm-up value).
    if processed:
        pc = cores_g[:processed]
        for core in _np.unique(pc):
            idx = flatnonzero(pc == core)[-1]
            last_icount[int(core)] = int(ic_g[idx])
    machine.batch_fallback_reason = None
    return (references, translation_cycles, data_cycles,
            last_icount, warmup_boundary)
