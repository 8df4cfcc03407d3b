"""The full-system simulator: cores, caches, TLBs, DRAM and one scheme.

:class:`Machine` wires every substrate together and replays per-core
trace streams, interleaved by instruction count.  For each memory
reference it

1. resolves the page functionally (demand paging on first touch),
2. runs the address translation through the configured scheme
   (POM-TLB / baseline walk / Shared_L2 / TSB), and
3. performs the data access itself through the cache hierarchy —
   so translation traffic and data traffic contend for the same caches,
   which is what makes the POM-TLB's entry caching meaningful.

The result is a :class:`SimulationResult` carrying the counters every
paper figure is derived from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..cache.hierarchy import CacheHierarchy
from ..common import addr
from ..common.config import SystemConfig
from ..common.stats import StatRegistry
from ..faults import NO_TRANSLATION_FAULTS
from ..obs import Observability
from ..obs.histogram import FOLD_AT, LogHistogram
from ..obs.windows import WindowedMetrics
from ..tlb.entry import pack_context
from ..verify.verifier import NO_VERIFIER, Verifier
from ..vmm.memory_manager import PhysicalMemory
from ..vmm.thp import ThpPolicy
from ..vmm.vm import FreedFrames, Host, NativeProcess, ResolvedPage
from ..workloads.trace import CoreStream, identity_error, merge_order
from .batch import resolve_batch_flag
from .batch import try_replay as _batch_try_replay
from .mmu import TranslationScheme, make_scheme
from .walkers import WalkerPool

_SMALL_SHIFT = addr.SMALL_PAGE_SHIFT
_LARGE_SHIFT = addr.LARGE_PAGE_SHIFT
_SMALL_MASK = addr.SMALL_PAGE_SIZE - 1
_LARGE_MASK = addr.LARGE_PAGE_SIZE - 1


# The machine hands these to its walkers and VMs as partials over plain
# data, not as bound methods: a bound method would make every Machine a
# reference cycle that only a full garbage collection frees.

def _thp_policy(seed: int, fractions: Dict[int, float], default: float,
                context_seed: int) -> ThpPolicy:
    """THP policy of one VM (or native asid)."""
    return ThpPolicy(fractions.get(context_seed, default),
                     seed=seed * 1000 + context_seed)


def _native_process(processes: Dict[int, NativeProcess],
                    memory: PhysicalMemory, thp, asid: int) -> NativeProcess:
    """The native process ``asid``, created on first use."""
    proc = processes.get(asid)
    if proc is None:
        proc = processes[asid] = NativeProcess(asid, memory, thp(asid))
    return proc


@dataclass
class SimulationResult:
    """Counters and derived metrics of one simulation run."""

    scheme: str
    references: int
    instructions: int
    l2_tlb_misses: int
    penalty_cycles: int
    translation_cycles: int
    data_cycles: int
    page_walks: int
    stats: StatRegistry = field(repr=False)
    #: Latency histograms (translation/penalty/DRAM), None when disabled.
    histograms: Optional[Dict[str, LogHistogram]] = field(default=None,
                                                          repr=False)
    #: Windowed warm-up metrics, None unless a window size was configured.
    windows: Optional[WindowedMetrics] = field(default=None, repr=False)

    @property
    def avg_penalty_per_miss(self) -> float:
        """The scheme's P_avg of paper Eq. 4 (cycles per L2 TLB miss)."""
        if self.l2_tlb_misses == 0:
            return 0.0
        return self.penalty_cycles / self.l2_tlb_misses

    @property
    def mpki(self) -> float:
        """L2 TLB misses per kilo-instruction."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.l2_tlb_misses / self.instructions

    @property
    def walk_elimination(self) -> float:
        """Fraction of L2 TLB misses resolved without a page walk."""
        if self.l2_tlb_misses == 0:
            return 0.0
        return 1.0 - self.page_walks / self.l2_tlb_misses

    # -- figure-level metrics -------------------------------------------------

    def tlb_cache_hit_ratio(self, level: str) -> float:
        """Hit ratio of POM-TLB lines in the data caches (Fig 9).

        ``level`` is ``"l2"`` (aggregated private L2D$) or ``"l3"``.
        """
        hits = misses = 0.0
        for name, group in self.stats.groups().items():
            if level == "l2" and name.endswith(".l2d"):
                hits += group["tlb_hits"]
                misses += group["tlb_misses"]
            elif level == "l3" and name == "l3d":
                hits += group["tlb_hits"]
                misses += group["tlb_misses"]
        total = hits + misses
        return hits / total if total else 0.0

    def pom_hit_ratio(self) -> float:
        """Fraction of POM-TLB set searches that found the translation."""
        group = self.stats.groups().get("pom_tlb")
        if group is None:
            return 0.0
        hits = group["hits_small"] + group["hits_large"]
        total = hits + group["misses_small"] + group["misses_large"]
        return hits / total if total else 0.0

    def predictor_accuracy(self) -> Dict[str, float]:
        """Aggregate size/bypass predictor accuracy over cores (Fig 10)."""
        counts = {"size_correct": 0.0, "size_wrong": 0.0,
                  "bypass_correct": 0.0, "bypass_wrong": 0.0}
        for name, group in self.stats.groups().items():
            if name.endswith(".predictor"):
                for key in counts:
                    counts[key] += group[key]
        size_total = counts["size_correct"] + counts["size_wrong"]
        bypass_total = counts["bypass_correct"] + counts["bypass_wrong"]
        return {
            "size": counts["size_correct"] / size_total if size_total else 0.0,
            "bypass": counts["bypass_correct"] / bypass_total if bypass_total else 0.0,
        }

    def row_buffer_hit_rate(self) -> float:
        """Row-buffer hit rate of the POM-TLB's stacked DRAM (Fig 11)."""
        group = self.stats.groups().get("stacked_dram")
        if group is None or not group["accesses"]:
            return 0.0
        return group["row_hits"] / group["accesses"]

    # -- latency distributions ------------------------------------------------

    def latency_percentiles(self, name: str = "translation_cycles"
                            ) -> Dict[str, float]:
        """p50/p90/p99/max of one collected histogram (zeros when absent).

        ``name`` is one of :data:`repro.obs.HISTOGRAMS`:
        ``translation_cycles``, ``penalty_cycles``, ``dram_access_cycles``.
        """
        histogram = (self.histograms or {}).get(name)
        if histogram is None or not histogram.count:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
        return {"p50": histogram.p50, "p90": histogram.p90,
                "p99": histogram.p99, "max": float(histogram.max)}


class Machine:
    """One simulated system running one translation scheme."""

    def __init__(self, config: SystemConfig, scheme: str = "pom",
                 thp_large_fraction: float = 0.0, seed: int = 0,
                 tlb_priority: bool = False,
                 host_memory_bytes: int = 64 * addr.GiB,
                 thp_fractions: Optional[Dict[int, float]] = None,
                 obs: Optional[Observability] = None,
                 faults=None,
                 verify=None,
                 batch: Optional[bool] = None,
                 **scheme_kwargs) -> None:
        self.config = config
        self.seed = seed
        self.thp_large_fraction = thp_large_fraction
        #: per-VM (or per-native-asid) THP overrides for mixed workloads
        self.thp_fractions = thp_fractions or {}
        self.stats = StatRegistry()
        self.hierarchy = CacheHierarchy(config, self.stats,
                                        tlb_priority=tlb_priority)
        self.host = Host(memory_bytes=host_memory_bytes)
        self._native_processes: Dict[int, NativeProcess] = {}
        self._thp = partial(_thp_policy, seed, self.thp_fractions,
                            thp_large_fraction)
        self._native_process = partial(_native_process,
                                       self._native_processes,
                                       self.host.memory, self._thp)
        self.walkers = WalkerPool(config, self.stats, self.hierarchy,
                                  self.host,
                                  native_resolver=self._native_process)
        self.scheme: TranslationScheme = make_scheme(
            scheme, config, self.stats, self.hierarchy, self.walkers,
            **scheme_kwargs)
        self.obs = obs if obs is not None else Observability()
        self.obs.attach(self)
        #: Fault-injection hook (:mod:`repro.faults`); the null object's
        #: ``active`` is False, so the hot path pays one attribute check.
        self.faults = faults if faults is not None else NO_TRANSLATION_FAULTS
        #: Consistency-audit hook (:mod:`repro.verify`); same null-object
        #: pattern.  ``verify=True`` arms the default invariant set, or
        #: pass a configured :class:`~repro.verify.Verifier`.
        if verify is None:
            self.verifier = NO_VERIFIER
        elif verify is True:
            self.verifier = Verifier()
        else:
            self.verifier = verify
        #: Batched-replay knob (:mod:`repro.core.batch`).  ``None`` defers
        #: to the ``POMTLB_BATCH`` env var (default on); it is an
        #: execution field — it can never change results, only which
        #: engine produces them.
        self.batch_enabled = resolve_batch_flag(batch)
        #: ``"batch"`` or ``"scalar"`` after the last :meth:`run`.
        self.last_replay_mode: Optional[str] = None
        #: Why the batch engine declined the last run (None if it ran).
        self.batch_fallback_reason: Optional[str] = None

    # -- software contexts ----------------------------------------------------

    def touch(self, vm_id: int, asid: int, vaddr: int) -> ResolvedPage:
        """Demand-page ``vaddr`` in (public: handy for tests/REPL use)."""
        if self.config.virtualized:
            vm = self.host.vms.get(vm_id)
            if vm is None:
                vm = self.host.create_vm(vm_id, self._thp(vm_id))
            return vm.touch(asid, vaddr)
        return self._native_process(asid).touch(vaddr)

    def _stream_info(self, stream: CoreStream) -> tuple:
        """Per-stream constants hoisted out of the replay hot loop.

        Creates the stream's VM/process on first use — at the stream's
        first replayed reference, which is exactly where the seed
        engine's first ``touch`` would have created them, so page-frame
        allocation order (and thus every downstream address) is
        unchanged.
        """
        vm_id, asid = stream.vm_id, stream.asid
        if self.config.virtualized:
            vm = self.host.vms.get(vm_id)
            if vm is None:
                vm = self.host.create_vm(vm_id, self._thp(vm_id))
            proc = vm.process(asid)
        else:
            proc = self._native_process(asid)
        # Demand-paging (first touch of a page) goes through the public
        # ``touch`` so instrumentation wrappers still see it;
        # resolved pages are served straight from the process dicts.
        touch_slow = partial(self.touch, vm_id, asid)
        return (stream.core, pack_context(vm_id, asid),
                proc.large_pages, proc.small_pages, touch_slow)

    # -- execution -----------------------------------------------------------

    def run(self, streams: Iterable[CoreStream],
            max_references: Optional[int] = None,
            warmup_references: Union[int, Mapping[int, int]] = 0,
            events: Optional[Sequence] = None) -> SimulationResult:
        """Replay the streams to completion (or ``max_references``).

        ``warmup_references`` replays that much of the trace first, then
        zeroes every statistic while keeping all structure state (TLB,
        cache, POM-TLB and predictor contents).  This measures steady
        state, like the paper's 20-billion-instruction runs where
        compulsory misses are negligible; without it, short traces are
        dominated by first-touch misses no scheme can avoid.

        An ``int`` counts references globally across the interleaved
        merge.  A ``{core: count}`` mapping waits until **every** listed
        core has delivered its own count — required when streams tick
        their instruction clocks at different rates (mixed-benchmark
        consolidation), where a global count would cut some cores off
        mid-prologue.

        ``events`` schedules OS-level operations mid-run: each entry has
        a ``position`` (the 0-based index in the global interleaved
        merge, warmup included, *before* which it fires) and an
        ``apply(machine)`` method — see
        :class:`~repro.workloads.lifecycle.LifecycleEvent`.  Events at or
        past the end of the trace fire after the last reference; events
        past a ``max_references`` stop never fire.  Scheduled events
        force the scalar engine (recorded in ``batch_fallback_reason``),
        so results are engine-independent by construction.
        """
        streams = list(streams)
        for stream in streams:
            problem = identity_error(stream.core, stream.vm_id, stream.asid,
                                     self.config.num_cores)
            if problem:
                raise ValueError(problem)
        pending = sorted(events, key=lambda e: e.position) if events else []
        if self.batch_enabled:
            if pending:
                self.batch_fallback_reason = ("mid-run lifecycle events "
                                              "scheduled")
            else:
                replay = _batch_try_replay(self, streams, max_references,
                                           warmup_references)
                if replay is not None:
                    self.last_replay_mode = "batch"
                    return self._finish_run(*replay)
        else:
            self.batch_fallback_reason = "batching disabled"
        self.last_replay_mode = "scalar"
        obs = self.obs
        faults = self.faults
        tracer = obs.tracer
        histograms = obs.histograms
        record_translation = record_penalty = None
        # Latencies are recorded with the histograms' bound list appends
        # and folded whenever the translation list reaches FOLD_AT.
        translation_pending: list = []
        if histograms is not None:
            translation_pending = histograms["translation_cycles"].pending
            record_translation = histograms["translation_cycles"].record
            record_penalty = histograms["penalty_cycles"].record
        windows = obs.windows
        record_window = windows.record if windows is not None else None
        translate_packed = self.scheme.translate_packed
        data_access = self.hierarchy.data_access
        # Both in-tree faulters fix ``active`` at class level; hoist it.
        faults_active = faults.active
        on_translation = faults.on_translation
        # Same for the verifier: one hoisted bool, nothing when disabled.
        verifier = self.verifier
        verifier_active = verifier.active
        on_verify = verifier.on_translation
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
        merged = merge_order(streams)
        sources = merged.streams
        owner = merged.owner
        icounts = merged.icounts
        vaddrs = merged.vaddrs
        order = merged.order
        stop_at = (max_references if max_references is not None
                   else len(order) + 1)
        # Per-stream constants hoisted out of the loop, resolved at the
        # stream's first reference and again after every event (a
        # destroyed VM's page dicts and packed context are dead).
        infos: List[Optional[tuple]] = [None] * len(sources)
        queue = list(reversed(pending))  # pop() yields earliest-first
        next_event = max(queue[-1].position, 0) if queue else -1
        replayed = 0
        for position, j in enumerate(order):
            if position == next_event:
                while queue and queue[-1].position <= position:
                    queue.pop().apply(self)
                next_event = queue[-1].position if queue else -1
                infos = [None] * len(sources)
            s = owner[j]
            info = infos[s]
            if info is None:
                core, ctx, large_pages, small_pages, touch_slow = (
                    self._stream_info(sources[s]))
                info = infos[s] = (core, ctx, large_pages.get,
                                   small_pages.get, touch_slow)
            core, ctx, large_get, small_get, touch_slow = info
            if warming:
                if warmup_remaining:
                    key = -1 if -1 in warmup_remaining else core
                    if key in warmup_remaining:
                        warmup_remaining[key] -= 1
                        if warmup_remaining[key] <= 0:
                            del warmup_remaining[key]
                else:
                    warming = False
                    references = 0
                    translation_cycles = 0
                    data_cycles = 0
                    self.stats.reset()
                    obs.reset()
                    verifier.reset()
                    if tracer.enabled:
                        tracer.marker("stats_reset")
                    warmup_boundary = dict(last_icount)
            if faults_active:
                on_translation()
            vaddr = vaddrs[j]
            page = large_get(vaddr >> _LARGE_SHIFT)
            if page is None:
                page = small_get(vaddr >> _SMALL_SHIFT)
                if page is None:
                    page = touch_slow(vaddr)
            result = translate_packed(core, ctx, vaddr, page)
            translation_cycles += result[0]
            hpa = page[2] | (vaddr & (_LARGE_MASK if page[0] else _SMALL_MASK))
            data_cycles += data_access(core, hpa)
            if record_translation is not None:
                record_translation(result[0])
                if result[1]:
                    record_penalty(result[2])
                if len(translation_pending) >= FOLD_AT:
                    obs.fold()
            if record_window is not None:
                record_window(result[0], result[1], result[2])
            if verifier_active:
                on_verify(result)
            references += 1
            if warming:
                # The warmup-reset boundary snapshots last_icount, so it
                # must be exact per reference until warm-up ends.
                last_icount[core] = icounts[j]
            if references >= stop_at:
                replayed = position + 1
                break
        else:
            replayed = len(order)
            # Events at or past the end of the trace fire after the last
            # reference (e.g. the final generation's teardowns).
            while queue:
                queue.pop().apply(self)
        if warming:
            raise ValueError(
                f"warmup ({warmup_references}) consumed the whole trace")
        # Each core's clock stops at its last replayed reference.
        cores = len({stream.core for stream in sources})
        last_icount = {}
        for position in range(replayed - 1, -1, -1):
            j = order[position]
            core = sources[owner[j]].core
            if core not in last_icount:
                last_icount[core] = icounts[j]
                if len(last_icount) == cores:
                    break
        return self._finish_run(references, translation_cycles, data_cycles,
                                last_icount, warmup_boundary)

    def _finish_run(self, references: int, translation_cycles: int,
                    data_cycles: int, last_icount: Dict[int, int],
                    warmup_boundary: Dict[int, int]) -> SimulationResult:
        """Fold the replay-loop tallies into a :class:`SimulationResult`.

        Shared by the scalar loop and the batched engine
        (:func:`repro.core.batch.try_replay`), which produce the exact
        same five tallies.
        """
        self.obs.fold()
        histograms = self.obs.histograms
        pom = getattr(self.scheme, "pom", None)
        if histograms is not None and pom is not None:
            histogram = histograms["dram_access_cycles"]
            histogram.reset()
            for cycles, accesses in pom.dram.latency_counts():
                histogram.record_many(cycles, accesses)
        windows = self.obs.windows
        if windows is not None:
            windows.finish()
        instructions = sum(
            last_icount[core] - warmup_boundary.get(core, 0)
            for core in last_icount)
        mmu_stats = self.stats.group("mmu")
        result = SimulationResult(
            scheme=self.scheme.name,
            references=references,
            instructions=instructions,
            l2_tlb_misses=int(mmu_stats["l2_tlb_misses"]),
            penalty_cycles=int(mmu_stats["penalty_cycles"]),
            translation_cycles=translation_cycles,
            data_cycles=data_cycles,
            page_walks=int(mmu_stats["page_walks"]),
            stats=self.stats,
            histograms=histograms,
            windows=windows,
        )
        if self.verifier.active:
            self.verifier.finish(self, result)
        return result

    # -- OS-visible operations --------------------------------------------------

    def shootdown(self, vm_id: int, asid: int, vaddr: int) -> int:
        """TLB shootdown of one page across all structures.

        Returns the modelled shootdown cost in cycles.

        The invalidation is size-agnostic end to end: when the page is
        already unmapped (the common real-world ordering — the OS
        removes the mapping, then shoots down) the size is unknowable,
        so ``large=None`` is passed through and the scheme drops *both*
        page sizes everywhere, never guessing ``large=False``.  Looking
        the page up must not create contexts as a side effect, so only
        existing VMs/processes are consulted.
        """
        if self.config.virtualized:
            vm = self.host.vms.get(vm_id)
            page = vm.resolve(asid, vaddr) if vm is not None else None
        else:
            proc = self._native_processes.get(asid)
            page = proc.resolve(vaddr) if proc is not None else None
        large = page.large if page is not None else None
        verifier = self.verifier
        if not verifier.active:
            return self.scheme.shootdown(vm_id, asid, vaddr, large)
        token = verifier.token_shootdown(self, vm_id, asid, vaddr)
        cycles = self.scheme.shootdown(vm_id, asid, vaddr, large)
        verifier.check_shootdown(self, vm_id, asid, vaddr, token)
        return cycles

    def invalidate_vm(self, vm_id: int) -> int:
        """Drop every translation of one VM everywhere (VM teardown).

        Clears the VM's entries from the private SRAM TLBs, the paging-
        structure caches, the scheme's backing structure and any cached
        copies of its memory-mapped lines.  Returns the number of
        backing-structure entries dropped.
        """
        verifier = self.verifier
        if not verifier.active:
            return self.scheme.invalidate_vm(vm_id)
        token = verifier.token_invalidate_vm(self, vm_id)
        dropped = self.scheme.invalidate_vm(vm_id)
        verifier.check_invalidate_vm(self, vm_id, token)
        return dropped

    def destroy_vm(self, vm_id: int) -> FreedFrames:
        """Full VM teardown: invalidate everywhere, then reclaim frames.

        Orders the hardware-visible half first — :meth:`invalidate_vm`
        drops the VM's translations from every TLB, PSC, backend and
        cached backing line — then purges the VM's walkers (they hold
        bound references to the dying tables) and releases every host
        frame the VM pinned back to the allocator's free lists.  A later
        ``touch`` of the same vm_id boots a fresh VM that reuses the
        freed frames (cold-migration arrival / consolidation churn).

        Returns the :class:`~repro.vmm.vm.FreedFrames` tally.
        """
        if not self.config.virtualized:
            raise ValueError("destroy_vm requires virtualized mode")
        verifier = self.verifier
        token = (verifier.token_destroy_vm(self, vm_id)
                 if verifier.active else None)
        self.invalidate_vm(vm_id)
        self.walkers.discard_vm(vm_id)
        freed = self.host.destroy_vm(vm_id)
        if verifier.active:
            verifier.check_destroy_vm(self, vm_id, token)
        return freed
