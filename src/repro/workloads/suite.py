"""The benchmark suite: 15 workloads with the paper's Table 2 anchors.

Each :class:`BenchmarkProfile` couples

* the **measured baseline characteristics** from Table 2 of the paper
  (translation overhead %, cycles per L2 TLB miss, native and
  virtualized, large-page fraction) — these anchor the Eq. 2-5
  performance model exactly as the paper anchors it on Skylake perf
  counters; and
* a **synthetic trace recipe** — a weighted mixture of access-pattern
  regions whose footprints, skew and spatial density imitate the
  benchmark's TLB-relevant behaviour (see DESIGN.md for the
  substitution rationale).

SPEC workloads run in SPECrate mode (one copy per core, private address
spaces); PARSEC and the graph workloads run multithreaded (all cores
share one address space), matching Section 3.1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from ..common import addr
from ..common.rng import make_rng
from ..core.perfmodel import BaselineAnchor
from . import graphgen, synthetic
from .trace import CoreStream

#: All patterns the suite can reference.
PATTERNS = dict(synthetic.PATTERNS)
PATTERNS["graph"] = graphgen.graph_traversal
PATTERNS["bfs"] = graphgen.bfs_bursts


@dataclass(frozen=True)
class Region:
    """One address-space region of a benchmark."""

    name: str
    pages: int            # footprint in 4 KiB pages (at scale 1.0)
    weight: float         # fraction of page-visits hitting this region
    pattern: str          # key into PATTERNS
    lines_per_visit: int = 1  # cache lines touched per page visit
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkProfile:
    """Trace recipe + measured baseline anchors for one benchmark."""

    name: str
    regions: Tuple[Region, ...]
    inst_per_ref: int
    write_fraction: float
    multithreaded: bool
    # Table 2 rows:
    overhead_native_pct: float
    overhead_virtual_pct: float
    cycles_per_miss_native: float
    cycles_per_miss_virtual: float
    large_page_fraction_pct: float

    def anchor(self, virtualized: bool = True) -> BaselineAnchor:
        """The Eq. 2-5 baseline anchor (measured, from Table 2)."""
        if virtualized:
            return BaselineAnchor(self.overhead_virtual_pct,
                                  self.cycles_per_miss_virtual)
        return BaselineAnchor(self.overhead_native_pct,
                              self.cycles_per_miss_native)

    @property
    def thp_large_fraction(self) -> float:
        return self.large_page_fraction_pct / 100.0

    def footprint_pages(self, scale: float = 1.0) -> int:
        return sum(max(16, int(r.pages * scale)) for r in self.regions)

    # -- trace synthesis ----------------------------------------------------

    def build(self, num_cores: int, refs_per_core: int, seed: int = 0,
              scale: float = 1.0) -> "Workload":
        """Generate per-core streams plus their warmup prologue.

        The prologue touches every page of every region once in address
        order, so a steady-state measurement (``warmup_references``)
        excludes compulsory misses — the paper's 20-billion-instruction
        runs are overwhelmingly steady state.
        """
        streams: List[CoreStream] = []
        warmup_total = 0
        warmup_by_core: Dict[int, int] = {}
        for core in range(num_cores):
            if self.multithreaded:
                vm_id, asid, space_seed = 0, 1, 0
            else:
                vm_id, asid, space_seed = 0, core + 1, core + 1
            rng = make_rng(seed, f"{self.name}:core{core}")
            # ASLR: each address space lays its regions out at different
            # page offsets.  Without this, SPECrate copies (same binary,
            # same VM) would alias onto the same POM-TLB sets — Eq. 1
            # only XORs the VM ID into the index.  Multithreaded
            # workloads share one space and therefore one layout.
            layout_rng = make_rng(seed, f"{self.name}:aslr:{asid}")
            bases = [((i + 1) << 32) + layout_rng.randrange(1 << 18) * 4096
                     for i in range(len(self.regions))]
            # Threads of a shared address space only need one warmup
            # prologue — core 0 touches every page for all of them.  The
            # other threads start their instruction clocks after it (they
            # would be waiting on initialisation in the real program), so
            # the interleaved merge keeps warmup strictly before the
            # measured phase.
            prologue = not (self.multithreaded and core > 0)
            icount_start = (0 if prologue
                            else self.footprint_pages(scale) * self.inst_per_ref)
            stream = CoreStream(core=core, vm_id=vm_id, asid=asid)
            warmup = self._fill_stream(stream, rng, refs_per_core, scale,
                                       stagger=core, bases=bases,
                                       prologue=prologue,
                                       icount_start=icount_start)
            warmup_total += warmup
            if warmup:
                warmup_by_core[core] = warmup
            streams.append(stream)
        return Workload(profile=self, streams=streams,
                        warmup_references=warmup_total, seed=seed,
                        scale=scale, warmup_by_core=warmup_by_core)

    def _fill_stream(self, stream: CoreStream, rng: random.Random,
                     refs: int, scale: float, stagger: int, bases: List[int],
                     prologue: bool = True, icount_start: int = 0) -> int:
        """Append the stream's records; returns its prologue's length."""
        regions = [(r, max(16, int(r.pages * scale))) for r in self.regions]
        add_icount = stream.icounts.append
        add_vaddr = stream.vaddrs.append
        add_write = stream.writes.append
        icount = icount_start
        ipr = self.inst_per_ref
        wfrac = self.write_fraction

        # Warmup prologue: sequential touch of every page, one line each.
        if prologue:
            for index, (region, pages) in enumerate(regions):
                base = bases[index]
                for page in range(pages):
                    icount += ipr
                    add_icount(icount)
                    add_vaddr(base + page * 4096)
                    add_write(False)
        warmup = len(stream)

        # Measured phase: weighted interleave of the region generators.
        generators = []
        for index, (region, pages) in enumerate(regions):
            gen = _pattern(region.pattern, pages, rng, dict(region.params))
            # Stagger multithreaded workers into different phases of the
            # same pattern so they do not move in lockstep.
            for _ in range(stagger * 97 % max(1, pages)):
                next(gen)
            generators.append((region, pages, bases[index], gen))
        weights = [r.weight for r, _p, _b, _g in generators]
        picks = rng.choices(range(len(generators)), weights=weights,
                            k=refs)  # upper bound; visits emit >=1 ref
        emitted = 0
        pick_iter = iter(picks)
        while emitted < refs:
            try:
                choice = next(pick_iter)
            except StopIteration:
                pick_iter = iter(rng.choices(range(len(generators)),
                                             weights=weights, k=refs))
                continue
            region, pages, base, gen = generators[choice]
            page = next(gen)
            page_base = base + page * 4096
            sequentialish = region.pattern in ("sequential", "strided")
            for line in range(region.lines_per_visit):
                icount += ipr
                offset = (line * 64 if sequentialish
                          else rng.randrange(64) * 64)
                add_icount(icount)
                add_vaddr(page_base + (offset & 4095))
                add_write(rng.random() < wfrac)
                emitted += 1
                if emitted >= refs:
                    break
        return warmup



def _pattern(name: str, pages: int, rng: random.Random,
             params: dict) -> Iterator[int]:
    try:
        factory = PATTERNS[name]
    except KeyError:
        raise ValueError(f"unknown pattern {name!r}") from None
    return factory(pages, rng, params)


@dataclass
class Workload:
    """A generated multi-core workload ready for :meth:`Machine.run`."""

    profile: BenchmarkProfile
    streams: List[CoreStream]
    warmup_references: int
    seed: int
    scale: float
    #: per-core prologue lengths (pass to Machine.run for mixed clocks)
    warmup_by_core: Dict[int, int] = field(default_factory=dict)

    @property
    def references(self) -> int:
        return sum(len(s) for s in self.streams)


def _profile(name: str, regions, ipr: int, wfrac: float, mt: bool,
             table2: Tuple[float, float, float, float, float]) -> BenchmarkProfile:
    ov_n, ov_v, cpm_n, cpm_v, large = table2
    return BenchmarkProfile(
        name=name, regions=tuple(regions), inst_per_ref=ipr,
        write_fraction=wfrac, multithreaded=mt,
        overhead_native_pct=ov_n, overhead_virtual_pct=ov_v,
        cycles_per_miss_native=cpm_n, cycles_per_miss_virtual=cpm_v,
        large_page_fraction_pct=large)


# Footprints are scale-1.0 defaults sized for tractable pure-Python runs;
# experiments pass a larger scale for closer-to-paper footprints.
SUITE: Dict[str, BenchmarkProfile] = {p.name: p for p in (
    _profile("astar", [
        # The open list is re-scanned constantly and slightly exceeds
        # the L2 TLB's reach: the classic hot thrash band that gives
        # astar its 16% translation overhead at ~114 cycles/miss.
        Region("openlist", 6144, 0.45, "sequential", 2),
        Region("heap", 10240, 0.30, "zipf", 4, {"alpha": 1.2}),
        Region("graphmap", 4096, 0.15, "pointer", 2),
        Region("arrays", 4096, 0.10, "sequential", 16),
    ], ipr=8, wfrac=0.25, mt=False, table2=(13.89, 16.08, 98, 114, 41.7)),
    _profile("bwaves", [
        Region("grid", 16384, 0.75, "sequential", 32),
        Region("grid2", 6144, 0.25, "strided", 8, {"stride": 129}),
    ], ipr=6, wfrac=0.30, mt=False, table2=(0.73, 7.70, 128, 151, 0.8)),
    _profile("canneal", [
        Region("netlist", 14336, 0.55, "pointer", 2),
        Region("elements", 4096, 0.45, "zipf", 4, {"alpha": 1.1}),
    ], ipr=10, wfrac=0.30, mt=True, table2=(3.19, 6.34, 53, 61, 16.0)),
    _profile("ccomponent", [
        Region("graph", 20480, 1.00, "graph", 1,
               {"alpha": 0.5, "shuffle": True, "vertex_fraction": 0.2}),
    ], ipr=8, wfrac=0.20, mt=True, table2=(0.73, 7.40, 44, 1158, 50.0)),
    _profile("gcc", [
        Region("ir", 8192, 0.70, "zipf", 8, {"alpha": 1.3}),
        Region("text", 4096, 0.30, "sequential", 16),
    ], ipr=12, wfrac=0.35, mt=False, table2=(0.30, 12.12, 46, 88, 29.0)),
    _profile("GemsFDTD", [
        # Boundary updates revisit a band of the grid every timestep.
        Region("boundary", 6144, 0.35, "sequential", 2),
        Region("grid", 16384, 0.40, "strided", 8, {"stride": 513}),
        Region("fields", 6144, 0.25, "sequential", 32),
    ], ipr=7, wfrac=0.35, mt=False, table2=(10.58, 16.01, 129, 133, 71.0)),
    _profile("graph500", [
        Region("graph", 18432, 1.00, "bfs", 2,
               {"window_pages": 64, "revisits": 3, "alpha": 0.5}),
    ], ipr=9, wfrac=0.20, mt=True, table2=(1.03, 7.66, 79, 80, 7.0)),
    _profile("gups", [
        Region("table", 12288, 0.85, "random", 1),
        Region("index", 2048, 0.15, "sequential", 16),
    ], ipr=5, wfrac=0.50, mt=False, table2=(12.20, 17.20, 43, 70, 2.59)),
    _profile("lbm", [
        Region("lattice", 16384, 0.85, "sequential", 48),
        Region("tmp", 6144, 0.15, "strided", 8, {"stride": 33}),
    ], ipr=6, wfrac=0.40, mt=False, table2=(0.05, 12.02, 110, 290, 57.4)),
    _profile("libquantum", [
        Region("state", 12288, 0.95, "sequential", 64),
        Region("gates", 1024, 0.05, "zipf", 8, {"alpha": 0.8}),
    ], ipr=8, wfrac=0.30, mt=False, table2=(0.02, 7.37, 70, 75, 32.9)),
    _profile("mcf", [
        Region("network", 12288, 0.45, "pointer", 2),
        Region("arcs", 8192, 0.55, "zipf", 4, {"alpha": 1.1}),
    ], ipr=7, wfrac=0.25, mt=False, table2=(10.32, 19.01, 66, 169, 60.7)),
    _profile("pagerank", [
        Region("graph", 18432, 1.00, "graph", 2,
               {"alpha": 0.9, "shuffle": False, "vertex_fraction": 0.3}),
    ], ipr=8, wfrac=0.25, mt=True, table2=(4.07, 6.96, 51, 61, 60.0)),
    _profile("soplex", [
        # Simplex iterations sweep the active columns every pivot: a
        # hot band just past the L2 TLB, plus a skewed matrix heap.
        Region("cols", 6144, 0.40, "strided", 2, {"stride": 3}),
        Region("matrix", 10240, 0.40, "zipf", 4, {"alpha": 1.2}),
        Region("rhs", 4096, 0.20, "sequential", 32),
    ], ipr=8, wfrac=0.30, mt=False, table2=(4.16, 17.07, 144, 145, 12.3)),
    _profile("streamcluster", [
        Region("points", 24576, 0.95, "sequential", 64),
        Region("centers", 512, 0.05, "zipf", 8, {"alpha": 0.8}),
    ], ipr=6, wfrac=0.15, mt=True, table2=(0.07, 2.11, 74, 76, 87.2)),
    _profile("zeusmp", [
        Region("grid", 12288, 0.60, "strided", 16, {"stride": 65}),
        Region("bnd", 8192, 0.40, "sequential", 32),
    ], ipr=7, wfrac=0.35, mt=False, table2=(0.01, 10.22, 136, 137, 72.1)),
)}

#: Suite order used by every figure (matches the paper's x-axes).
BENCHMARKS: List[str] = list(SUITE)


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark by name with a helpful error."""
    try:
        return SUITE[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; available: {BENCHMARKS}") from None
