"""Configuration dataclasses for every simulated component.

The defaults reproduce Table 1 of the paper (the Skylake-like host and
the die-stacked / DDR4 memory parameters) plus the POM-TLB organisation
described in Section 2.  Every config validates itself in
``__post_init__`` so a bad experiment sweep fails at construction, not
three minutes into a simulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from . import addr
from .errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass
class CacheConfig:
    """Geometry and latency of one set-associative data cache level."""

    name: str
    size_bytes: int
    ways: int
    latency_cycles: int
    line_bytes: int = addr.CACHE_LINE_SIZE

    def __post_init__(self) -> None:
        _require(addr.is_power_of_two(self.line_bytes), f"{self.name}: line size must be a power of two")
        _require(self.size_bytes % (self.ways * self.line_bytes) == 0,
                 f"{self.name}: size must be a multiple of ways*line")
        _require(addr.is_power_of_two(self.num_sets), f"{self.name}: set count must be a power of two")
        _require(self.latency_cycles >= 1, f"{self.name}: latency must be >= 1 cycle")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass
class TlbConfig:
    """Geometry and latency of one SRAM TLB level."""

    name: str
    entries: int
    ways: int
    latency_cycles: int
    miss_penalty_cycles: int = 0

    def __post_init__(self) -> None:
        _require(self.entries % self.ways == 0, f"{self.name}: entries must divide by ways")
        _require(addr.is_power_of_two(self.entries // self.ways),
                 f"{self.name}: set count must be a power of two")
        _require(self.latency_cycles >= 1, f"{self.name}: latency must be >= 1 cycle")

    @property
    def num_sets(self) -> int:
        return self.entries // self.ways


@dataclass
class MmuConfig:
    """Private TLB hierarchy of one core (Table 1, MMU section)."""

    l1_small: TlbConfig = field(default_factory=lambda: TlbConfig(
        name="l1_tlb_4k", entries=64, ways=4, latency_cycles=1, miss_penalty_cycles=9))
    l1_large: TlbConfig = field(default_factory=lambda: TlbConfig(
        name="l1_tlb_2m", entries=32, ways=4, latency_cycles=1, miss_penalty_cycles=9))
    l2_unified: TlbConfig = field(default_factory=lambda: TlbConfig(
        name="l2_tlb", entries=1536, ways=12, latency_cycles=9, miss_penalty_cycles=17))


@dataclass
class WalkCacheConfig:
    """Page structure caches (PSCs) — Table 1, PSC section.

    One entry caches the physical address of the next-level table for a
    given VA prefix, letting the walker skip upper levels of the radix
    tree.  Latencies are per-hit lookup costs.
    """

    pml4_entries: int = 2
    pdp_entries: int = 4
    pde_entries: int = 32
    hit_latency_cycles: int = 2

    def __post_init__(self) -> None:
        _require(self.pml4_entries >= 0 and self.pdp_entries >= 0 and self.pde_entries >= 0,
                 "PSC entry counts must be non-negative")
        _require(self.hit_latency_cycles >= 0, "PSC latency must be non-negative")


@dataclass
class DramTimingConfig:
    """DRAM bank timing in memory-bus clock cycles (Table 1)."""

    name: str
    bus_mhz: int
    bus_bits: int
    row_buffer_bytes: int = 2048
    tcas: int = 11
    trcd: int = 11
    trp: int = 11
    banks: int = 8
    #: fixed controller/queueing overhead added to every access, in bus cycles
    controller_cycles: int = 2

    def __post_init__(self) -> None:
        _require(self.bus_mhz > 0, f"{self.name}: bus frequency must be positive")
        _require(addr.is_power_of_two(self.row_buffer_bytes), f"{self.name}: row size must be a power of two")
        _require(addr.is_power_of_two(self.banks), f"{self.name}: bank count must be a power of two")
        for param in ("tcas", "trcd", "trp"):
            _require(getattr(self, param) > 0, f"{self.name}: {param} must be positive")

    def cpu_cycles(self, bus_cycles: float, cpu_mhz: int) -> int:
        """Convert bus cycles into CPU cycles at ``cpu_mhz`` (rounded up)."""
        return -int(-bus_cycles * cpu_mhz // self.bus_mhz)


def stacked_dram_timing() -> DramTimingConfig:
    """Die-stacked DRAM channel hosting the POM-TLB (Table 1).

    Bank count follows the HBM generation the paper cites (JESD235A:
    16 banks per channel), which matters for row-buffer behaviour under
    8-core interleaved miss streams.
    """
    return DramTimingConfig(name="stacked", bus_mhz=1000, bus_bits=128,
                            row_buffer_bytes=2048, tcas=11, trcd=11, trp=11,
                            banks=16)


def ddr4_timing() -> DramTimingConfig:
    """Off-chip DDR4-2133 main-memory channel (Table 1)."""
    return DramTimingConfig(name="ddr4", bus_mhz=1066, bus_bits=64,
                            row_buffer_bytes=2048, tcas=14, trcd=14, trp=14, banks=16)


@dataclass
class PomTlbConfig:
    """Organisation of the part-of-memory L3 TLB (paper Section 2.1).

    The total capacity is split between the small-page and large-page
    partitions.  Entries are 16 B, sets are 4-way = one 64 B line, so a
    partition of ``size_bytes`` holds ``size_bytes / 64`` sets.
    """

    size_bytes: int = 16 * addr.MiB
    ways: int = 4
    entry_bytes: int = 16
    #: fraction of capacity given to the small-page partition
    small_fraction: float = 0.5
    #: physical base address of the POM-TLB region (beyond simulated DRAM)
    base_address: int = 1 << 45

    def __post_init__(self) -> None:
        _require(self.ways * self.entry_bytes == addr.CACHE_LINE_SIZE,
                 "one POM-TLB set must fill exactly one 64B cache line")
        _require(0.0 < self.small_fraction < 1.0, "small_fraction must be in (0, 1)")
        _require(addr.is_power_of_two(self.small_size_bytes)
                 and addr.is_power_of_two(self.large_size_bytes),
                 "each POM-TLB partition must be a power-of-two size")

    @property
    def small_size_bytes(self) -> int:
        return int(self.size_bytes * self.small_fraction)

    @property
    def large_size_bytes(self) -> int:
        return self.size_bytes - self.small_size_bytes

    @property
    def small_sets(self) -> int:
        return self.small_size_bytes // addr.CACHE_LINE_SIZE

    @property
    def large_sets(self) -> int:
        return self.large_size_bytes // addr.CACHE_LINE_SIZE

    @property
    def small_base(self) -> int:
        return self.base_address

    @property
    def large_base(self) -> int:
        return self.base_address + self.small_size_bytes

    def contains(self, paddr: int) -> bool:
        """True when ``paddr`` falls inside the POM-TLB address range."""
        return self.base_address <= paddr < self.base_address + self.size_bytes


@dataclass
class PredictorConfig:
    """Page-size + cache-bypass predictor (paper Section 2.1.4/2.1.5).

    ``size_counter_bits = 1`` is the paper's design (flip on every
    mistake); larger values add the hysteresis the paper's footnote 2
    suggests ("one could improve accuracy by adding hysteresis via a
    multi-bit saturating predictor").  ``bypass_enabled = False``
    disables the cache-bypass half entirely (ablation).
    """

    entries: int = 512
    #: VA bits used for indexing start above the 4 KiB page offset
    index_shift: int = addr.SMALL_PAGE_SHIFT
    size_counter_bits: int = 1
    bypass_enabled: bool = True

    def __post_init__(self) -> None:
        _require(addr.is_power_of_two(self.entries), "predictor entries must be a power of two")
        _require(1 <= self.size_counter_bits <= 4,
                 "size counter must be 1..4 bits")


@dataclass
class TsbConfig:
    """SPARC-style Translation Storage Buffer baseline (Section 3.3)."""

    size_bytes: int = 16 * addr.MiB
    entry_bytes: int = 16
    #: OS trap entry/exit cost per L2 TLB miss, in CPU cycles
    trap_cycles: int = 20
    base_address: int = 1 << 44

    def __post_init__(self) -> None:
        _require(self.size_bytes % self.entry_bytes == 0, "TSB size must divide by entry size")
        _require(addr.is_power_of_two(self.num_entries), "TSB entry count must be a power of two")

    @property
    def num_entries(self) -> int:
        return self.size_bytes // self.entry_bytes


@dataclass
class SharedL2Config:
    """Shared last-level SRAM TLB baseline (Bhattacharjee et al. [9]).

    Private L2 TLBs are replaced by one shared structure with the
    aggregate capacity.  As in the reference proposal the array is
    distributed into per-core banks, so the array access stays at
    private-L2 latency and only the ``interconnect_cycles`` hop is extra.
    """

    entries_per_core: int = 1536
    ways: int = 12
    interconnect_cycles: int = 4
    array_latency_cycles: int = 9

    def tlb_config(self, num_cores: int) -> TlbConfig:
        """Materialise the shared TLB geometry for ``num_cores`` cores."""
        entries = self.entries_per_core * num_cores
        return TlbConfig(name="shared_l2_tlb", entries=entries, ways=self.ways,
                         latency_cycles=self.array_latency_cycles
                         + self.interconnect_cycles)


@dataclass
class SystemConfig:
    """Top-level system: cores, caches, TLBs, DRAM, POM-TLB (Table 1)."""

    num_cores: int = 8
    cpu_mhz: int = 4000
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l1d", size_bytes=32 * addr.KiB, ways=8, latency_cycles=4))
    l2d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l2d", size_bytes=256 * addr.KiB, ways=4, latency_cycles=12))
    l3d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l3d", size_bytes=8 * addr.MiB, ways=16, latency_cycles=42))
    mmu: MmuConfig = field(default_factory=MmuConfig)
    walk_cache: WalkCacheConfig = field(default_factory=WalkCacheConfig)
    pom_tlb: PomTlbConfig = field(default_factory=PomTlbConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    stacked_dram: DramTimingConfig = field(default_factory=stacked_dram_timing)
    main_dram: DramTimingConfig = field(default_factory=ddr4_timing)
    #: enable caching of POM-TLB entries in L2D$/L3D$ (Fig 12 ablation)
    cache_tlb_entries: bool = True
    #: virtualized (2-D nested walk) vs native (1-D walk) page walks
    virtualized: bool = True
    #: die-stacked DRAM used as an L4 *data* cache (Section 2.2
    #: trade-off study); 0 disables it
    l4_data_cache_bytes: int = 0
    #: next-page POM-TLB set prefetching (the Related Work extension:
    #: "POM-TLB augmented with a prefetcher")
    tlb_prefetch: bool = False

    def __post_init__(self) -> None:
        _require(self.num_cores >= 1, "need at least one core")
        _require(self.cpu_mhz > 0, "cpu frequency must be positive")

    def copy_with(self, **overrides) -> "SystemConfig":
        """Return a new config with ``overrides`` replacing fields."""
        return dataclasses.replace(self, **overrides)
