"""Shared primitives: addresses, configuration, statistics, RNG, errors."""

from . import addr
from .config import (
    CacheConfig,
    DramTimingConfig,
    MmuConfig,
    PomTlbConfig,
    PredictorConfig,
    SharedL2Config,
    SystemConfig,
    TlbConfig,
    TsbConfig,
    WalkCacheConfig,
    ddr4_timing,
    stacked_dram_timing,
)
from .errors import (
    AddressError,
    CheckpointError,
    ConfigError,
    FaultInjected,
    ReproError,
    RunFailed,
    RunTimeout,
    TraceFormatError,
    TransientError,
    TranslationFault,
    WorkerCrash,
)
from .fileio import AtomicFile, atomic_write_text
from .rng import ZipfSampler, make_rng, shuffled_ranks
from .stats import StatGroup, StatRegistry

__all__ = [
    "addr",
    "AddressError",
    "AtomicFile",
    "CacheConfig",
    "CheckpointError",
    "ConfigError",
    "DramTimingConfig",
    "FaultInjected",
    "MmuConfig",
    "PomTlbConfig",
    "PredictorConfig",
    "ReproError",
    "RunFailed",
    "RunTimeout",
    "SharedL2Config",
    "StatGroup",
    "StatRegistry",
    "SystemConfig",
    "TlbConfig",
    "TraceFormatError",
    "TransientError",
    "TranslationFault",
    "TsbConfig",
    "WalkCacheConfig",
    "WorkerCrash",
    "ZipfSampler",
    "atomic_write_text",
    "ddr4_timing",
    "make_rng",
    "shuffled_ranks",
    "stacked_dram_timing",
]
