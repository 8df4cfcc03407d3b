"""Set-associative data caches and the chip's cache hierarchy."""

from .cache import DATA, TLB, SetAssociativeCache
from .dram_cache import DramCacheAccess, DramDataCache
from .hierarchy import CacheHierarchy

__all__ = [
    "DATA",
    "TLB",
    "CacheHierarchy",
    "DramCacheAccess",
    "DramDataCache",
    "SetAssociativeCache",
]
