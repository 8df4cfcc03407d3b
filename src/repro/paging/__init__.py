"""Radix page tables, paging-structure caches, native and nested walkers."""

from .nested import MAX_NESTED_REFS, NestedWalker
from .page_table import LeafMapping, RadixPageTable
from .walk_cache import PagingStructureCache
from .walker import NativeWalker, WalkResult

__all__ = [
    "MAX_NESTED_REFS",
    "LeafMapping",
    "NativeWalker",
    "NestedWalker",
    "PagingStructureCache",
    "RadixPageTable",
    "WalkResult",
]
