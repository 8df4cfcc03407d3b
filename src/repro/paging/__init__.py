"""Radix page tables, paging-structure caches, native and nested walkers."""

from .nested import MAX_NESTED_REFS, NestedOutcome, NestedWalker
from .page_table import LeafMapping, RadixPageTable
from .walk_cache import PagingStructureCache
from .walker import NativeWalker, WalkOutcome

__all__ = [
    "MAX_NESTED_REFS",
    "LeafMapping",
    "NativeWalker",
    "NestedOutcome",
    "NestedWalker",
    "PagingStructureCache",
    "RadixPageTable",
    "WalkOutcome",
]
