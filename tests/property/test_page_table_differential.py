"""Differential property test: flat page table vs the frozen reference tree.

Random map / remap / unmap sequences (small and large pages, aligned
and misaligned frames, addresses above the 48-bit VA space) are applied
to :class:`repro.paging.page_table.RadixPageTable` and to the node-tree
:class:`repro.core._refimpl.page_table.RadixPageTable`.  After every
operation both must agree on its outcome (return value or exception
type and message), on every walk, lookup and table query over a set of
probe addresses, and on the order in which table frames were allocated
and are reported by ``table_frames()`` — the order a VM teardown frees
them in, which LIFO reuse turns into the next VM's addresses.
"""

from hypothesis import given, settings, strategies as st

from repro.common import addr
from repro.core._refimpl.page_table import RadixPageTable as TreeTable
from repro.paging.page_table import RadixPageTable as FlatTable

_LEVELS = (4, 3, 2, 1)


def _recording_allocator(log, op):
    """Bump allocator that logs the operation index of every call."""
    counter = iter(range(1 << 20))

    def alloc():
        log.append(op[0])
        return 0x4000_0000 + next(counter) * addr.SMALL_PAGE_SIZE

    return alloc


def _make_pair():
    op = [-1]  # index of the operation in progress
    flat_log, tree_log = [], []
    flat = FlatTable(_recording_allocator(flat_log, op), name="t")
    tree = TreeTable(_recording_allocator(tree_log, op), name="t")
    return flat, tree, op, flat_log, tree_log


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 -- the type is compared
        return (type(exc).__name__, str(exc))


def _leaf(leaf):
    return None if leaf is None else (leaf.frame, leaf.large)


def _walk(result, start_level):
    """Normalize a walk result to (PTE addresses, levels, leaf)."""
    status, value = result
    if status != "ok":
        return result
    steps, leaf = value
    if steps and hasattr(steps[0], "pte_paddr"):  # reference WalkSteps
        return (tuple(s.pte_paddr for s in steps),
                tuple(s.level for s in steps), _leaf(leaf))
    return (tuple(steps), tuple(start_level - i for i in range(len(steps))),
            _leaf(leaf))


def _tree_table_bases(tree, vaddr, min_level):
    """The node tree's single-descent ``table_bases`` semantics."""
    bases = []
    for level in range(3, min_level - 1, -1):
        base = tree.table_base(vaddr, level)
        if base is None:
            break
        bases.append((level, base))
    bases.reverse()
    return bases


def _tree_table_frames(tree):
    """Depth-first frame order of the node tree, as teardown frees it."""
    frames, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        frames.append(node.base)
        stack.extend(node.children.values())
    return frames


def _assert_agree(flat, tree, probes):
    assert flat.mapped_pages == tree.mapped_pages
    assert flat.table_count() == tree.table_count()
    assert flat.root_base == tree.root_base
    assert flat.table_frames() == _tree_table_frames(tree)
    for va in probes:
        assert _leaf(flat.lookup(va)) == _leaf(tree.lookup(va))
        assert (_walk(_outcome(flat.walk, va), 4)
                == _walk(_outcome(tree.walk, va), 4))
        for min_level in (1, 2):
            assert (flat.table_bases(va, min_level)
                    == _tree_table_bases(tree, va, min_level))
        for level in _LEVELS:
            base = tree.table_base(va, level)
            assert flat.table_base(va, level) == base
            # The true base, a stale one, and (missing table) any base.
            for start_base in ({base, 0xDEAD000} - {None}):
                assert (_walk(_outcome(flat.walk_from, va, level, start_base),
                              level)
                        == _walk(_outcome(tree.walk_from, va, level,
                                          start_base), level))


# A few 2 MiB regions spread over different PML4/PDPT/PD slots, so
# sequences share upper tables, collide on leaves and conflict on size.
_REGIONS = (0, 1, 2, 512, 513, 1 << 18, (1 << 18) + 1, (1 << 27) - 1)

addresses = st.builds(
    lambda region, page, offset, alias: (
        (region << addr.LARGE_PAGE_SHIFT) + (page << addr.SMALL_PAGE_SHIFT)
        + offset + (alias << addr.VA_BITS)),
    st.sampled_from(_REGIONS), st.integers(0, 3),
    st.sampled_from((0, 0x123, addr.SMALL_PAGE_SIZE - 1)),
    st.sampled_from((0, 0, 0, 1)))

frames = st.builds(
    lambda index, misaligned: (index << addr.LARGE_PAGE_SHIFT) + misaligned,
    st.integers(1, 64), st.sampled_from((0, 0, 0, addr.SMALL_PAGE_SIZE)))

operations = st.lists(
    st.one_of(
        st.tuples(st.just("map"), addresses, frames, st.booleans()),
        st.tuples(st.just("unmap"), addresses, st.just(0), st.booleans())),
    max_size=30)


class TestFlatMatchesTree:
    @settings(max_examples=150, deadline=None)
    @given(operations)
    def test_every_outcome_and_query_agrees(self, ops):
        flat, tree, op, flat_log, tree_log = _make_pair()
        probes = {va for _kind, va, _frame, _large in ops}
        _assert_agree(flat, tree, probes)
        for index, (kind, va, frame, large) in enumerate(ops):
            op[0] = index
            if kind == "map":
                args = (va, frame, large)
                outcome = (_outcome(flat.map_page, *args),
                           _outcome(tree.map_page, *args))
            else:
                outcome = (_outcome(flat.unmap_page, va, large),
                           _outcome(tree.unmap_page, va, large))
            assert outcome[0] == outcome[1]
            assert flat_log == tree_log
            _assert_agree(flat, tree, probes)
