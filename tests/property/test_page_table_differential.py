"""Differential property test: flat page table vs the frozen reference tree.

Random map / remap / unmap sequences (small and large pages, aligned
and misaligned frames, addresses above the 48-bit VA space) are applied
to :class:`repro.paging.page_table.RadixPageTable` and to the node-tree
:class:`repro.core._refimpl.page_table.RadixPageTable`.  After every
operation both must agree on its outcome (return value or exception
type and message), on every lookup and table query over a set of probe
addresses, and on the order in which table frames were allocated and
are reported by ``table_frames()`` — the order a VM teardown frees
them in, which LIFO reuse turns into the next VM's addresses.

Walks of the flat table run through the native walker, which reads the
table through its per-level descents: every PTE address sequence it
reads — from the root, and from a PSC-supplied base at each level that
is the true one, a stale one or one whose table is missing — must be
the one the tree's walk reads, and its PSC refill must cache the
tree's table bases.
"""

from hypothesis import given, settings, strategies as st

from repro.common import addr
from repro.common.errors import AddressError
from repro.core._refimpl.page_table import RadixPageTable as TreeTable
from repro.paging.page_table import RadixPageTable as FlatTable
from tests.paging.helpers import cached, walk_ptes

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


def _tree_walk(result):
    """Normalize a tree walk to (PTE addresses, levels, leaf)."""
    status, value = result
    if status != "ok":
        return result
    steps, leaf = value
    return (tuple(s.pte_paddr for s in steps),
            tuple(s.level for s in steps), _leaf(leaf))


def _assert_walks_agree(flat, tree, va, level, base):
    """A native walk of ``flat`` from ``base`` at ``level`` (4: the root)
    reads what the tree's walk reads; a base the tree calls stale is
    re-walked from the root."""
    if level == 4:
        expected = _tree_walk(_outcome(tree.walk, va))
    else:
        expected = _tree_walk(_outcome(tree.walk_from, va, level, base))
    stale = expected[0] == AddressError.__name__
    if stale:
        expected = _tree_walk(_outcome(tree.walk, va))
    status, value = _outcome(walk_ptes, flat, va, level, base)
    if status != "ok":
        assert (status, value) == expected
        return
    ptes, result, walker = value
    start = 4 if stale else level
    assert (ptes, tuple(start - i for i in range(len(ptes))),
            (result.host_frame, result.large)) == expected
    assert walker.stats["psc_stale"] == stale
    for refilled in range(2 if result.large else 1, 4):
        assert (cached(walker.psc, va, refilled)
                == tree.table_base(va, refilled))


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
        _assert_walks_agree(flat, tree, va, 4, None)
        for level in _LEVELS:
            base = tree.table_base(va, level)
            assert flat.table_base(va, level) == base
            if level == 4:
                continue  # no PSC holds the root
            # The true base, a stale one, and (missing table) any base.
            for start_base in ({base, 0xDEAD000} - {None}):
                _assert_walks_agree(flat, tree, va, level, start_base)


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
