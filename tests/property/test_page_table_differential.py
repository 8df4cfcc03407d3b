"""Differential property test: the radix page table vs a model of its rules.

Random map / remap / unmap sequences (small and large pages, aligned
and misaligned frames, addresses above the 48-bit VA space) are applied
to :class:`repro.paging.page_table.RadixPageTable` and to
:class:`_Model`: a dict of ``(vpn, large) -> frame`` mappings plus the
log of table frames allocated, each keyed by the level and VA prefix it
covers.  After every operation both must agree on its outcome (return
value or exception type), on every lookup over a set of probe
addresses, on the operation that allocated each table frame, and on the
order ``table_frames()`` reports them in — the order a VM teardown
frees them in, which LIFO reuse turns into the next VM's addresses.

Walks run through the native walker: every PTE address it reads — from
the root, and from a PSC-supplied base at each level that is the true
one, a stale one or one whose table is missing — must be the model's
``table base + 8 * index`` per level, and its PSC refill must cache the
model's table bases.
"""

from hypothesis import given, settings, strategies as st

from repro.common import addr
from repro.common.errors import AddressError, TranslationFault
from repro.paging.page_table import RadixPageTable
from tests.paging.helpers import cached, walk_ptes

_LEVELS = (4, 3, 2, 1)
_FRAME0 = 0x4000_0000
_VA_MASK = (1 << 48) - 1
_STALE_BASE = 0xDEAD000


def _prefix(va, level):
    """VA prefix covered by the level-``level`` table holding ``va``."""
    return va >> (12 + 9 * level)


def _index(va, level):
    """Entry index of ``va`` in its level-``level`` table."""
    return (va >> (12 + 9 * (level - 1))) & 511


class _Model:
    """What a 4-level radix table must do, written as plain dicts."""

    def __init__(self):
        self.pages = {}    # (vpn, large) -> frame
        self.tables = {}   # (level, prefix) -> table frame
        self.created = []  # (level, prefix), in allocation order
        self.log = []      # operation index of every allocation
        self.op = -1
        self._need(0, (4,))

    def _need(self, va, levels):
        for level in levels:
            key = (level, _prefix(va, level))
            if key not in self.tables:
                self.tables[key] = _FRAME0 + len(self.created) * 4096
                self.created.append(key)
                self.log.append(self.op)

    def map_page(self, vaddr, frame, large):
        if frame % (addr.LARGE_PAGE_SIZE if large else addr.SMALL_PAGE_SIZE):
            raise AddressError("misaligned frame")
        va = vaddr & _VA_MASK
        if large:
            if (1, _prefix(va, 1)) in self.tables:
                raise AddressError("covered by small pages")
            self._need(va, (3, 2))
            self.pages[(va >> 21, True)] = frame
        else:
            if (va >> 21, True) in self.pages:
                raise AddressError("covered by a large page")
            self._need(va, (3, 2, 1))
            self.pages[(va >> 12, False)] = frame

    def unmap_page(self, vaddr, large):
        va = vaddr & _VA_MASK
        vpn = va >> (21 if large else 12)
        return self.pages.pop((vpn, large), None) is not None

    def lookup(self, vaddr):
        va = vaddr & _VA_MASK
        for vpn, large in ((va >> 21, True), (va >> 12, False)):
            if (vpn, large) in self.pages:
                return self.pages[(vpn, large)], large
        return None

    def walk(self, vaddr, level, base):
        """(PTE addresses, (frame, large), stale) of a walk from ``base``
        at ``level`` (4: the root)."""
        va = vaddr & _VA_MASK
        start, stale = level, False
        if level != 4:
            true_base = self.tables.get((level, _prefix(va, level)))
            if true_base is None:
                raise TranslationFault(vaddr)
            if true_base != base:
                start, stale = 4, True
        leaf = self.lookup(vaddr)
        if leaf is None:
            raise TranslationFault(vaddr)
        last = 2 if leaf[1] else 1
        ptes = tuple(self.tables[(lvl, _prefix(va, lvl))] + 8 * _index(va, lvl)
                     for lvl in range(start, last - 1, -1))
        return ptes, leaf, stale

    def table_frames(self):
        """Depth-first, each table before its children, newest child
        first."""
        frames = []

        def visit(level, prefix):
            frames.append(self.tables[(level, prefix)])
            for child_level, child in reversed(self.created):
                if child_level == level - 1 and child >> 9 == prefix:
                    visit(child_level, child)

        visit(4, 0)
        return frames


def _make_pair():
    model = _Model()
    log = []
    counter = iter(range(1 << 20))

    def alloc():
        log.append(model.op)
        return _FRAME0 + next(counter) * addr.SMALL_PAGE_SIZE

    return RadixPageTable(alloc, name="t"), model, log


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (AddressError, TranslationFault) as exc:
        return (type(exc).__name__,)


def _leaf(leaf):
    return None if leaf is None else (leaf.frame, leaf.large)


def _assert_walks_agree(table, model, va, level, base):
    expected = _outcome(model.walk, va, level, base)
    outcome = _outcome(walk_ptes, table, va, level, base)
    if outcome[0] != "ok":
        assert outcome == expected
        return
    ptes, result, walker = outcome[1]
    assert expected == ("ok", (ptes, (result.host_frame, result.large),
                               bool(walker.stats["psc_stale"])))
    for refilled in range(2 if result.large else 1, 4):
        assert (cached(walker.psc, va, refilled)
                == model.tables[(refilled, _prefix(va & _VA_MASK, refilled))])


def _assert_agree(table, model, log, probes):
    assert log == model.log
    assert table.table_count() == len(model.tables)
    assert table.table_frames() == model.table_frames()
    for va in probes:
        assert _leaf(table.lookup(va)) == model.lookup(va)
        _assert_walks_agree(table, model, va, 4, None)
        for level in _LEVELS[1:]:  # no PSC holds the root
            base = model.tables.get((level, _prefix(va & _VA_MASK, level)))
            # The true base, a stale one, and (missing table) any base.
            for start_base in ({base, _STALE_BASE} - {None}):
                _assert_walks_agree(table, model, va, level, start_base)


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


class TestTableMatchesModel:
    @settings(max_examples=150, deadline=None)
    @given(operations)
    def test_every_outcome_and_query_agrees(self, ops):
        table, model, log = _make_pair()
        probes = {va for _kind, va, _frame, _large in ops}
        _assert_agree(table, model, log, probes)
        for index, (kind, va, frame, large) in enumerate(ops):
            model.op = index
            if kind == "map":
                outcome = (_outcome(table.map_page, va, frame, large),
                           _outcome(model.map_page, va, frame, large))
            else:
                outcome = (_outcome(table.unmap_page, va, large),
                           _outcome(model.unmap_page, va, large))
            assert outcome[0] == outcome[1]
            _assert_agree(table, model, log, probes)
