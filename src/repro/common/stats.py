"""Lightweight statistics counters shared by every simulated component.

Components own a :class:`StatGroup`; the system simulator stitches the
groups of all components into a :class:`StatRegistry` so experiments can
render a single flat report.

Two access styles share one storage:

* the **string API** (``inc``/``get``/``as_dict``/...) — the cold-path
  and reporting view, unchanged since the seed; and
* **bound counter slots** (:meth:`StatGroup.counter`) — the hot-path
  view.  A component resolves ``group.counter("hits")`` once at
  construction and the per-event increment is then two attribute stores
  on a :class:`Counter`, with no string hashing or dict lookup.  The
  very hottest sites inline the two stores
  (``slot.value += n; slot.touched = True``) instead of calling
  :meth:`Counter.add`.

Both views observe the same values at all times; the differential
engine-equivalence test relies on that.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple


class Counter:
    """One named counter cell, handed out by :meth:`StatGroup.counter`.

    ``value`` is the count; ``touched`` records whether the counter has
    been written since creation or the last group reset.  Untouched
    counters are invisible to every reporting view, which preserves the
    seed-era semantics where a counter key did not exist until first
    incremented (and was forgotten by ``reset``).
    """

    __slots__ = ("name", "value", "touched")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self.touched = False

    def add(self, amount: float = 1) -> None:
        """Add ``amount`` (the bound-slot equivalent of ``inc``)."""
        self.value += amount
        self.touched = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class StatGroup:
    """A named bag of numeric counters.

    >>> g = StatGroup("l1_tlb")
    >>> g.inc("hits")
    >>> g.inc("hits", 2)
    >>> g["hits"]
    3
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._slots: Dict[str, Counter] = {}

    # -- hot-path view -------------------------------------------------------

    def counter(self, key: str) -> Counter:
        """Resolve-once handle for ``key``: a bound :class:`Counter`.

        The handle stays valid across :meth:`reset` (the cell is zeroed,
        not replaced), so components resolve their counters exactly once
        at construction time.
        """
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = Counter(key)
        return slot

    # -- string view ---------------------------------------------------------

    def inc(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``key`` (creating it at zero)."""
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = Counter(key)
        slot.value += amount
        slot.touched = True

    def set(self, key: str, value: float) -> None:
        """Overwrite counter ``key``."""
        slot = self.counter(key)
        slot.value = value
        slot.touched = True

    def get(self, key: str, default: float = 0) -> float:
        """Read counter ``key`` or ``default`` when never touched."""
        slot = self._slots.get(key)
        return slot.value if slot is not None and slot.touched else default

    def __getitem__(self, key: str) -> float:
        slot = self._slots.get(key)
        return slot.value if slot is not None and slot.touched else 0

    def __contains__(self, key: str) -> bool:
        slot = self._slots.get(key)
        return slot is not None and slot.touched

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` with 0/0 defined as 0.0."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def reset(self) -> None:
        """Zero every counter (the keys are forgotten, not kept at 0).

        Bound slots stay valid: the cells are zeroed in place and marked
        untouched, so they vanish from reports until written again.
        """
        for slot in self._slots.values():
            slot.value = 0
            slot.touched = False

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all counters, sorted by key for stable output."""
        return {key: slot.value for key, slot in sorted(self._slots.items())
                if slot.touched}

    def merge(self, other: "StatGroup") -> None:
        """Accumulate every counter of ``other`` into this group."""
        for key, slot in other._slots.items():
            if slot.touched:
                self.inc(key, slot.value)

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self.as_dict().items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatGroup({self.name!r}, {self.as_dict()})"


class StatRegistry:
    """A registry mapping component names to their :class:`StatGroup`.

    The registry is the single source experiments consume; it guarantees
    unique group names so reports never silently alias two components.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, StatGroup] = {}

    def group(self, name: str) -> StatGroup:
        """Return the group called ``name``, creating it if needed."""
        if name not in self._groups:
            self._groups[name] = StatGroup(name)
        return self._groups[name]

    def __getitem__(self, name: str) -> StatGroup:
        return self._groups[name]

    def __contains__(self, name: str) -> bool:
        return name in self._groups

    def groups(self) -> Mapping[str, StatGroup]:
        """Read-only view of all registered groups."""
        return dict(self._groups)

    def reset(self) -> None:
        """Zero the counters of every registered group."""
        for group in self._groups.values():
            group.reset()

    def as_nested_dict(self) -> Dict[str, Dict[str, float]]:
        """``{group: {counter: value}}`` snapshot, sorted at both levels."""
        return {name: g.as_dict() for name, g in sorted(self._groups.items())}

    @classmethod
    def from_nested_dict(cls, data: Mapping[str, Mapping[str, float]]
                         ) -> "StatRegistry":
        """Inverse of :meth:`as_nested_dict` (checkpoint restore)."""
        registry = cls()
        for name, counters in data.items():
            group = registry.group(name)
            for key, value in counters.items():
                group.set(key, value)
        return registry

    def render(self) -> str:
        """Plain-text report of every counter, one line each."""
        lines = []
        for name, group in sorted(self._groups.items()):
            for key, value in group:
                if isinstance(value, float) and not value.is_integer():
                    lines.append(f"{name}.{key} = {value:.6g}")
                else:
                    lines.append(f"{name}.{key} = {int(value)}")
        return "\n".join(lines)
