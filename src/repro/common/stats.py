"""Lightweight statistics counters shared by every simulated component.

Components own a :class:`StatGroup`; the system simulator stitches the
groups of all components into a :class:`StatRegistry` so experiments can
render a single flat report.

A counter is its value: ``as_dict`` and ``in`` report a counter iff
its value is non-zero, and ``reset`` zeroes every value, so a counter
drops out of reports until written again.  The string API (``inc``,
``set``, ``[]``) and the bound slots of :meth:`StatGroup.counter` share
one storage.  A hot-path site resolves ``group.counter("hits")`` once
at construction and then bumps ``slot.value`` with no string hashing
or dict lookup.
"""

from __future__ import annotations

from typing import Dict, Mapping


class Counter:
    """One named counter cell, handed out by :meth:`StatGroup.counter`.

    ``value`` is the count; the counter is reported iff it is non-zero.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

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

    def inc(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``key``."""
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = Counter(key)
        slot.value += amount

    def set(self, key: str, value: float) -> None:
        """Overwrite counter ``key``."""
        self.counter(key).value = value

    def __getitem__(self, key: str) -> float:
        slot = self._slots.get(key)
        return slot.value if slot is not None else 0

    def __contains__(self, key: str) -> bool:
        slot = self._slots.get(key)
        return slot is not None and slot.value != 0

    def reset(self) -> None:
        """Zero every counter; bound slots stay valid."""
        for slot in self._slots.values():
            slot.value = 0

    def as_dict(self) -> Dict[str, float]:
        """The non-zero counters, sorted by key for stable output."""
        return {key: slot.value for key, slot in sorted(self._slots.items())
                if slot.value}

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
