"""Deterministic fault injection for the resilient campaign engine.

The resilience machinery (:mod:`repro.resilience`) is only trustworthy
if its failure paths are exercised on purpose.  A :class:`FaultPlan`
describes *which* runs fail and *how*; the campaign executor, the
checkpoint store and the simulator consult it behind a null-object
default (:data:`NO_FAULTS`) — the same pattern :mod:`repro.obs` uses —
so production runs pay one attribute check and tests drive every
failure mode deterministically.

Fault-spec grammar (the hidden ``pomtlb campaign --inject-faults``)::

    SPEC      := directive ("," directive)*
    directive := kind ["@" benchmark ["/" scheme]] ["#" count] [":" "n=" N]

* ``kind`` — one of :data:`KINDS`:

  - ``crash``          worker process dies without a result (exit 134)
  - ``hang``           worker stops making progress until the timeout kills it
  - ``raise``          :class:`~repro.common.errors.FaultInjected` at the
                       ``n``-th translation (default 1) — a transient error
  - ``corrupt-trace``  one trace record is corrupted before validation — a
                       permanent :class:`~repro.common.errors.TraceFormatError`
  - ``ckpt-io``        the next checkpoint write raises ``OSError``
  - ``interrupt``      ``KeyboardInterrupt`` before the run launches
                       (a deterministic Ctrl-C for tests)

* ``benchmark`` / ``scheme`` — exact names or ``*`` (default both ``*``)
* ``count`` — how many times the directive fires: an integer (default 1)
  or ``*`` for every match.  A count of 1 on ``crash`` makes the failure
  transient: the retry succeeds.

Examples: ``crash@gups/pom``, ``hang@mcf/*#2``, ``raise@*/pom:n=100``,
``ckpt-io#1``, ``interrupt@lbm/tsb``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .common.errors import ConfigError, FaultInjected

#: Recognised directive kinds, split by where they are consulted.
RUN_KINDS = ("crash", "hang", "raise", "corrupt-trace", "interrupt")
KINDS = RUN_KINDS + ("ckpt-io",)

#: Directive count meaning "fire on every match".
UNLIMITED = -1


@dataclass
class FaultRule:
    """One parsed directive of a fault spec."""

    kind: str
    benchmark: str = "*"
    scheme: str = "*"
    remaining: int = 1
    n: int = 1  # for ``raise``: which translation trips

    def matches(self, benchmark: str, scheme: str) -> bool:
        return (self.remaining != 0
                and self.benchmark in ("*", benchmark)
                and self.scheme in ("*", scheme))

    def consume(self) -> None:
        if self.remaining > 0:
            self.remaining -= 1


def _parse_directive(text: str) -> FaultRule:
    directive = text.strip()
    original = directive
    n = 1
    if ":" in directive:
        directive, _, param = directive.partition(":")
        key, _, value = param.partition("=")
        if key != "n":
            raise ConfigError(f"fault directive {original!r}: unknown "
                              f"parameter {key!r} (only n=N is supported)")
        try:
            n = int(value)
        except ValueError:
            raise ConfigError(f"fault directive {original!r}: bad n={value!r}"
                              ) from None
    remaining = 1
    if "#" in directive:
        directive, _, count = directive.partition("#")
        if count == "*":
            remaining = UNLIMITED
        else:
            try:
                remaining = int(count)
            except ValueError:
                raise ConfigError(f"fault directive {original!r}: bad count "
                                  f"{count!r}") from None
            if remaining < 1:
                raise ConfigError(f"fault directive {original!r}: count must "
                                  f"be >= 1 or '*'")
    benchmark = scheme = "*"
    if "@" in directive:
        directive, _, target = directive.partition("@")
        benchmark, _, scheme = target.partition("/")
        benchmark = benchmark or "*"
        scheme = scheme or "*"
    kind = directive
    if kind not in KINDS:
        raise ConfigError(f"fault directive {original!r}: unknown kind "
                          f"{kind!r} (expected one of {', '.join(KINDS)})")
    if n < 1:
        raise ConfigError(f"fault directive {original!r}: n must be >= 1")
    return FaultRule(kind=kind, benchmark=benchmark, scheme=scheme,
                     remaining=remaining, n=n)


class FaultPlan:
    """An ordered set of fault rules consumed as the campaign executes.

    The plan lives in the campaign parent process; matched run-level
    directives are handed to workers as plain ``(kind, n)`` tuples so
    counts are bookkept in exactly one place.
    """

    enabled = True

    def __init__(self, rules: Optional[List[FaultRule]] = None) -> None:
        self.rules = list(rules or [])

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--inject-faults`` spec string (see module docstring)."""
        rules = [_parse_directive(part)
                 for part in spec.split(",") if part.strip()]
        if not rules:
            raise ConfigError(f"fault spec {spec!r} contains no directives")
        return cls(rules)

    def take_run_fault(self, benchmark: str, scheme: str
                       ) -> Optional[Tuple[str, int]]:
        """Consume and return the next run-level fault for this attempt.

        At most one directive fires per run attempt; rules are consulted
        in spec order.  Returns ``(kind, n)`` or ``None``.
        """
        for rule in self.rules:
            if rule.kind in RUN_KINDS and rule.matches(benchmark, scheme):
                rule.consume()
                return rule.kind, rule.n
        return None

    def take_checkpoint_fault(self) -> bool:
        """Consume one ``ckpt-io`` directive; True when a write must fail."""
        for rule in self.rules:
            if rule.kind == "ckpt-io" and rule.remaining != 0:
                rule.consume()
                return True
        return False


class NullFaultPlan(FaultPlan):
    """The no-faults default: every query answers 'no' at minimal cost."""

    enabled = False

    def __init__(self) -> None:
        super().__init__([])

    def take_run_fault(self, benchmark: str, scheme: str) -> None:
        return None

    def take_checkpoint_fault(self) -> bool:
        return False


#: Shared null object; everything that accepts a plan defaults to it.
NO_FAULTS = NullFaultPlan()


# -- in-simulation fault hooks -------------------------------------------------

class NullTranslationFaulter:
    """Machine-side null hook: ``active`` False keeps the hot path clean."""

    active = False

    def on_translation(self) -> None:  # pragma: no cover - never called
        pass


#: Default for :class:`~repro.core.system.Machine`'s ``faults`` knob.
NO_TRANSLATION_FAULTS = NullTranslationFaulter()


class RaiseAtTranslation:
    """Raise :class:`FaultInjected` when the ``n``-th translation starts."""

    active = True

    def __init__(self, n: int = 1) -> None:
        self.n = n
        self.seen = 0

    def on_translation(self) -> None:
        self.seen += 1
        if self.seen >= self.n:
            raise FaultInjected(
                f"injected failure at translation {self.seen}")


def corrupt_streams(streams) -> None:
    """Corrupt one record of the first stream with >= 2 records, in place.

    Record ``(n-1)//2`` gets the last icount plus one, so the record
    after it goes backwards — the kind of damage a torn or bit-flipped
    trace file produces, and what strict validation must reject.  The
    stream's ``validated`` flag is cleared.
    """
    for stream in streams:
        icounts = stream.icounts
        if len(icounts) >= 2:
            icounts[(len(icounts) - 1) // 2] = icounts[-1] + 1
            stream.validated = False
            return
