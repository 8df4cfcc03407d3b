"""Trace-event schema: one typed event per translation step.

Every event is a flat JSON-serialisable dict.  The tracer adds the
bookkeeping fields (``seq`` — monotone event number, ``ts`` — virtual
cycle timestamp, and the translation context captured at
:meth:`~repro.obs.tracer.EventTracer.begin`: ``core``, ``vm``, ``asid``,
``vaddr``, ``scheme``); the emitting component supplies ``type``,
``cycles`` and the type-specific fields listed in :data:`EVENT_FIELDS`.

The schema is documented for external consumers in EXPERIMENTS.md; the
:func:`validate_event` helper is what the CI smoke test and the replay
machinery use to reject malformed traces early.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

# -- event types ------------------------------------------------------------

#: One record per simulation run sharing a sink (benchmark, scheme, sample).
RUN_META = "run_meta"
#: Out-of-band marker (e.g. ``stats_reset`` at the warmup boundary).
MARKER = "marker"
#: Per-translation summary: total cycles, L2-TLB-miss flag, penalty.
TRANSLATION = "translation"
#: One SRAM TLB probe (level ``l1``/``l2``/``shared_l2``) and its outcome.
TLB_PROBE = "tlb_probe"
#: Size/bypass predictor decision at the head of the POM-TLB flow.
PREDICTOR = "predictor"
#: Predictor training outcome (kind ``size`` or ``bypass``).
PREDICTOR_TRAIN = "predictor_train"
#: One POM-TLB set/line fetch and where it was served from
#: (``l2``/``l3``/``dram``/``dram_bypass``/``dram_uncached``).
POM_FETCH = "pom_fetch"
#: One POM-TLB content probe (per size attempt) and whether it hit.
POM_PROBE = "pom_probe"
#: TSB half lookup (``guest`` or ``host``) and its outcome.
TSB_PROBE = "tsb_probe"
#: One stacked-DRAM burst with bank/row coordinates and row-buffer outcome
#: (``hit``/``miss``/``conflict``).
DRAM_ACCESS = "dram_access"
#: One completed page walk (native or 2-D nested): cycles + memory refs.
WALK = "walk"
#: One PTE reference inside a walk (dim ``native``/``guest``/``host``).
WALK_STEP = "walk_step"
#: A consistency-audit invariant was violated (:mod:`repro.verify`).
VERIFY_VIOLATION = "verify_violation"

#: Required type-specific fields per event type (beyond the bookkeeping
#: fields the tracer adds to every event).
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    RUN_META: (),
    MARKER: ("name",),
    TRANSLATION: ("core", "cycles", "l2_miss", "penalty"),
    TLB_PROBE: ("core", "level", "hit"),
    PREDICTOR: ("core", "predicted_large", "bypass"),
    PREDICTOR_TRAIN: ("kind", "correct"),
    POM_FETCH: ("core", "source", "cycles"),
    POM_PROBE: ("core", "attempt", "large", "hit"),
    TSB_PROBE: ("core", "half", "hit"),
    DRAM_ACCESS: ("bank", "row", "outcome", "cycles"),
    WALK: ("core", "cycles", "refs"),
    WALK_STEP: ("dim", "level", "cycles"),
    VERIFY_VIOLATION: ("invariant", "detail"),
}


def validate_event(event: Mapping) -> None:
    """Raise ``ValueError`` when ``event`` does not match the schema."""
    etype = event.get("type")
    if etype not in EVENT_FIELDS:
        raise ValueError(f"unknown trace event type {etype!r}")
    missing = [f for f in EVENT_FIELDS[etype] if f not in event]
    if missing:
        raise ValueError(f"{etype} event missing fields {missing}: {event}")
