"""Golden counter fixtures: every counter of a simulation, committed.

Each ``<family>.json`` beside this module maps a case id to one run's
``SimulationResult`` scalar fields, its ``stats.as_nested_dict()`` and
each latency histogram's ``as_dict()``.  Keys are sorted and every
counter sits on its own line, so a change that moves a counter shows
up as a reviewable diff, not as a changed hash.

Re-recording is explicit: delete a family's file and run its tests.
Each case then writes its entry and fails with "recorded N cases;
review and commit".  A case absent from an existing file fails.
"""

import functools
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent

RESULT_FIELDS = ("scheme", "references", "instructions", "l2_tlb_misses",
                 "penalty_cycles", "translation_cycles", "data_cycles",
                 "page_walks")

#: Families recorded in this session: family -> {case id: entry}.
_recording = {}


def snapshot(result):
    """The fixture entry of one ``SimulationResult``, JSON-normalized."""
    entry = {
        "result": {name: getattr(result, name) for name in RESULT_FIELDS},
        "stats": result.stats.as_nested_dict(),
        "histograms": {name: histogram.as_dict() for name, histogram
                       in (result.histograms or {}).items()},
    }
    return json.loads(json.dumps(entry))


def _dumps(value, depth=0):
    """JSON with one dict key a line and every list on one line."""
    if not isinstance(value, dict) or not value:
        return json.dumps(value)
    pad = " " * (depth + 1)
    lines = ",\n".join(
        f"{pad}{json.dumps(key)}: {_dumps(value[key], depth + 1)}"
        for key in sorted(value))
    return "{\n" + lines + "\n" + " " * depth + "}"


@functools.lru_cache(maxsize=None)
def _load(path):
    return json.loads(path.read_text())


def _diff(recorded, live, where=""):
    """``where: recorded X, now Y`` for every leaf that differs."""
    if isinstance(recorded, dict) and isinstance(live, dict):
        for key in sorted(set(recorded) | set(live)):
            yield from _diff(recorded.get(key), live.get(key),
                             f"{where}/{key}")
    elif recorded != live:
        yield f"{where}: recorded {recorded!r}, now {live!r}"


def check(family, results):
    """Assert every ``{case id: SimulationResult}`` of ``results``
    matches its recorded entry in ``family``."""
    path = GOLDEN / f"{family}.json"
    entries = {case: snapshot(result) for case, result in results.items()}
    if family in _recording or not path.exists():
        cases = _recording.setdefault(family, {})
        cases.update(entries)
        path.write_text(_dumps(cases) + "\n")
        pytest.fail(f"{path.name}: recorded {len(cases)} cases; "
                    "review and commit")
    recorded = _load(path)
    for case, entry in entries.items():
        assert case in recorded, (
            f"{path.name} has no case {case!r}; delete the file to "
            "re-record the family")
        moved = list(_diff(recorded[case], entry))
        assert not moved, (f"{family}/{case} moved off its recorded "
                           "counters:\n" + "\n".join(moved[:40]))
