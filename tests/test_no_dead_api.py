"""Every function in ``src/repro`` has a caller outside the tests.

The guard reads the source with ``ast`` and fails for any ``def`` whose
name appears nowhere else in ``src/`` (the batch engine, ``refcheck.py``
and the frozen reference in ``core/_refimpl/`` do not count as callers),
``examples/`` or ``perf/``.  A function only its own unit tests call is
code no measured number depends on: delete it with its tests, or name
it in :data:`ALLOWED` with the reason it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Files whose calls keep nothing alive: the batch engine and the frozen
#: reference are slated for deletion, and their helpers with them.
NOT_CALLERS = ("core/batch.py", "core/refcheck.py", "core/_refimpl/")

#: Functions kept although nothing outside the tests calls them.
ALLOWED = {
    "batch_view": "SramTlb storage accessor the batch engine replays on",
    "l4": "the batch engine reads the L4 data cache through it",
    "root_base": "the frozen reference page table and the page-table "
                 "differential tests compare roots through it",
    "table_base": "the frozen reference walkers descend through it",
    "mapped_pages": "the frozen reference and the page-table property "
                    "tests enumerate mappings through it",
    "radix_index": "the frozen reference page table indexes with it",
    "precharge_all": "the frozen reference channel closes rows with it",
    "remove": "replacement-policy hook; the frozen reference cache "
              "evicts through LruPolicy.remove",
    "load_jsonl": "obs.replay trace loader; CI's trace smoke step and "
                  "the replay tests read JSONL traces with it",
    "load_chrome": "obs.replay trace loader for Chrome trace files",
    "copy_with": "test_mmu.py's machine builder derives configs with it",
    "partition_of": "test_pom_props.py checks the live POM-TLB address "
                    "partition with it",
}


def _is_caller(path: Path) -> bool:
    relative = path.relative_to(SRC).as_posix()
    return not relative.startswith(NOT_CALLERS)


def _defs():
    """``(path, name)`` for every non-dunder function under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        if not _is_caller(path):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                yield path, node.name


def _word_counts() -> Counter:
    """Identifier occurrences across every file that counts as a caller."""
    files = [path for path in SRC.rglob("*.py") if _is_caller(path)]
    for directory in ("examples", "perf"):
        files.extend((ROOT / directory).rglob("*.py"))
    words = Counter()
    for path in files:
        words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                path.read_text()))
    return words


def _uncalled():
    defs = list(_defs())
    words = _word_counts()
    defined = Counter(name for _, name in defs)
    # A name is used when it occurs more often than it is defined.
    return sorted({(path.relative_to(ROOT).as_posix(), name)
                   for path, name in defs if words[name] <= defined[name]})


class TestNoDeadApi:
    def test_every_function_has_a_caller(self):
        dead = [f"{path}: {name}" for path, name in _uncalled()
                if name not in ALLOWED]
        assert not dead, ("functions nothing outside the tests calls "
                          "(delete them, or allowlist them with a "
                          f"reason): {dead}")

    def test_allowlist_names_only_uncalled_functions(self):
        uncalled = {name for _, name in _uncalled()}
        stale = sorted(set(ALLOWED) - uncalled)
        assert not stale, ("allowlisted but now called, or deleted "
                           f"(drop them from ALLOWED): {stale}")
