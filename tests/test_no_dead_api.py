"""Every function and class in ``src/repro`` has a caller outside the tests.

The guard reads the source with ``ast`` and fails for any ``def`` or
``class`` whose name appears nowhere else in ``src/``, ``examples/`` or
``perf/``.  The batch engine does not count as a caller, and neither
do the imports and ``__all__`` of a package's ``__init__.py``: a
re-export keeps nothing alive.  A function only
its own unit tests call is code no measured number depends on: delete
it with its tests, or name it in :data:`ALLOWED` with the reason it
stays.

The guard matches names, not call targets, so it cannot see a
test-only method that shares its name with a live one (a test-only
``render`` on any class passes beside the live ``Report.render``), nor
one whose name is also a word of some comment or docstring (only tests
call ``LogHistogram.merge``, but "merge" occurs in prose).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Files whose calls keep nothing alive: the batch engine is slated for
#: deletion, and its helpers with it.
NOT_CALLERS = ("core/batch.py",)

#: Functions kept although nothing outside the tests calls them.
ALLOWED = {
    "batch_view": "SramTlb storage accessor the batch engine replays on",
    "l4": "the batch engine reads the L4 data cache through it",
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


def _is_reexport(node: ast.stmt) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__"
                for target in node.targets))


def _caller_text(path: Path) -> str:
    """``path``'s source, less a package ``__init__``'s re-exports."""
    text = path.read_text()
    if path.name != "__init__.py":
        return text
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if _is_reexport(node):
            lines[node.lineno - 1:node.end_lineno] = [""] * (
                node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _defs():
    """``(path, name)`` for every non-dunder function and class under
    ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        if not _is_caller(path):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
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
                                _caller_text(path)))
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
        assert not dead, ("functions and classes nothing outside the "
                          "tests calls (delete them, or allowlist them "
                          f"with a reason): {dead}")

    def test_allowlist_names_only_uncalled_functions(self):
        uncalled = {name for _, name in _uncalled()}
        stale = sorted(set(ALLOWED) - uncalled)
        assert not stale, ("allowlisted but now called, or deleted "
                           f"(drop them from ALLOWED): {stale}")
