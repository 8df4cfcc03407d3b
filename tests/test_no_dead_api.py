"""Every function and class in ``src/repro`` has a caller outside the tests.

The guard reads the source with ``ast`` and fails for any ``def`` or
``class`` whose name the code of ``src/``, ``examples/`` and ``perf/``
never uses.  A use is an identifier in the syntax tree: a name, an
attribute, an imported name, a keyword argument, or a string constant
spelling an identifier outside docstrings (``ledger.wrap(cls,
"resolve_packed", ...)`` uses ``resolve_packed``).  Comments and
docstrings are prose, not uses.  The batch engine does not count as a
caller, and neither do the imports and ``__all__`` of a package's
``__init__.py``: a re-export keeps nothing alive.  A function only its
own unit tests call is code no measured number depends on: delete it
with its tests, or name it in :data:`ALLOWED` with the reason it stays.

The guard matches names, not call targets, so it cannot see a
test-only method that shares its name with a live one (a test-only
``render`` on any class passes beside the live ``Report.render``).
"""

import ast
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
    "ListSink": "the in-memory sink the tracer, replay and identity "
                "tests use in place of a file sink",
    "replay_counters": "obs.replay oracle; CI's trace smoke step and the "
                       "replay tests check traced runs against it",
    "interleave": "the heap merge that specifies the replay order; the "
                  "merge-order tests check merge_order against it",
    "sizes": "the PSC tests read per-level occupancy through it",
    "unmap": "the shootdown tests remove a guest mapping with it before "
             "shooting the page down",
}


def _is_caller(path: Path) -> bool:
    relative = path.relative_to(SRC).as_posix()
    return not relative.startswith(NOT_CALLERS)


def _is_reexport(node: ast.stmt) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__"
                for target in node.targets))


def _docstrings(tree: ast.Module) -> set:
    """``id`` of every docstring node (module, class and function)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _identifiers(path: Path):
    """Every identifier ``path``'s code uses, less an ``__init__``'s
    re-exports: names, attributes, imported names, keyword arguments and
    identifier-valued string constants outside docstrings."""
    tree = ast.parse(path.read_text())
    if path.name == "__init__.py":
        tree.body = [node for node in tree.body if not _is_reexport(node)]
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            yield node.value


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


def _uses() -> set:
    """Identifiers used across every file that counts as a caller."""
    files = [path for path in SRC.rglob("*.py") if _is_caller(path)]
    for directory in ("examples", "perf"):
        files.extend((ROOT / directory).rglob("*.py"))
    uses = set()
    for path in files:
        uses.update(_identifiers(path))
    return uses


def _uncalled():
    uses = _uses()
    return sorted({(path.relative_to(ROOT).as_posix(), name)
                   for path, name in _defs() if name not in uses})


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
