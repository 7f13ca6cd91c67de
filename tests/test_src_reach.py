"""``src/`` ships only what production runs: every top-level name is reached.

A top-level ``def`` or ``class`` in ``src/`` is *reached* when some
consumer names it.  A consumer is

* module code in ``src/`` outside the package ``__init__`` re-exports
  (their ``import`` statements), outside every ``__all__`` and outside the
  name's own body,
* anything in ``examples/``, ``benchmarks/`` or ``perfbench/``.

Names and attribute names count, and so do string constants other than
docstrings, split on non-identifier characters: that covers a
``getattr(module, "name")`` lookup and the dotted trace targets perfbench
patches.  A definition registered
by a decorator whose name starts with ``register`` (``engine.register``,
``register_rule``) is reached by the registry that holds it.

Reach is iterated to a fixpoint: the body of an unreached definition
reaches nothing, so code that only unreached code calls is flagged too.
Tests are not consumers; a helper that only tests use belongs beside those
tests.  The one excuse is a reasoned ``# repro: allow[REACH] reason``
pragma on the ``def``/``class`` line, read with
:func:`repro.analysis.core.parse_pragmas`.

Methods stay out of scope: a bare attribute name such as ``.run`` cannot
be tied to one class, so an unused method would hide behind every other
method of that name.  Matching is by bare name for the same reason, which
errs toward "reached" and never flags a name that is in use.

This is a test and not an analyzer rule because the analyzer looks at one
module at a time (DESIGN §12), while reach needs the whole of ``src/``
plus consumers that lie outside the tree it scans.
"""

import ast
import re
from pathlib import Path
from typing import List, NamedTuple, Set

from repro.analysis.core import parse_pragmas

ROOT = Path(__file__).resolve().parents[1]
CONSUMERS = ("examples", "benchmarks", "perfbench")
RULE = "REACH"

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Definition(NamedTuple):
    path: str  # repo-relative posix path
    line: int
    name: str
    body_names: Set[str]


def _docstrings(node: ast.AST) -> Set[int]:
    """``id()`` of every docstring constant under ``node``."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(sub.body[0].value)
        for sub in ast.walk(node)
        if isinstance(sub, owners)
        and sub.body
        and isinstance(sub.body[0], ast.Expr)
        and isinstance(sub.body[0].value, ast.Constant)
    }


def _names(node: ast.AST, docs: Set[int]) -> Set[str]:
    """Every identifier ``node`` can refer to: names, attributes, strings.

    The docstrings in ``docs`` are prose, not references, and are skipped.
    """
    found: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in docs:
            found.update(_WORD.findall(sub.value))
    return found


def _is_registered(node: ast.stmt) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name.startswith("register"):
            return True
    return False


def _is_reexport(node: ast.stmt, is_init: bool) -> bool:
    if is_init and isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    targets = node.targets if isinstance(node, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def scan(root: Path = ROOT) -> List[Definition]:
    """Return the unreached, unexcused top-level definitions under ``root``."""
    live: Set[str] = set()
    for consumer in CONSUMERS:
        for path in sorted((root / consumer).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            live |= _names(tree, _docstrings(tree))

    candidates: List[Definition] = []
    for path in sorted((root / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        docs = _docstrings(tree)
        pragmas = parse_pragmas(source.splitlines())
        rel = path.relative_to(root).as_posix()
        is_init = path.name == "__init__.py"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                body = _names(node, docs)
                pragma = pragmas.get(node.lineno)
                if _is_registered(node) or (pragma and pragma.covers(RULE)):
                    live |= body
                else:
                    candidates.append(Definition(rel, node.lineno, node.name, body))
            elif not _is_reexport(node, is_init):
                live |= _names(node, docs)

    pending = candidates
    while True:
        reached = [d for d in pending if d.name in live]
        if not reached:
            return sorted(pending)
        pending = [d for d in pending if d.name not in live]
        for definition in reached:
            live |= definition.body_names


def test_every_src_definition_is_reached():
    unreached = [f"{d.path}:{d.line} {d.name}" for d in scan()]
    assert not unreached, (
        "top-level definitions in src/ that no production code, example, "
        "benchmark or perfbench file reaches; delete them, move test helpers "
        "beside their tests, or add a reasoned `# repro: allow[REACH] ...`:\n"
        + "\n".join(unreached)
    )


def test_reach_is_a_fixpoint(tmp_path):
    """Code reached only from unreached code is flagged; a pragma excuses."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (pkg / "__init__.py").write_text(
        "from pkg.mod import used, orphan\n__all__ = ['used', 'orphan']\n"
    )
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return helper()\n\n\n"
        "def helper():\n    return 2\n\n\n"
        "def excused():  # repro: allow[REACH] kept for a reason\n    return 3\n\n\n"
        "def named():\n    return 4\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
    )
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg import used\nused()\ngetattr(object(), 'named', None)\n"
    )
    assert [d.name for d in scan(tmp_path)] == ["orphan", "helper", "recursive"]
