"""Reachability: every top-level def in ``src/repro`` is reached by code that runs.

A function or class that only its own tests call is code nothing here runs.
This test walks the source from its entry points and fails naming every
top-level def it cannot reach.

The roots are ``repro.cli.main``; every module-level statement of
``src/repro`` except docstrings and ``__all__``; defs registered by a
decorator that ``src/repro`` defines (``@register_scenario(...)``); and all
code in ``examples/``, ``benchmarks/`` and ``perfbench/``. Tests are not
roots.

Names are matched by spelling, which errs towards calling code live:

- A live def makes live every name it mentions: names, attribute names, and
  the identifiers inside its string literals (``getattr(module, "run")``).
- In a package ``__init__`` only names count, not strings, so an entry in a
  lazy-export table does not keep its name alive.
- An import is not a use. An imported name is live only where live code
  uses it, through the alias it was imported under.

Marking repeats until nothing new becomes live.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ROOT_DIRS = ("examples", "benchmarks", "perfbench")

#: Defs kept although only tests reach them, with the reason each stays.
ALLOWED = {
    "dynamics.driver:track_scenario": "the serial tracker that test_dynamics.py and the "
    "property suite compare track_scenario_batch against",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Mentions(ast.NodeVisitor):
    """The names a piece of code mentions; import statements mention nothing."""

    def __init__(self, strings: bool) -> None:
        self.strings = strings
        self.names: set[str] = set()

    def visit_Import(self, node: ast.AST) -> None:
        pass

    visit_ImportFrom = visit_Import

    def visit_Name(self, node: ast.Name) -> None:
        self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if self.strings and isinstance(node.value, str):
            self.names.update(_IDENTIFIER.findall(node.value))


@dataclass
class _Def:
    path: Path
    name: str
    mentions: set[str]


@dataclass
class _Source:
    """One file: its top-level defs and the names its roots mention."""

    defs: list[_Def] = field(default_factory=list)
    roots: set[str] = field(default_factory=set)
    live: list[_Def] = field(default_factory=list)
    decorated: list[tuple[_Def, str]] = field(default_factory=list)


def _aliases(tree: ast.Module) -> dict[str, str]:
    """``{alias: imported name}`` for every ``from ... import name as alias``."""
    return {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }


def _mentions(nodes: list[ast.AST], aliases: dict[str, str], strings: bool) -> set[str]:
    visitor = _Mentions(strings)
    for node in nodes:
        visitor.visit(node)
    return visitor.names | {aliases[name] for name in visitor.names if name in aliases}


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _is_all(node: ast.stmt) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _read_source(path: Path) -> _Source:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = _aliases(tree)
    strings = path.name != "__init__.py"
    source = _Source()
    statements = []
    for node in tree.body:
        if isinstance(node, _DEFS):
            definition = _Def(path, node.name, _mentions([node], aliases, strings=True))
            source.defs.append(definition)
            for decorator in node.decorator_list:
                name = _decorator_name(decorator)
                if name is not None:
                    source.decorated.append((definition, aliases.get(name, name)))
            if path == SRC / "cli.py" and node.name == "main":
                source.live.append(definition)
        elif not (_is_docstring(node) or _is_all(node)):
            statements.append(node)
    source.roots = _mentions(statements, aliases, strings)
    return source


def unreachable_defs() -> list[str]:
    """``module:name`` of every top-level def in ``src/repro`` that no root reaches."""
    sources = [_read_source(path) for path in sorted(SRC.rglob("*.py"))]
    live_names: set[str] = set()
    for directory in ROOT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            live_names |= _mentions([tree], _aliases(tree), strings=True)

    defs = [definition for source in sources for definition in source.defs]
    src_def_names = {definition.name for definition in defs}
    live: set[int] = set()
    for source in sources:
        live_names |= source.roots
        roots = source.live + [
            definition for definition, decorator in source.decorated if decorator in src_def_names
        ]
        for definition in roots:
            live.add(id(definition))
            live_names |= definition.mentions

    changed = True
    while changed:
        changed = False
        for definition in defs:
            if id(definition) not in live and definition.name in live_names:
                live.add(id(definition))
                live_names |= definition.mentions
                changed = True

    return sorted(
        f"{definition.path.relative_to(SRC).with_suffix('').as_posix().replace('/', '.')}:{definition.name}"
        for definition in defs
        if id(definition) not in live
    )


@pytest.fixture(scope="module")
def unreached() -> list[str]:
    return unreachable_defs()


def test_every_top_level_def_is_reached_by_code_that_runs(unreached) -> None:
    dead = [name for name in unreached if name not in ALLOWED]
    assert not dead, f"{len(dead)} top-level defs are reached only by tests (or nothing): {dead}"


def test_allowed_exceptions_are_still_unreached(unreached) -> None:
    # An exception that code now reaches, or that is gone, no longer needs its entry.
    assert set(ALLOWED) <= set(unreached)
