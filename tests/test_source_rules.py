"""Rules of the qgfit source that a reading of its syntax tree checks.

A failure is named by one rule, `returns._naming`: a block that catches an
exception only to raise it again as `X(f"...: {exc}") from exc` writes that
rule by hand, and is a `with _naming(...)` block instead.

No name is left unread: a module reads each name it imports, or lists it in
its `__all__`, and some module reads each module-level `_name`.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import qgfit

SOURCES = sorted(Path(qgfit.__file__).parent.glob("*.py"))


def hand_written_renames(tree: ast.AST, module: str) -> list[str]:
    """`module:function:line` of each `except ... as E` whose whole body is
    `raise X(f"...: {E}") from E`, outside a function named `_naming`."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name != "_naming":
                    visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and _renames(child):
                found.append(f"{module}:{function}:{child.lineno}")
            visit(child, function)

    visit(tree, "<module>")
    return found


def _renames(handler: ast.ExceptHandler) -> bool:
    if handler.name is None or len(handler.body) != 1:
        return False
    stmt = handler.body[0]
    if not (
        isinstance(stmt, ast.Raise)
        and isinstance(stmt.cause, ast.Name)
        and stmt.cause.id == handler.name
        and isinstance(stmt.exc, ast.Call)
        and len(stmt.exc.args) == 1
        and isinstance(stmt.exc.args[0], ast.JoinedStr)
        and len(stmt.exc.args[0].values) >= 2
    ):
        return False
    sep, last = stmt.exc.args[0].values[-2:]  # f"...: {E}" ends in a text and then E
    return (
        isinstance(sep, ast.Constant)
        and sep.value.endswith(": ")
        and isinstance(last, ast.FormattedValue)
        and isinstance(last.value, ast.Name)
        and last.value.id == handler.name
    )


def renames_in(code: str) -> list[str]:
    return hand_written_renames(ast.parse(textwrap.dedent(code)), "snippet")


def test_no_failure_is_renamed_by_hand():
    found = [
        site
        for path in SOURCES
        for site in hand_written_renames(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert found == []


@pytest.mark.parametrize(
    "code",
    [
        """
        def f(text):
            try:
                return int(text)
            except ValueError as exc:
                raise TypeError(f"expects an integer: {exc}") from exc
        """,
        """
        def f(out):
            try:
                pass
            except (MemoryError, ValueError) as err:
                raise OSError(f"cannot write under {out}: {err}") from err
        """,
    ],
    ids=["constant_prefix", "formatted_prefix"],
)
def test_rule_finds_a_hand_written_rename(code):
    assert renames_in(code) == ["snippet:f:5"]


@pytest.mark.parametrize(
    "code",
    [
        # the cause's own field, not the cause
        """
        def f(path):
            try:
                open(path)
            except OSError as exc:
                raise ValueError(f"cannot open: {exc.strerror}") from exc
        """,
        # more than the re-raise
        """
        def f(text):
            try:
                int(text)
            except ValueError as exc:
                detail = str(exc)
                raise ValueError(f"malformed row: {detail}") from exc
        """,
        # the input, not the cause
        """
        def f(text):
            try:
                int(text)
            except ValueError as exc:
                raise TypeError(f"invalid int value: {text!r}") from exc
        """,
        # the cause rebuilt, not named by a prefix
        """
        def f(path):
            try:
                open(path)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
        """,
        # the rule itself
        """
        def _naming(prefix):
            try:
                yield
            except ValueError as exc:
                raise ValueError(f"{prefix}: {exc}") from exc
        """,
    ],
    ids=["field", "longer_body", "input", "rebuilt", "rule"],
)
def test_rule_passes_other_handlers(code):
    assert renames_in(code) == []



def unread_names(trees: dict[str, ast.Module]) -> list[str]:
    """`module:name` of each name that a module imports but neither reads nor
    lists in its `__all__`, and of each module-level `_name` that no module reads."""
    reads = {module: _reads(tree) for module, tree in trees.items()}
    read_anywhere = set().union(*(names | attributes for names, attributes in reads.values()))
    found = []
    for module, tree in trees.items():
        kept = reads[module][0] | _exported(tree)
        found += [f"{module}:{name}" for name in _imported(tree) if name not in kept]
        found += [
            f"{module}:{name}"
            for name in _bound_at_module_level(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read_anywhere
        ]
    return found


def _reads(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names that `tree` loads, and the attributes it loads, as `returns._naming`."""
    loads = [node for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)]
    return (
        {node.id for node in loads if isinstance(node, ast.Name)},
        {node.attr for node in loads if isinstance(node, ast.Attribute)},
    )


def _imported(tree: ast.AST) -> list[str]:
    """The names that the imports of `tree` bind, `from __future__` aside."""
    return [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]


def _exported(tree: ast.Module) -> set[str]:
    """The strings of the module's `__all__ = [...]`, if it has one."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def _bound_at_module_level(tree: ast.Module) -> list[str]:
    """The names that the module's own statements define or assign."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [node.id for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name)]
    return names


def unread_in(**modules: str) -> list[str]:
    return unread_names({name: ast.parse(textwrap.dedent(code)) for name, code in modules.items()})


def test_no_name_is_left_unread():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert unread_names(trees) == []


@pytest.mark.parametrize(
    "code, name",
    [
        ("import itertools\n", "itertools"),
        ("from .returns import _reading\n", "_reading"),
        ("import numpy as np\n", "np"),
        ("def _undecodable_line(binary):\n    return 1\n", "_undecodable_line"),
        ("_LIMIT = 3\n", "_LIMIT"),
        # a name read only where it is assigned again is not read
        ("import re\nre = None\n", "re"),
    ],
    ids=["import", "import_from", "import_as", "private_function", "private_constant", "stored"],
)
def test_rule_finds_an_unread_name(code, name):
    assert unread_in(snippet=code) == [f"snippet:{name}"]


@pytest.mark.parametrize(
    "code",
    [
        # re-exported
        """
        from .returns import pool
        __all__ = ["pool"]
        """,
        # read in an annotation only
        """
        from __future__ import annotations
        from pathlib import Path
        def f(path: Path) -> None:
            pass
        """,
        # a dotted import binds its first name
        """
        import os.path
        def f():
            return os.path.sep
        """,
        # public and dunder names may go unread
        """
        __version__ = "0"
        def public():
            pass
        """,
        # a private name read in the module that defines it
        """
        _ENCODING = "utf-8"
        def f(path):
            return open(path, encoding=_ENCODING)
        """,
    ],
    ids=["all", "annotation", "dotted", "public", "private_read"],
)
def test_rule_passes_read_names(code):
    assert unread_in(snippet=code) == []


def test_rule_reads_a_private_name_across_modules():
    # as `estimation` imports `returns._read_csv_columns`, or `cli` reads `returns._naming`
    other = """
    from . import defining
    from .defining import _helper
    def f():
        return _helper() + defining._LIMIT
    """
    defining = "_LIMIT = 3\ndef _helper():\n    return 1\n"
    assert unread_in(defining=defining, other=other) == []
    assert unread_in(defining=defining) == ["defining:_LIMIT", "defining:_helper"]
