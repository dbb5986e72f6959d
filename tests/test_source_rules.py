"""Rules of the qgfit source that a reading of its syntax tree checks.

A failure is named by one rule, `returns._naming`: a block that catches an
exception only to raise it again as `X(f"...: {exc}") from exc` writes that
rule by hand, and is a `with _naming(...)` block instead.
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
