"""Lint gate: one body per kernel.

The hydro, EoS and ALE kernels are written once against the workspace
API; a missing arena is resolved to the allocating stand-in by
``repro.perf.workspace.scratch`` — never by a second code path.  That
rots silently the first time someone writes ``if ws is None:`` inside a
kernel, so this test parses the kernel packages and fails on any
comparison of a ``ws``/``plans``/``workspace`` name (or attribute)
against ``None``.  It walks the AST, so docstrings and comments may say
what they like.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: packages whose kernels must not fork on the arena or the plans
PACKAGES = ("core", "eos", "ale")
FORK_NAMES = ("ws", "plans", "workspace")


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _fork_name(node: ast.AST):
    if isinstance(node, ast.Name) and node.id in FORK_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in FORK_NAMES:
        return node.attr
    return None


def _violations(tree: ast.AST):
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        if any(_is_none(o) for o in operands):
            found += [(node.lineno, name) for name in
                      map(_fork_name, operands) if name]
    return found


@pytest.mark.parametrize("package", PACKAGES)
def test_kernels_do_not_fork_on_the_arena(package):
    found = []
    for path in sorted((SRC / package).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{ln} ({name})"
                  for ln, name in _violations(tree)]
    assert not found, (
        f"repro.{package} kernels must keep one body; compared against "
        "None at " + ", ".join(found))


def test_the_checker_itself_catches_forks():
    tree = ast.parse(
        "if ws is None:\n    pass\n"
        "x = 1 if self.workspace is not None else 2\n"
        "y = None if plans == None else 3\n")
    assert len(_violations(tree)) == 3
