"""Lint gate: one field table, one atomic writer.

``HydroState.FIELDS`` (``core/state.py``) is the only place the state's
arrays are listed; copies, snapshots, cache entries, rank payloads, halo
restriction, gather, ensemble lanes and the health sentinels enumerate
the state through it.  A second hand-copied list rots the first time a
field is added, so this test parses every module under ``src/repro``
and fails on a tuple or list literal that names both ``"corner_mass"``
and ``"cs2"`` anywhere but there.

Likewise tmp-file + ``os.replace`` is written once
(``output/restart.py``'s ``atomic_write``): ``tempfile.mkstemp`` may
appear in one module of ``fleet``, ``output`` and ``metrics``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
TABLE_HOME = SRC / "core" / "state.py"


def _strings(node: ast.AST) -> set:
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _field_lists(tree: ast.AST) -> list:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Tuple, ast.List))
            and {"corner_mass", "cs2"} <= _strings(node)]


def test_the_field_table_is_written_once():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == TABLE_HOME:
            continue
        lines = _field_lists(ast.parse(path.read_text()))
        offenders += [f"{path.relative_to(SRC)}:{n}" for n in lines]
    assert offenders == [], (
        "hand-copied HydroState field list(s); enumerate "
        f"HydroState.FIELDS instead: {offenders}")
    # the guard sees the table it protects
    table = ast.parse(TABLE_HOME.read_text())
    assert any({"corner_mass", "cs2"} <= _strings(node)
               for node in ast.walk(table) if isinstance(node, ast.Dict))


def test_the_guard_catches_a_copied_list():
    assert _field_lists(ast.parse(
        'F = ("x", "cs2", "corner_mass")\nG = ["cs2"]')) == [1]
    assert _field_lists(ast.parse(
        'F = (("cs2", "cell"), ("corner_mass", "corner"))')) == [1]


def test_the_atomic_writer_is_written_once():
    users = []
    for package in ("fleet", "output", "metrics"):
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text())
            if any(isinstance(n, ast.Attribute) and n.attr == "mkstemp"
                   or isinstance(n, ast.alias) and n.name == "mkstemp"
                   for n in ast.walk(tree)):
                users.append(str(path.relative_to(SRC)))
    assert users == ["output/restart.py"]
