"""Lint gate: one on-disk state format.

Snapshots, fleet checkpoints, HEALTH dumps and result-cache entries are
all written and read by :mod:`repro.output.restart`'s state file
layout.  A second format comes back the moment something under
``src/repro`` calls ``np.savez``/``np.load`` or touches ``zipfile``, so
this test parses every module and fails on any such call or import.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: numpy's own file formats: ``.npy``/``.npz`` writers and reader
NUMPY_FORMATS = {"save", "savez", "savez_compressed", "load"}


def _offences(tree: ast.AST) -> list:
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_FORMATS
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, f"numpy.{alias.name}")
                      for alias in node.names
                      if alias.name in NUMPY_FORMATS]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "zipfile"]
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "zipfile":
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Name) and node.id == "zipfile":
            found.append((node.lineno, "zipfile"))
    return found


def test_no_second_state_format_under_src():
    offenders = [f"{path.relative_to(SRC)}:{line} {what}"
                 for path in sorted(SRC.rglob("*.py"))
                 for line, what in _offences(ast.parse(path.read_text()))]
    assert offenders == [], (
        "state is written and read through repro.output.restart's "
        f"state file layout only: {offenders}")


def test_the_guard_catches_each_form():
    source = "\n".join([
        "import zipfile",
        "np.savez(fh, **arrays)",
        "numpy.load(path)",
        "from numpy import savez_compressed",
        "with zipfile.ZipFile(p) as z: pass",
        "from zipfile import ZipFile",
        "np.save(fh, a)",
    ])
    assert sorted({line for line, _ in _offences(ast.parse(source))}) == \
        [1, 2, 3, 4, 5, 6, 7]
    # a docstring that names them is no call
    assert _offences(ast.parse('"""no np.savez, no zipfile"""')) == []
