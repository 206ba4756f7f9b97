"""Lint gate: one protocol body, and it lives in ``typhon.py``.

The backends decide where the ranks run and hand
:class:`~repro.parallel.typhon.TyphonComms` a transport; they never
reimplement a piece of the protocol.  That rots the first time someone
gives a backend its own ``exchange_kinematics`` or packs a staging
block there, so this test parses ``repro/parallel/backends`` and fails
on any class that defines a seam method, and on any call that belongs
to the protocol: packing or reading a CommPlan block, creating or
charging a ``CommStats``.  It walks the AST, so docstrings and
comments may say what they like.
"""

import ast
from pathlib import Path

from repro.parallel.interface import SEAM_METHODS

BACKENDS = (Path(__file__).resolve().parents[2]
            / "src" / "repro" / "parallel" / "backends")

#: calls only the protocol makes: ``x.pack(``, ``x.peer_blocks(``,
#: ``CommStats(`` and ``stats.account(``
PROTOCOL_CALLS = ("pack", "peer_blocks", "CommStats", "account")


def _called_name(func: ast.AST):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _violations(tree: ast.AST):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{node.name}.{item.name}")
                      for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and item.name in SEAM_METHODS]
        if (isinstance(node, ast.Call)
                and _called_name(node.func) in PROTOCOL_CALLS):
            found.append((node.lineno, f"{_called_name(node.func)}()"))
    return sorted(found)


def test_backends_hold_no_protocol_logic():
    found = []
    for path in sorted(BACKENDS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{ln} ({what})"
                  for ln, what in _violations(tree)]
    assert not found, (
        "protocol logic belongs in repro/parallel/typhon.py only; found "
        + ", ".join(found))


def test_the_checker_itself_catches_a_second_protocol():
    tree = ast.parse(
        "class ShadowComms:\n"
        "    def exchange_kinematics(self, state):\n"
        "        sec.pack(region, arrays)\n"
        "        blocks = sec.peer_blocks(peer, region, widths)\n"
        "        self.stats.account(4)\n"
        "    def wait(self, rank, ready, what):\n"
        "        pass\n"
        "stats = CommStats()\n")
    assert [what for _, what in _violations(tree)] == [
        "ShadowComms.exchange_kinematics", "pack()", "peer_blocks()",
        "account()", "CommStats()"]
