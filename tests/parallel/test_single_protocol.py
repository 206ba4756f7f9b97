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

The same holds one level up for the *rank program*: a rank is built,
reported, assembled and judged in ``repro/parallel/distributed.py``
only, and a backend says nothing but where it runs.  So the second
half fails on a backend that constructs any part of a rank or a
``BackendRun`` itself, on a second ``Hydro(``/``BackendRun(`` anywhere
under ``repro/parallel``, on a second copy of the desynchronisation
check, and on a dedicated watchdog thread coming back under
``repro/metrics`` (the launchers' wait loops poll the heartbeat board).
"""

import ast
from pathlib import Path

from repro.parallel.interface import SEAM_METHODS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PARALLEL = SRC / "parallel"
BACKENDS = PARALLEL / "backends"

#: what only the rank builder/assembler may construct
RANK_CALLS = ("Hydro", "Tracer", "TimerRegistry", "StepSeries",
              "Heartbeat", "StepLogger", "local_state", "BackendRun")

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


# ----------------------------------------------------------------------
# one rank program
# ----------------------------------------------------------------------
def _trees(root: Path):
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(root.rglob("*.py"))]


def _calls(tree: ast.AST, names):
    return sorted((node.lineno, _called_name(node.func))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _called_name(node.func) in names)


def _thread_subclasses(tree: ast.AST):
    return [name for _, name in sorted(
        (node.lineno, node.name) for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and (node.name == "Watchdog"
             or any(_called_name(base) == "Thread" for base in node.bases)))]


def test_backends_build_no_part_of_a_rank():
    found = [f"{path.name}:{ln} ({name}())"
             for path, tree in _trees(BACKENDS)
             for ln, name in _calls(tree, RANK_CALLS)]
    assert not found, (
        "a rank is built and reported by DistributedHydro.build_rank/"
        "report/assemble only; found " + ", ".join(found))


def test_one_rank_builder_one_assembly_one_desync_check():
    trees = _trees(PARALLEL)
    for name in ("Hydro", "BackendRun"):
        sites = [f"{path.relative_to(PARALLEL)}:{ln}"
                 for path, tree in trees for ln, _ in _calls(tree, (name,))]
        assert len(sites) == 1, f"{name}( constructed at {sites}"
        assert sites[0].startswith("distributed.py:")
    desync = [path for path in sorted(SRC.rglob("*.py"))
              for _ in range(path.read_text().count("ranks desynchronised"))]
    assert [p.name for p in desync] == ["distributed.py"]


def test_no_dedicated_watchdog_loop_under_metrics():
    found = [f"{path.name}: class {name}"
             for path, tree in _trees(SRC / "metrics")
             for name in _thread_subclasses(tree)]
    assert not found, (
        "stall detection is the launchers' wait loops asking "
        "HeartbeatBoard.stalled(); found " + ", ".join(found))


def test_the_rank_guard_catches_a_pasted_rank():
    tree = ast.parse(
        "from threading import Thread\n"
        "import threading\n"
        "class ShadowBackend:\n"
        "    def prepare(self, driver):\n"
        "        state = local_state(sub, driver.setup.state)\n"
        "        driver.hydros.append(Hydro(state, table, controls))\n"
        "    def execute(self, driver, max_steps=None):\n"
        "        return interface.BackendRun(backend='shadow')\n"
        "class Monitor(threading.Thread):\n"
        "    pass\n"
        "class Watchdog:\n"
        "    pass\n"
        "class Poller(Thread):\n"
        "    pass\n")
    assert [name for _, name in _calls(tree, RANK_CALLS)] == [
        "local_state", "Hydro", "BackendRun"]
    assert _thread_subclasses(tree) == ["Monitor", "Watchdog", "Poller"]
