"""Lint gate: one protocol body, and it lives in ``typhon.py``.

The backends decide where the ranks run and hand
:class:`~repro.parallel.typhon.TyphonComms` a transport; they never
reimplement a piece of the protocol.  That rots the first time someone
gives a backend its own ``post_kinematics`` or packs a staging
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

And one level down for the *seam*: an exchange has one form, post then
complete, and each kernel writes its comm point once.  The third part
fails on any of the deleted blocking or schedule-asking names coming
back anywhere under ``repro``, on a kernel under ``repro/core`` or
``repro/ale`` that posts or completes inside a branch on ``comms``
(a second body for some endpoints), and on a second function of
``typhon.py`` reading the endpoint's schedule.
"""

import ast
from pathlib import Path

from repro.parallel.interface import SEAM_METHODS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
PARALLEL = SRC / "parallel"
BACKENDS = PARALLEL / "backends"

#: what only the rank builder/assembler may construct
RANK_CALLS = ("Hydro", "TimerRegistry", "Heartbeat",
              "StepLogger", "local_state", "BackendRun")

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
        "    def post_kinematics(self, state):\n"
        "        sec.pack(region, arrays)\n"
        "        blocks = sec.peer_blocks(peer, region, widths)\n"
        "        self.stats.account(4)\n"
        "    def wait(self, rank, ready, what):\n"
        "        pass\n"
        "stats = CommStats()\n")
    assert [what for _, what in _violations(tree)] == [
        "ShadowComms.post_kinematics", "pack()", "peer_blocks()",
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


# ----------------------------------------------------------------------
# one comm seam
# ----------------------------------------------------------------------
#: the blocking twins and the schedule query the kernels used to fork on
RETIRED_SEAM_NAMES = ("overlap_enabled", "exchange_kinematics",
                      "assemble_node_sums", "complete_node_arrays",
                      "exchange_cell_arrays", "exchange_cell_fields")


def _retired_names(tree: ast.AST):
    """Uses and definitions of a retired seam name, in source order."""
    found = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.FunctionDef)
                else None)
        if name in RETIRED_SEAM_NAMES:
            found.append((node.lineno, node.col_offset, name))
    return [(ln, name) for ln, _, name in sorted(found)]


def _mentions_comms(test: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "comms"
               for n in ast.walk(test))


def _forked_halves(tree: ast.AST):
    """``post_*(``/``complete_*(`` calls inside either arm of an ``if``
    (statement or expression) whose test mentions ``comms``."""
    found = set()
    for node in ast.walk(tree):
        if not (isinstance(node, (ast.If, ast.IfExp))
                and _mentions_comms(node.test)):
            continue
        arms = (node.body + node.orelse if isinstance(node, ast.If)
                else [node.body, node.orelse])
        for arm in arms:
            for call in ast.walk(arm):
                name = (_called_name(call.func)
                        if isinstance(call, ast.Call) else None)
                if name and name.startswith(("post_", "complete_")):
                    found.add((call.lineno, name))
    return sorted(found)


def _schedule_readers(tree: ast.AST):
    """Functions that read ``<something>.mode``."""
    return sorted(
        fn.name for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, ast.Attribute) and n.attr == "mode"
                and isinstance(n.ctx, ast.Load) for n in ast.walk(fn)))


def test_the_seam_has_one_form_of_each_exchange():
    found = [f"{path.relative_to(SRC)}:{ln} ({name})"
             for path, tree in _trees(SRC)
             for ln, name in _retired_names(tree)]
    assert not found, (
        "an exchange is post_* then complete_*, on every endpoint and "
        "under every schedule; found " + ", ".join(found))


def test_kernels_write_each_comm_point_once():
    found = [f"{path.relative_to(SRC)}:{ln} ({name}())"
             for root in (SRC / "core", SRC / "ale")
             for path, tree in _trees(root)
             for ln, name in _forked_halves(tree)]
    assert not found, (
        "a kernel posts and completes unconditionally — the serial "
        "endpoint's halves are no-ops; found " + ", ".join(found))


def test_only_the_endpoint_knows_its_schedule():
    tree = ast.parse((PARALLEL / "typhon.py").read_text())
    assert _schedule_readers(tree) == ["_post"]


def test_the_seam_guard_catches_a_pasted_fork():
    tree = ast.parse(
        "def lagstep(state, comms):\n"
        "    if comms.overlap_enabled():\n"
        "        comms.post_kinematics(state)\n"
        "    else:\n"
        "        comms.exchange_kinematics(state)\n"
        "    halo = comms.complete_kinematics(state) if comms.size > 1 "
        "else None\n"
        "    comms.post_node_sums(state)\n"
        "class ShadowComms:\n"
        "    def complete_node_arrays(self, state, *arrays):\n"
        "        return arrays\n"
        "    def _post(self, what):\n"
        "        return self.mode == 'overlap'\n"
        "    def eager(self):\n"
        "        return self.mode != 'overlap'\n"
        "    def __init__(self, mode):\n"
        "        self.mode = mode\n")
    assert [name for _, name in _retired_names(tree)] == [
        "overlap_enabled", "exchange_kinematics", "complete_node_arrays"]
    assert [name for _, name in _forked_halves(tree)] == [
        "post_kinematics", "complete_kinematics"]
    assert _schedule_readers(tree) == ["_post", "eager"]
