"""Lint gate: one body per kernel.

The hydro, EoS and ALE kernels are written once against the workspace
API; a missing arena is resolved to the allocating stand-in by
``repro.perf.workspace.scratch`` — never by a second code path.  That
rots silently the first time someone writes ``if ws is None:`` inside a
kernel, so this test parses the kernel packages and fails on any
comparison of a ``ws``/``plans``/``workspace`` name (or attribute)
against ``None``.  It walks the AST, so docstrings and comments may say
what they like.

The same walk keeps ``repro.core`` — and the remap's cell half,
``ale/advect_cell.py``, ``fluxvol.py`` and ``limiters.py`` —
corner-major: inside the Lagrangian step a corner array is (4, ncell),
so the (ncell, 4) idioms — rolled
corner columns (``roll_next``/``roll_prev``), per-cell operands spread
over four columns (``spread_corners``), ``axis=1`` reductions over the
length-4 corner axis and ``einsum("ck,...")`` contractions — each mean a
kernel slipped back to the old layout and its strided passes.

And it keeps the Lagrangian step single: each step kernel is defined
once under ``src/repro``, and ``repro.ensemble`` — whose lanes are a
disjoint-union mesh stepped by ``repro.core`` — computes nothing
itself: no arithmetic numpy call a kernel would need, no array-module
parameter, no function named like a step kernel.

And it keeps each corner quantity of a step single: under ``core/`` the
only corner gathers are the step bundle's (``core/corners.py``, the
one gather of xⁿ/yⁿ and of uⁿ/vⁿ every kernel of the step reads),
``geometry.gather`` itself, ``getgeom``'s (the half-step and end-of-step
positions) and the corrector's gather of ū for ``getein`` — no kernel
gathers the step's positions or velocities again — and no kernel forks
on a missing bundle (``corners=None`` builds one, the way ``comms=None``
builds ``SerialComms()``).

And it keeps the step loop single: ``core/hydro.py`` is the one place
that applies the first-step rule (``dt_initial``), the remap cadence
(``ale_every``), picks a dt (``getdt``/``pick_dt``) and samples the
probe after a step (``on_step``) — an ensemble lane is a ``Hydro``, so
nothing else has a reason to, and the stand-ins a second loop needed
(``_LaneView``, ``resume`` records) stay deleted.
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


#: names of the deleted (ncell, 4) helpers
OLD_LAYOUT_NAMES = ("roll_next", "roll_prev", "spread_corners")


def _called_name(node: ast.AST):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _old_layout_idioms(tree: ast.AST):
    found = []
    for node in ast.walk(tree):
        if _called_name(node) in OLD_LAYOUT_NAMES:
            found.append((node.lineno, _called_name(node)))
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if (kw.arg == "axis" and isinstance(kw.value, ast.Constant)
                    and kw.value.value == 1):
                found.append((node.lineno, "axis=1"))
        if (_called_name(node.func) == "einsum" and node.args
                and isinstance(node.args[0], ast.Constant)
                and str(node.args[0].value).startswith("ck,")):
            found.append((node.lineno, f'einsum("{node.args[0].value}")'))
    return sorted(found)


#: the remap modules converted to the corner-major layout; the other
#: ``repro.ale`` modules are held back on purpose until their rewrites:
#: ``advect_node.py`` (the dual mass fluxes, ALE item (ii)),
#: ``getmesh.py`` (the relaxation's neighbour average, ALE item (i)) and
#: ``update.py``, the (ncell, 4) state commit both of those feed.
CORNER_MAJOR_ALE = ("advect_cell.py", "fluxvol.py", "limiters.py")


def test_core_kernels_stay_corner_major():
    paths = (sorted((SRC / "core").glob("*.py"))
             + [SRC / "ale" / name for name in CORNER_MAJOR_ALE])
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.parent.name}/{path.name}:{ln} ({what})"
                  for ln, what in _old_layout_idioms(tree)]
    assert not found, (
        "repro.core and the converted remap modules are corner-major, "
        "(4, ncell); (ncell, 4) idioms at " + ", ".join(found))


def test_the_checker_itself_catches_old_layout_idioms():
    tree = ast.parse(
        "from ..perf.plans import roll_next\n"
        "spread_corners(p, sp)\n"
        "plans.roll_prev(a, out=b)\n"
        "g = np.mean(cx, axis=1, out=g)\n"
        "w = np.einsum('ck,ck->c', fx, cu)\n"
        "ok = np.einsum('ci,cij->cj', a, b) + x.sum(axis=0)\n")
    assert [what for _, what in _old_layout_idioms(tree)] == [
        "roll_next", "spread_corners", "roll_prev", "axis=1",
        'einsum("ck,ck->c")']


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


#: the kernels of Algorithm 1 — one ``def`` each in the whole package
STEP_KERNELS = ("lagstep", "getq", "bulk_q", "getforce", "getacc",
                "getein", "getrho", "getgeom")
#: numpy calls no lane driver needs and every kernel copy would
KERNEL_CALLS = ("einsum", "hypot", "sqrt", "bincount")


def _function_defs(tree: ast.AST):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_each_step_kernel_is_defined_once():
    where = {name: [] for name in STEP_KERNELS}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _function_defs(tree):
            if node.name in where:
                where[node.name].append(
                    f"{path.relative_to(SRC)}:{node.lineno}")
    assert all(len(found) == 1 for found in where.values()), where


def _kernel_code(tree: ast.AST):
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and _called_name(node.func) in KERNEL_CALLS):
            found.append((node.lineno, _called_name(node.func)))
    for node in _function_defs(tree):
        if node.name in STEP_KERNELS:
            found.append((node.lineno, f"def {node.name}"))
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg == "xp":
                found.append((node.lineno, "xp argument"))
    return sorted(found)


def test_ensemble_holds_no_kernel_code():
    found = []
    for path in sorted((SRC / "ensemble").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{ln} ({what})"
                  for ln, what in _kernel_code(tree)]
    assert not found, (
        "repro.ensemble steps its lanes through repro.core; kernel "
        "code at " + ", ".join(found))


def test_the_checker_itself_catches_kernel_code():
    tree = ast.parse(
        "def getq(xp, geom):\n"
        "    return xp.sqrt(geom) + np.hypot(a, b)\n"
        "def scatter(f, *, xp=None):\n"
        "    return np.bincount(nodes, weights=f)\n"
        "def getpc(self, mat, rho, e, out):\n"
        "    for table in self.tables:\n"
        "        table.getpc(mat, rho, e, out=out)\n"
        "w = np.einsum('ci,cij->cj', a, b)\n")
    assert [what for _, what in _kernel_code(tree)] == [
        "def getq", "xp argument", "hypot", "sqrt", "xp argument",
        "bincount", "einsum"]


#: what only the step loop reads, and what only it calls
LOOP_READS = ("dt_initial", "ale_every")
LOOP_CALLS = ("pick_dt", "getdt", "on_step")
#: where those names are defined rather than used
LOOP_DEFINITIONS = ("core/controls.py", "core/timestep.py")


def _step_loop_code(tree: ast.AST):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LOOP_READS:
            found.append((node.lineno, f".{node.attr}"))
        elif (isinstance(node, ast.Call)
                and _called_name(node.func) in LOOP_CALLS):
            found.append((node.lineno, f"{_called_name(node.func)}()"))
        elif isinstance(node, ast.ClassDef) and node.name == "_LaneView":
            found.append((node.lineno, "class _LaneView"))
    for node in _function_defs(tree):
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg == "resume":
                found.append((node.lineno, "resume parameter"))
    return sorted(found)


def test_there_is_one_step_loop():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        if (where == "core/hydro.py" or where in LOOP_DEFINITIONS
                or where.startswith("problems/")):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{where}:{ln} ({what})"
                  for ln, what in _step_loop_code(tree)]
    assert not found, (
        "core/hydro.py is the only step loop; a second one's parts at "
        + ", ".join(found))


def test_the_checker_itself_catches_a_second_step_loop():
    tree = ast.parse(
        "class _LaneView:\n"
        "    pass\n"
        "def advance(self, lanes, resume=None):\n"
        "    dt = min(controls.dt_initial, remaining)\n"
        "    dt, why, cell = pick_dt(dt_candidates(a, b, c), c, dt, t)\n"
        "    if (nstep + 1) % lane.controls.ale_every == 0:\n"
        "        remapper.apply(state, dt)\n"
        "    lane.probe.on_step(view)\n"
        "    lane.choose_dt(dt_candidates(a, b, lane.controls))\n")
    assert [what for _, what in _step_loop_code(tree)] == [
        "class _LaneView", "resume parameter", ".dt_initial", "pick_dt()",
        ".ale_every", "on_step()"]


#: every corner gather under ``core/``: (file, enclosing function, the
#: gathered arguments) — the step bundle's one gather (xⁿ/yⁿ and uⁿ/vⁿ
#: alike), ``geometry.gather``'s definition, ``getgeom``'s gather of
#: x_h and xⁿ⁺¹, and the corrector's gather of ū for ``getein``
GATHER_SITES = sorted([
    ("corners.py", "_get", "self.mesh, *self._nodal[source]"),
    ("geometry.py", "gather", "x"),
    ("geometry.py", "gather", "y"),
    ("geometry.py", "getgeom", "mesh, x, y"),
    ("lagstep.py", "lagstep", "mesh, u_bar, v_bar"),
])


def _gathers(tree: ast.AST, filename: str):
    """``(file, function, arguments)`` of every ``gather`` call, plus
    every use of ``corner_nodes`` (a gather written by hand)."""
    found = []
    for func in _function_defs(tree):
        todo = list(ast.iter_child_nodes(func))
        while todo:                      # this def's body, not nested defs'
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            todo.extend(ast.iter_child_nodes(node))
            if (isinstance(node, ast.Call)
                    and _called_name(node.func) == "gather"):
                args = ", ".join(ast.unparse(a) for a in node.args)
                found.append((filename, func.name, args))
            elif (isinstance(node, ast.Attribute)
                    and node.attr == "corner_nodes"):
                found.append((filename, func.name, "corner_nodes"))
    return sorted(found)


def _bundle_forks(tree: ast.AST):
    """``if`` statements testing a ``corners`` bundle against None."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        for test in ast.walk(node.test):
            if isinstance(test, ast.Compare):
                operands = [test.left] + list(test.comparators)
                if (any(_is_none(o) for o in operands)
                        and any(isinstance(o, ast.Name)
                                and o.id == "corners" for o in operands)):
                    found.append(node.lineno)
    return found


def test_the_step_gathers_its_corners_once():
    found, forks = [], []
    for path in sorted((SRC / "core").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += _gathers(tree, path.name)
        forks += [f"{path.name}:{ln}" for ln in _bundle_forks(tree)]
    assert found == GATHER_SITES, (
        "repro.core gathers xⁿ/uⁿ once per step, in core/corners.py; "
        f"corner gathers found: {found}")
    assert not forks, ("a missing bundle is built, not branched on: "
                       + ", ".join(forks))


def test_the_checker_itself_catches_a_second_gather():
    tree = ast.parse(
        "def getq(mesh, cx, cy, u, v, corners=None):\n"
        "    cu = plans.gather(u, out=a)\n"
        "    cv = v.take(mesh.plans.corner_nodes)\n"
        "    if corners is None:\n"
        "        pass\n"
        "    c = corners if corners is not None else make()\n")
    assert _gathers(tree, "viscosity.py") == [
        ("viscosity.py", "getq", "corner_nodes"),
        ("viscosity.py", "getq", "u")]
    assert _bundle_forks(tree) == [4]
