#!/usr/bin/env python3
"""Generate ``docs/PROBLEMS.md`` from the problem registry.

The registry (:mod:`repro.problems.registry`) is the single source of
truth for every bundled problem: the typed settings table, the summary
and acceptance metadata and the bundled deck all live on the
``@problem`` registration.  This script renders that registry into the
committed problem catalogue, so the docs cannot drift from the code.

Run from anywhere::

    python tools/gen_problem_docs.py            # rewrite docs/PROBLEMS.md
    python tools/gen_problem_docs.py --check    # exit 1 if it is stale

CI runs ``--check`` (and the tier-1 suite mirrors it in
``tests/test_problem_docs.py``), so a PR that changes a registration
without regenerating the catalogue fails visibly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "docs" / "PROBLEMS.md"


def _rel(path: Path) -> Path:
    try:
        return path.relative_to(ROOT)
    except ValueError:       # e.g. a test redirecting OUTPUT to a tmpdir
        return path

HEADER = """\
# Problem catalogue

<!-- GENERATED FILE — DO NOT EDIT.
     Rendered from the problem registry by tools/gen_problem_docs.py;
     regenerate with `python tools/gen_problem_docs.py` after changing
     any @problem registration.  CI diffs this file against a fresh
     render and fails if it is stale. -->

Every bundled problem registers itself with the declarative registry
([`repro.problems.registry`](../src/repro/problems/registry.py)) via
the `@problem` decorator, pairing its `setup()` factory with a typed
settings table.  That table is the single source of truth: deck
validation, `bookleaf problems list` / `problems describe`, and this
catalogue all derive from it.

Inspect the same information from the command line:

```console
$ bookleaf problems list
$ bookleaf problems describe kidder
$ bookleaf problems describe kidder --json
```

Beyond the per-problem settings below, any
[`HydroControls`](../src/repro/core/controls.py) field (`cfl_safety`,
`cq1`, `ale_on`, ...) may be set in a deck's `[CONTROL]`/`[ALE]`
sections or passed as a keyword to `repro.problems.load_problem()`.
"""

GUIDE = """\
## Writing a new problem

A problem is one module under `src/repro/problems/` that registers a
factory with the `@problem` decorator:

```python
\"\"\"One-paragraph physics description (rendered into this catalogue).\"\"\"

from .registry import Setting, mesh_setting, problem


@problem(
    "my_problem",
    summary="one line for `problems list`",
    acceptance="how the result is checked (analytic reference, "
               "conservation, ...)",
    reference="literature citation for the setup",
    settings=[
        mesh_setting("nx", 50, "mesh cells in x"),
        mesh_setting("ny", 50, "mesh cells in y"),
        Setting("time_end", float, 0.5, "simulation end time"),
    ],
)
def setup(nx=50, ny=50, time_end=0.5, **control_overrides):
    ...
    return ProblemSetup(name="my_problem",
                        initial=Initial(mesh, rho, e, bc=bc), ...)
```

The checklist:

1. **Settings mirror the signature.** Every keyword parameter of the
   factory (other than `**control_overrides`) needs a `Setting` row
   with the *same name and default* — the registry verifies this at
   import time and raises `RegistryError` on any drift, so the table
   cannot rot the way a hand-maintained key list would.
2. **Forward `**control_overrides`.** Pass them to
   `HydroControls(...).with_(**control_overrides)` so callers and
   decks can tune any numerical control.
3. **Import the module in `registry.py`.** Registration happens on
   import; the bottom of `src/repro/problems/registry.py` imports
   every problem module once.
4. **Hand over the initial fields, not a state.** `Initial(mesh, rho,
   e, mat=, u=, v=, bc=)` holds `HydroState.from_initial`'s arguments;
   `setup.state` builds the state (volume pass, EoS call) on first
   read, and a result-cache hit never reads it before supplying the
   stored state.
5. **Ship a deck.** Add `decks/<name>.in` (the decorator associates it
   automatically); the round-trip test in
   `tests/problems/test_decks.py` then covers it.
6. **Regenerate this catalogue.** `python tools/gen_problem_docs.py`
   — CI fails on a stale render.

Unknown or mistyped deck keys fail with a structured `DeckError`
naming the offender and the valid choices; see
`tests/problems/test_registry.py` for the contract.
"""


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|")


def _settings_table(info) -> str:
    lines = [
        "| setting | type | default | section | description |",
        "|---|---|---|---|---|",
    ]
    for s in info.settings:
        doc = s.doc
        if s.choices is not None:
            doc += " (one of: " + ", ".join(
                f"`{c!r}`" for c in s.choices) + ")"
        lines.append(
            f"| `{s.name}` | {s.type_name} | `{s.default!r}` "
            f"| {s.section} | {_md_escape(doc)} |"
        )
    return "\n".join(lines)


def render() -> str:
    from repro.problems import registry

    parts = [HEADER]

    parts.append("## Problems at a glance\n")
    glance = ["| problem | summary | deck |", "|---|---|---|"]
    for name in registry.problem_names():
        info = registry.get_problem(name)
        anchor = name.replace("_", "-")
        deck = f"`{info.deck}`" if info.deck else "—"
        glance.append(f"| [`{name}`](#{anchor}) "
                      f"| {_md_escape(info.summary)} | {deck} |")
    parts.append("\n".join(glance) + "\n")

    for name in registry.problem_names():
        info = registry.get_problem(name)
        parts.append(f"## {name}\n")
        parts.append(f"*{_md_escape(info.summary)}*\n")
        if info.physics:
            parts.append(info.physics + "\n")
        parts.append("### Settings\n")
        parts.append(_settings_table(info) + "\n")
        if info.reference:
            parts.append(f"**Reference:** {_md_escape(info.reference)}\n")
        if info.acceptance:
            parts.append(f"**Acceptance:** {_md_escape(info.acceptance)}\n")
        if info.deck:
            parts.append(f"### Bundled deck — "
                         f"`src/repro/problems/decks/{info.deck}`\n")
            deck_name = info.deck[:-len(".in")]
            parts.append("```ini\n"
                         + registry.deck_text(deck_name).rstrip()
                         + "\n```\n")

    variants = [d for d in registry.bundled_decks()
                if all(registry.get_problem(n).deck != f"{d}.in"
                       for n in registry.problem_names())]
    if variants:
        parts.append("## Deck variants\n")
        parts.append("Decks that reuse a registered problem with "
                     "different options:\n")
        for d in variants:
            parts.append(f"### `{d}.in`\n")
            parts.append("```ini\n"
                         + registry.deck_text(d).rstrip()
                         + "\n```\n")

    parts.append(GUIDE)
    return "\n".join(parts)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="diff against the committed file instead "
                             "of writing; exit 1 if stale")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    text = render()

    if args.check:
        if not OUTPUT.exists():
            print(f"STALE: {OUTPUT} does not exist; run "
                  f"`python tools/gen_problem_docs.py`", file=sys.stderr)
            return 1
        if OUTPUT.read_text() != text:
            import difflib

            diff = difflib.unified_diff(
                OUTPUT.read_text().splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile="docs/PROBLEMS.md (committed)",
                tofile="docs/PROBLEMS.md (regenerated)",
            )
            sys.stderr.writelines(diff)
            print(f"\nSTALE: {_rel(OUTPUT)} is out of date; "
                  f"run `python tools/gen_problem_docs.py`",
                  file=sys.stderr)
            return 1
        print(f"{_rel(OUTPUT)} is up to date")
        return 0

    OUTPUT.write_text(text)
    print(f"wrote {_rel(OUTPUT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
