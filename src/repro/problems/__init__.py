"""BookLeaf's bundled test problems (paper Section III-B and beyond).

The paper's four — Sod's shock tube, the Noh implosion, the Sedov
blast wave and Saltzmann's piston — plus the extension scenarios
(LeBlanc, water–air, JWL expansion, the three-material triple point
and the Kidder isentropic shell).  Each problem module registers
itself with the declarative registry (:mod:`repro.problems.registry`)
via the ``@problem`` decorator, which carries a typed settings table:
deck validation, ``repro problems list/describe`` and
``docs/PROBLEMS.md`` all derive from that one source of truth.
"""

from .base import Initial, ProblemSetup
from .registry import (
    ProblemInfo,
    RegistryError,
    Setting,
    bundled_decks,
    deck_path,
    deck_text,
    describe_problem,
    get_problem,
    load_problem,
    problem,
    problem_names,
    setup_from_deck,
)

__all__ = [
    "Initial",
    "ProblemSetup",
    "ProblemInfo",
    "RegistryError",
    "Setting",
    "problem",
    "get_problem",
    "describe_problem",
    "load_problem",
    "problem_names",
    "setup_from_deck",
    "bundled_decks",
    "deck_path",
    "deck_text",
]
