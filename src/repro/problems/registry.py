"""Declarative problem registry: typed settings, decks, generated docs.

Every bundled problem registers itself with the :func:`problem`
decorator, pairing its ``setup()`` factory with a **typed settings
table** — one :class:`Setting` row per keyword argument.  The table is
the single source of truth for

* deck validation (``setup_from_deck`` rejects unknown or mistyped
  ``[MESH]``/``[PROBLEM]`` keys with a structured :class:`DeckError`
  naming the offender and the valid choices),
* programmatic validation (``load_problem`` applies the same checks to
  keyword overrides),
* the ``bookleaf problems list`` / ``problems describe`` CLI, and
* the generated catalogue ``docs/PROBLEMS.md``
  (``tools/gen_problem_docs.py``; CI regenerates and diffs it).

Registration is checked against the factory's actual signature at
import time, so the table *cannot* drift from the code: a missing or
mistyped row raises :class:`RegistryError` the moment the module is
imported (this replaces the old hand-maintained ``_EXTRA_KEYS`` dict,
which drifted silently).

``load_problem("noh", nx=100)`` builds any registered problem by name;
``setup_from_deck(deck)`` builds one from a BookLeaf-style input deck
(the files in ``repro/problems/decks``), letting the CLI run
``bookleaf run sod.in`` just as the Fortran mini-app runs its control
files.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.controls import HydroControls, controls_from_deck
from ..utils.deck import Deck, read_deck
from ..utils.errors import BookLeafError, DeckError
from .base import ProblemSetup


class RegistryError(BookLeafError):
    """A problem registration is inconsistent with its factory."""


# ----------------------------------------------------------------------
# typed settings
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Setting:
    """One typed, documented problem parameter (a deck key).

    ``type`` is the expected Python type (``int``, ``float``, ``bool``
    or ``str``; ``float`` settings accept ints).  ``section`` names the
    deck section the key conventionally lives in (``MESH`` for the
    resolution keys, ``PROBLEM`` otherwise) — validation accepts the
    key in either section, the docs generator uses it for the deck
    examples.  ``choices`` optionally restricts the value to an
    enumerated set.
    """

    name: str
    type: type
    default: Any
    doc: str = ""
    choices: Optional[Tuple[Any, ...]] = None
    section: str = "PROBLEM"

    @property
    def type_name(self) -> str:
        return self.type.__name__

    def accepts(self, value: Any) -> bool:
        """Type check only (choices are reported separately)."""
        if self.type is float:
            return isinstance(value, (int, float)) \
                and not isinstance(value, bool)
        if self.type is int:
            return isinstance(value, int) and not isinstance(value, bool)
        if self.type is bool:
            return isinstance(value, bool)
        return isinstance(value, self.type)

    def validate(self, value: Any, context: str) -> Any:
        """Return ``value`` or raise a :class:`DeckError` naming the
        offender, the expected type and (when enumerated) the valid
        choices."""
        if not self.accepts(value):
            raise DeckError(
                f"{context}: setting '{self.name}' expects "
                f"{self.type_name}, got {value!r} "
                f"({type(value).__name__})"
            )
        if self.choices is not None and value not in self.choices:
            valid = ", ".join(repr(c) for c in self.choices)
            raise DeckError(
                f"{context}: setting '{self.name}' must be one of "
                f"{valid}; got {value!r}"
            )
        return value

    def describe(self) -> dict:
        """JSON-ready row (the CLI/doc-generator representation)."""
        row = {
            "name": self.name,
            "type": self.type_name,
            "default": self.default,
            "doc": self.doc,
            "section": self.section,
        }
        if self.choices is not None:
            row["choices"] = list(self.choices)
        return row


#: shorthand constructors for the two resolution keys every mesh has
def mesh_setting(name: str, default: int, doc: str) -> Setting:
    return Setting(name, int, default, doc, section="MESH")


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemInfo:
    """Everything the registry knows about one problem."""

    name: str
    factory: Callable[..., ProblemSetup]
    settings: Tuple[Setting, ...]
    #: one-line physics summary (the ``problems list`` column)
    summary: str
    #: how the result is checked: analytic reference or conservation
    acceptance: str = ""
    #: literature reference for the problem definition
    reference: str = ""
    #: bundled deck filename under ``repro/problems/decks`` (``None``
    #: for problems without a shipped deck)
    deck: Optional[str] = None
    #: long-form physics description (the registering module docstring)
    physics: str = field(default="", compare=False)

    def setting(self, name: str) -> Optional[Setting]:
        for s in self.settings:
            if s.name == name:
                return s
        return None

    def setting_names(self) -> List[str]:
        return [s.name for s in self.settings]

    def describe(self) -> dict:
        """JSON-ready metadata (what ``problems describe --json``
        prints and what the docs generator renders)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "acceptance": self.acceptance,
            "reference": self.reference,
            "deck": self.deck,
            "settings": [s.describe() for s in self.settings],
        }


_REGISTRY: Dict[str, ProblemInfo] = {}

#: HydroControls field names — accepted as pass-through overrides by
#: ``load_problem`` (every factory forwards ``**control_overrides``)
_CONTROL_FIELDS = frozenset(f.name for f in dc_fields(HydroControls))


def _check_signature(factory: Callable[..., ProblemSetup],
                     settings: Tuple[Setting, ...], name: str) -> None:
    """Registration-time drift guard: the settings table must mirror
    the factory signature exactly (names and defaults)."""
    sig = inspect.signature(factory)
    params = {
        p.name: p for p in sig.parameters.values()
        if p.kind is not inspect.Parameter.VAR_KEYWORD
    }
    declared = {s.name: s for s in settings}
    missing = sorted(set(params) - set(declared))
    if missing:
        raise RegistryError(
            f"problem {name!r}: factory parameter(s) "
            f"{', '.join(missing)} have no Setting row"
        )
    extra = sorted(set(declared) - set(params))
    if extra:
        raise RegistryError(
            f"problem {name!r}: Setting row(s) {', '.join(extra)} "
            f"match no factory parameter"
        )
    for pname, param in params.items():
        default = declared[pname].default
        if param.default is inspect.Parameter.empty:
            raise RegistryError(
                f"problem {name!r}: parameter {pname!r} needs a "
                f"default (every setting must be optional)"
            )
        if not (param.default == default
                or (param.default != param.default
                    and default != default)):   # NaN-safe
            raise RegistryError(
                f"problem {name!r}: Setting {pname!r} default "
                f"{default!r} != factory default {param.default!r}"
            )


def problem(name: str, *, summary: str,
            settings: Union[Tuple[Setting, ...], List[Setting]],
            acceptance: str = "", reference: str = "",
            deck: Optional[str] = "auto"):
    """Class-free ``@problem("sod", ...)`` registration decorator.

    Registers ``factory`` under ``name`` together with its typed
    settings table, validating at import time that the table matches
    the factory signature (names and defaults).  ``deck="auto"``
    associates the bundled deck ``decks/{name}.in``; pass ``None`` for
    problems without a shipped deck.
    """
    settings = tuple(settings)

    def register(factory: Callable[..., ProblemSetup]):
        if name in _REGISTRY:
            raise RegistryError(f"problem {name!r} registered twice")
        _check_signature(factory, settings, name)
        module = inspect.getmodule(factory)
        info = ProblemInfo(
            name=name,
            factory=factory,
            settings=settings,
            summary=summary,
            acceptance=acceptance,
            reference=reference,
            deck=(f"{name}.in" if deck == "auto" else deck),
            physics=inspect.cleandoc(module.__doc__ or "") if module else "",
        )
        _REGISTRY[name] = info
        factory.problem_info = info
        return factory

    return register


def unregister(name: str) -> None:
    """Remove a registration (test scaffolding only)."""
    _REGISTRY.pop(name, None)


# ----------------------------------------------------------------------
# lookup
# ----------------------------------------------------------------------

def problem_names() -> List[str]:
    """The registered problem names, sorted."""
    return sorted(_REGISTRY)


def get_problem(name: str) -> ProblemInfo:
    """The :class:`ProblemInfo` for ``name`` (case-insensitive)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise DeckError(
            f"unknown problem {name!r}; available: "
            f"{', '.join(problem_names())}"
        ) from None


def describe_problem(name: str) -> dict:
    """JSON-ready registry metadata for one problem."""
    return get_problem(name).describe()


def load_problem(name: str, **kwargs) -> ProblemSetup:
    """Build a registered problem by name with keyword overrides.

    Keywords are validated against the problem's settings table;
    :class:`~repro.core.controls.HydroControls` field names pass
    through as control overrides (every factory forwards them).
    Anything else raises a :class:`DeckError` listing the valid keys.
    """
    info = get_problem(name)
    for key, value in kwargs.items():
        setting = info.setting(key)
        if setting is not None:
            setting.validate(value, context=f"problem {info.name!r}")
        elif key not in _CONTROL_FIELDS:
            raise DeckError(
                f"option '{key}' not understood by problem "
                f"{info.name!r}; valid settings: "
                f"{', '.join(info.setting_names())} "
                f"(HydroControls fields may also be overridden)"
            )
    return info.factory(**kwargs)


# ----------------------------------------------------------------------
# bundled decks
# ----------------------------------------------------------------------

#: zipped-install extraction cache: deck name -> stable on-disk copy
_EXTRACTED_DECKS: Dict[str, Path] = {}


def _decks_dir():
    """The packaged ``decks/`` directory.  ``importlib.resources`` is
    imported here: a run is handed a deck path or a problem name and
    never looks a bundled deck up."""
    from importlib import resources

    return resources.files("repro.problems").joinpath("decks")


def _deck_resource(name: str):
    ref = _decks_dir().joinpath(f"{name}.in")
    if not ref.is_file():
        raise DeckError(
            f"no bundled deck {name!r}; available: "
            f"{', '.join(bundled_decks())}"
        )
    return ref


def bundled_decks() -> List[str]:
    """Names of every shipped deck (including variants like
    ``sod_ale`` that reuse a registered problem)."""
    return sorted(
        entry.name[:-len(".in")]
        for entry in _decks_dir().iterdir()
        if entry.name.endswith(".in")
    )


def deck_text(name: str) -> str:
    """Contents of a bundled deck (``sod``, ``noh``, ...)."""
    return _deck_resource(name).read_text()


def deck_path(name: str) -> Path:
    """Filesystem path of a bundled deck (``sod``, ``noh``, ...).

    For normal directory installs this is the packaged file itself.
    For zipped installs — where ``resources.as_file`` would hand out a
    temporary path that is deleted when its context exits — the deck
    is extracted once per process to a stable cached copy, so the
    returned path remains valid for the caller's lifetime.
    """
    ref = _deck_resource(name)
    if isinstance(ref, Path):
        return ref
    cached = _EXTRACTED_DECKS.get(name)
    if cached is None or not cached.exists():
        import tempfile

        outdir = Path(tempfile.mkdtemp(prefix="repro-decks-"))
        cached = outdir / f"{name}.in"
        cached.write_bytes(ref.read_bytes())
        _EXTRACTED_DECKS[name] = cached
    return cached


# ----------------------------------------------------------------------
# deck-driven construction
# ----------------------------------------------------------------------

def setup_from_deck(deck: Union[Deck, str, Path]) -> ProblemSetup:
    """Build a problem from a deck (path or parsed :class:`Deck`).

    The deck names the problem in ``[CONTROL] problem = ...``; the
    ``[MESH]`` and ``[PROBLEM]`` sections override the setup arguments
    (validated against the problem's settings table), and the full
    ``[CONTROL]``/``[ALE]`` sections are applied on top so decks can
    tune any numerical control.
    """
    if not isinstance(deck, Deck):
        deck = read_deck(deck)
    control = deck.section("CONTROL")
    name = str(control.require("problem")).lower()
    if name not in _REGISTRY:
        raise DeckError(
            f"{deck.source}: unknown problem {name!r}; "
            f"available: {', '.join(problem_names())}"
        )
    info = _REGISTRY[name]
    kwargs = {}
    mesh_sec = deck.optional("MESH")
    prob_sec = deck.optional("PROBLEM")
    for section in (mesh_sec, prob_sec):
        for key, value in section.options.items():
            setting = info.setting(key)
            if setting is None:
                raise DeckError(
                    f"{deck.source}: option '{key}' not understood by "
                    f"problem {name!r}; valid settings: "
                    f"{', '.join(info.setting_names())}"
                )
            kwargs[key] = setting.validate(
                value, context=f"{deck.source}: [{section.name}]"
            )
    setup = info.factory(**kwargs)
    # Decks may tune any control: rebuild the controls from the deck on
    # top of the problem defaults.
    if "time_end" not in control:
        control.options["time_end"] = setup.controls.time_end
    deck_controls = controls_from_deck(deck)
    merged = setup.controls
    for field_name in (
        "time_end", "dt_initial", "dt_min", "dt_max", "dt_growth",
        "cfl_safety", "div_safety", "max_steps", "cq1", "cq2",
        "use_limiter", "subzonal_kappa", "filter_kappa",
        "ale_on", "ale_every", "ale_mode", "ale_relax",
    ):
        deck_value = getattr(deck_controls, field_name)
        default_value = getattr(type(deck_controls)(), field_name)
        if deck_value != default_value or field_name == "time_end":
            merged = merged.with_(**{field_name: deck_value})
    setup.controls = merged
    return setup


# Problem modules register themselves via @problem on import; importing
# them here populates the registry exactly once.  (They import the
# decorator from this partially-initialised module, which works because
# everything above this line is already defined.)
from . import (  # noqa: E402,F401  (registration side effects)
    jwl_expansion,
    kidder,
    leblanc,
    noh,
    saltzmann,
    sedov,
    sod,
    triple_point,
    water_air,
)
