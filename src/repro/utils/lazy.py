"""Import-on-use re-exports for package ``__init__`` modules (PEP 562).

A package whose ``__init__`` imports every submodule to re-export a few
names makes each caller pay for all of them: one serial run used to
load the process pool, both concurrent backends and the performance
model because ``repro.fleet``, ``repro.parallel`` and
``repro.telemetry`` did exactly that.  Such a package now declares
*where* each public name lives and resolves it on first access::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "WorkerPool": ".worker",      # a name defined in a submodule
        "sedov_exact": ".",           # a submodule exported as itself
    })

``from package import Name``, ``package.Name``, ``dir(package)`` and
``hasattr`` behave as they did with eager imports; the resolved value is
cached in the package namespace, so ``__getattr__`` runs once per name.
The rule for what may be lazy is in docs/PERFORMANCE.md, "Cold start".
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Mapping, Tuple

from .errors import BookLeafError


def lazy_exports(namespace: dict, exports: Mapping[str, str]
                 ) -> Tuple[Callable, Callable]:
    """The ``(__getattr__, __dir__)`` pair for the package whose
    ``globals()`` is ``namespace``.

    ``exports`` maps each public name to the relative module defining
    it; ``"."`` marks a submodule exported under its own name.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            where = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        if where == ".":
            value = import_module(f".{name}", package)
        else:
            value = getattr(import_module(where, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


def require(module: str, feature: str, error: type = BookLeafError):
    """Import optional dependency ``module`` where ``feature`` uses it.

    scipy serves the Sedov reference solution and the spectral
    partitioner and nothing on the run path, so those two import it
    here, at the point of use; where it is missing the caller gets one
    structured ``error`` naming the feature instead of a traceback.
    """
    try:
        return import_module(module)
    except ImportError as exc:
        raise error(
            f"{feature} needs {module}, which cannot be imported here "
            f"({exc})"
        ) from exc
