"""phaselab: a numerical laboratory for two-qubit phase dynamics.

Evolves pure two-qubit states under piecewise-fixed-axis rotation
schedules applied to one qubit and decomposes the acquired global phase
into total, dynamical, geometric and topological parts, with the
supporting geometry: Bloch vectors and balls, the five base coordinates
of a pure two-qubit state, concurrence, purification, and the rotation
ball of radius pi with antipodal boundary identification.

Importing the package loads no numpy: the exact API (``core``) and the
schedule API are bound at import; ``qstate``, ``geometry`` and ``phases``,
and the names they export, load on first access.
"""

from importlib import import_module

from . import core, errors, schedule
from .core import *  # noqa: F403
from .errors import *  # noqa: F403 (its public names are the exception types)
from .schedule import *  # noqa: F403

__version__ = "0.1.0"


def _load_lazy() -> None:
    """Import the numpy-backed modules and bind their exports and
    ``__all__`` here."""
    qstate, geometry, phases = (import_module(f"{__name__}.{name}")
                                for name in ("qstate", "geometry", "phases"))
    names = globals()
    for module in (qstate, geometry, phases):
        names.update((name, getattr(module, name)) for name in module.__all__)
    names["__all__"] = [
        *(name for name in vars(errors) if not name.startswith("_")),
        *qstate.__all__,
        *geometry.__all__,
        *schedule.__all__,
        *core.__all__,
        *phases.__all__,
        "__version__",
    ]


def __getattr__(name: str):
    # ``from phaselab import cli`` asks for cli here before it imports that submodule,
    # which loads no numpy
    if name == "__all__" or not name.startswith("_") and name != "cli":
        _load_lazy()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _load_lazy()
    return sorted(globals())
