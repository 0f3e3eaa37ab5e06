"""phaselab: a numerical laboratory for two-qubit phase dynamics.

Evolves pure two-qubit states under piecewise-fixed-axis rotation
schedules applied to one qubit and decomposes the acquired global phase
into total, dynamical, geometric and topological parts, with the
supporting geometry: Bloch vectors and balls, the five base coordinates
of a pure two-qubit state, concurrence, purification, and the rotation
ball of radius pi with antipodal boundary identification.
"""

from . import errors, geometry, phases, qstate, schedule
from .errors import *  # noqa: F403 (its public names are the exception types)
from .geometry import *  # noqa: F403
from .phases import *  # noqa: F403
from .qstate import *  # noqa: F403
from .schedule import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *(name for name in vars(errors) if not name.startswith("_")),
    *qstate.__all__,
    *geometry.__all__,
    *schedule.__all__,
    *phases.__all__,
    "__version__",
]
