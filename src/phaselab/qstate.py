"""Small-dimension complex linear algebra for one- and two-qubit pure states.

Two-qubit amplitudes are stored as length-4 complex vectors ordered
``[a00, a01, a10, a11]``; ``a_ij`` is the amplitude for qubit 1 in ``|i>``
and qubit 2 in ``|j>``. Every function here is pure: inputs are never
mutated and results are fresh arrays, so concurrent use is safe.
"""

from __future__ import annotations

import numpy as np

from .core import _schmidt
from .errors import DomainError

__all__ = [
    "schmidt_state",
    "apply_local",
    "reduced_density",
    "inner_product",
]


def schmidt_state(lambda0: float, theta: float) -> np.ndarray:
    """Two-parameter state family: weight ``lambda0`` and tilt ``theta``.

    Amplitudes are ``(sqrt(l0) cos(t/2), -sqrt(l1) sin(t/2),
    sqrt(l0) sin(t/2), sqrt(l1) cos(t/2))`` with ``l1 = 1 - lambda0``;
    the result is exactly normalized for any ``theta`` in radians.
    """
    return np.array(_schmidt(lambda0, theta), dtype=complex)


def _su2_matrix(q) -> np.ndarray:
    """The matrix ``w I - i v . sigma`` of a unit quaternion
    ``q = (w, vx, vy, vz)``; a (M, 2, 2) stack when the components are
    arrays of length M."""
    w, vx, vy, vz = q
    return np.moveaxis(np.array([[w - 1j * vz, -vy - 1j * vx],
                                 [vy - 1j * vx, w + 1j * vz]]), (0, 1), (-2, -1))


def apply_local(u: np.ndarray, qubit: int, state) -> np.ndarray:
    """Apply a one-qubit operator to qubit 1 or qubit 2 of a two-qubit state."""
    a = np.asarray(state, dtype=complex).reshape(2, 2)
    if qubit == 1:
        out = u @ a
    elif qubit == 2:
        out = a @ u.T
    else:
        raise DomainError("qubit must be 1 or 2")
    return out.reshape(4)


def reduced_density(state, keep: int) -> np.ndarray:
    """Partial trace of ``|state><state|`` keeping qubit 1 or qubit 2."""
    a = np.asarray(state, dtype=complex).reshape(2, 2)
    if keep == 1:
        return a @ a.conj().T
    if keep == 2:
        return a.T @ a.conj()
    raise DomainError("keep must be 1 or 2")


def inner_product(a, b) -> complex:
    """``<a|b>`` with conjugation on the first argument."""
    return complex(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
