"""Small-dimension complex linear algebra for one- and two-qubit pure states.

Two-qubit amplitudes are stored as length-4 complex vectors ordered
``[a00, a01, a10, a11]``; ``a_ij`` is the amplitude for qubit 1 in ``|i>``
and qubit 2 in ``|j>``. Every function here is pure: inputs are never
mutated and results are fresh arrays, so concurrent use is safe.

Every state argument here is read by :func:`_array`: a sequence of 4
(for a qubit, 2) finite numbers whose squared norm is finite, so that no
product here overflows. A qubit argument is ``core._qubit``'s 1 or 2.
"""

from __future__ import annotations

import numpy as np

from .core import _amplitudes, _qubit, _schmidt, _schmidt_pair
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
    the result is exactly normalized for any finite ``theta`` in radians.
    DomainError unless ``lambda0`` is a real number in [0, 1] and ``theta``
    a finite one.
    """
    return np.array(_schmidt(*_schmidt_pair(lambda0, theta)), dtype=complex)


def _array(values, n: int) -> np.ndarray:
    """The ``n`` :func:`~phaselab.core._amplitudes` of ``values`` as a complex
    ndarray; DomainError too when their squared norm overflows."""
    a = np.array(_amplitudes(values, n), dtype=complex)
    if not np.isfinite(np.vdot(a, a).real):  # vdot, unlike the ufuncs, warns of no overflow
        raise DomainError("the amplitudes' squared norm overflows")
    return a


def _matrix(m, name: str) -> np.ndarray:
    """``m`` as a complex ndarray; DomainError naming ``name`` unless it is a
    2x2 matrix, whose four entries :func:`_array` reads as it reads a state."""
    try:
        m = np.asarray(m)
    except ValueError:  # a ragged nesting
        m = None
    if np.shape(m) != (2, 2):
        raise DomainError(f"{name} must be a 2x2 matrix")
    _array(m.ravel(), 4)
    return m.astype(complex, copy=False)


def _su2_matrix(q) -> np.ndarray:
    """The matrix ``w I - i v . sigma`` of a unit quaternion
    ``q = (w, vx, vy, vz)``; a (M, 2, 2) stack when the components are
    arrays of length M."""
    w, vx, vy, vz = q
    return np.moveaxis(np.array([[w - 1j * vz, -vy - 1j * vx],
                                 [vy - 1j * vx, w + 1j * vz]]), (0, 1), (-2, -1))


def apply_local(u: np.ndarray, qubit: int, state) -> np.ndarray:
    """Apply a one-qubit operator, the 2x2 matrix ``u``, to qubit 1 or qubit 2
    of a two-qubit state."""
    u, qubit, a = _matrix(u, "u"), _qubit(qubit), _array(state, 4).reshape(2, 2)
    return (u @ a if qubit == 1 else a @ u.T).reshape(4)


def reduced_density(state, keep: int) -> np.ndarray:
    """Partial trace of ``|state><state|`` keeping qubit 1 or qubit 2."""
    a, keep = _array(state, 4).reshape(2, 2), _qubit(keep, "keep")
    return a @ a.conj().T if keep == 1 else a.T @ a.conj()


def inner_product(a, b) -> complex:
    """``<a|b>`` of two two-qubit states, with conjugation on the first argument."""
    return complex(np.vdot(_array(a, 4), _array(b, 4)))
