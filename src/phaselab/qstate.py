"""Small-dimension complex linear algebra for one- and two-qubit pure states.

Two-qubit amplitudes are stored as length-4 complex vectors ordered
``[a00, a01, a10, a11]``; ``a_ij`` is the amplitude for qubit 1 in ``|i>``
and qubit 2 in ``|j>``. Every function here is pure: inputs are never
mutated and results are fresh arrays, so concurrent use is safe.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ZeroNorm

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "pauli_dot",
    "make_two_qubit",
    "schmidt_state",
    "evolution_operator",
    "apply_local",
    "reduced_density",
    "inner_product",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_AXIS_TOL = 1e-9


def pauli_dot(axis) -> np.ndarray:
    """``axis . sigma`` as a 2x2 complex matrix."""
    n = np.asarray(axis, dtype=float)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def _rescaled(v: np.ndarray) -> np.ndarray:
    """``v`` divided by its largest component when the squares its norm
    sums would overflow, else ``v`` itself."""
    big = max(map(abs, v.view(float).tolist()))
    return v / big if big > 1e150 else v


def make_two_qubit(a00, a01, a10, a11) -> np.ndarray:
    """Normalized two-qubit state from four complex amplitudes.

    Raises ZeroNorm when the input norm is at or below 1e-9; otherwise the
    vector is rescaled to unit norm with relative amplitudes preserved.
    """
    amps = np.array([a00, a01, a10, a11], dtype=complex)
    if not np.all(np.isfinite(amps.view(float))):
        raise DomainError("amplitudes must be finite")
    amps = _rescaled(amps)
    norm = float(np.linalg.norm(amps))
    if not norm > 1e-9:
        raise ZeroNorm(f"state norm {norm:g} is not above 1e-9")
    if abs(norm - 1.0) > 1e-12:
        amps = amps / norm
    return amps


def schmidt_state(lambda0: float, theta: float) -> np.ndarray:
    """Two-parameter state family: weight ``lambda0`` and tilt ``theta``.

    Amplitudes are ``(sqrt(l0) cos(t/2), -sqrt(l1) sin(t/2),
    sqrt(l0) sin(t/2), sqrt(l1) cos(t/2))`` with ``l1 = 1 - lambda0``;
    the result is exactly normalized for any ``theta`` in radians.
    """
    if not 0.0 <= lambda0 <= 1.0:
        raise DomainError(f"lambda0 must lie in [0, 1], got {lambda0}")
    r0, r1 = math.sqrt(lambda0), math.sqrt(1.0 - lambda0)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([r0 * c, -r1 * s, r0 * s, r1 * c], dtype=complex)


def _unit_axis(axis) -> list:
    """``axis`` as three floats; DomainError unless it is a unit 3-vector
    (``|axis| = 1`` within 1e-9)."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or abs(math.hypot(*n.tolist()) - 1.0) > _AXIS_TOL:
        raise DomainError("axis must be a unit 3-vector (|axis| = 1 within 1e-9)")
    return n.tolist()


def evolution_operator(axis, t: float) -> np.ndarray:
    """SU(2) rotation by angle ``t`` (radians) about a unit 3-vector axis.

    Equals ``exp(-i t (axis . sigma) / 2)``:

        [[cos(t/2) - i nz sin(t/2),  (-i nx - ny) sin(t/2)],
         [(-i nx + ny) sin(t/2),     cos(t/2) + i nz sin(t/2)]]
    """
    nx, ny, nz = _unit_axis(axis)
    c = math.cos(t / 2.0)
    s = math.sin(t / 2.0)
    return np.array(
        [
            [c - 1j * nz * s, (-1j * nx - ny) * s],
            [(-1j * nx + ny) * s, c + 1j * nz * s],
        ]
    )


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
