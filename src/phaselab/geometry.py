"""Geometric maps for qubit states.

The Bloch vector of a pure single-qubit state, the five base
coordinates of a pure two-qubit state (a point on the unit 4-sphere),
concurrence and the derived Bloch-ball radius, purification of a qubit
density matrix into two antipodal weighted pure states, and the
projection of SU(2) onto the rotation ball of radius pi with antipodal
boundary identification.

All Bloch components are Pauli expectation values (<sx>, <sy>, <sz>).
States and density matrices are read as :mod:`phaselab.qstate` reads them.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ZeroTimes, _Frozen, _quaternions, _scan, _schedule_fields
from .errors import DegenerateSpectrum
from .qstate import _array, _matrix
from .schedule import RotationSchedule, _unitary_samples

__all__ = [
    "bloch_of_pure",
    "hopf_coords",
    "concurrence",
    "ball_radius",
    "Purification",
    "purify",
    "SO3Path",
    "so3_path",
]


def bloch_of_pure(q) -> np.ndarray:
    """Expectation values (<sx>, <sy>, <sz>) of a pure qubit state."""
    a0, a1 = _array(q, 2)
    cross = np.conj(a0) * a1
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(a0) ** 2 - abs(a1) ** 2])


def hopf_coords(state) -> np.ndarray:
    """Base coordinates ``(x, y, z, c_r, c_i)`` of a pure two-qubit state.

    ``(x, y, z)`` is the Bloch vector of qubit 1's reduced density matrix
    and ``c_r + i c_i`` is twice the amplitude determinant, whose modulus
    is the concurrence. The five components lie on the unit 4-sphere.
    """
    a00, a01, a10, a11 = _array(state, 4)
    t = np.conj(a00) * a10 + np.conj(a01) * a11
    det2 = 2.0 * (a00 * a11 - a01 * a10)
    z = abs(a00) ** 2 + abs(a01) ** 2 - abs(a10) ** 2 - abs(a11) ** 2
    return np.array([2.0 * t.real, 2.0 * t.imag, z, det2.real, det2.imag])


def concurrence(state) -> float:
    """Entanglement measure ``2 |a00 a11 - a01 a10|``; 0 for product
    states, 1 for maximally entangled ones."""
    a00, a01, a10, a11 = _array(state, 4)
    return float(min(1.0, 2.0 * abs(a00 * a11 - a01 * a10)))


def ball_radius(state) -> float:
    """Radius ``sqrt(1 - C^2)`` of the reduced-state Bloch ball."""
    c = concurrence(state)
    return math.sqrt(max(0.0, 1.0 - c * c))


class Purification(_Frozen):
    """Weighted eigen-decomposition of a qubit density matrix:
    ``Purification(weight_m, state_m, weight_n, state_n)``.

    ``weight_m >= weight_n``, the states are orthonormal, and their Bloch
    vectors point in opposite directions. Equal only to itself, and hashed
    by identity.
    """

    __slots__ = ("weight_m", "state_m", "weight_n", "state_n")


def purify(rho) -> Purification:
    """Split a qubit density matrix into its two weighted eigenstates.

    Raises DomainError unless ``rho`` is a 2x2 matrix of finite numbers
    whose squared norm is finite, and DegenerateSpectrum when the eigenvalue
    gap is <= 1e-9 (the eigenbasis is then arbitrary). Each eigenvector's
    global phase is fixed by making its largest-magnitude component real and
    positive, so results are deterministic.
    """
    r = _matrix(rho, "rho")
    evals, evecs = np.linalg.eigh(r)
    if abs(evals[1] - evals[0]) <= 1e-9:
        raise DegenerateSpectrum(
            f"eigenvalue gap {abs(evals[1] - evals[0]):.3e} is <= 1e-9"
        )
    states = []
    for k in (1, 0):  # descending weight
        v = evecs[:, k].copy()
        lead = int(np.argmax(np.abs(v)))
        v = v * (np.conj(v[lead]) / abs(v[lead]))
        states.append(v)
    return Purification(float(evals[1]), states[0], float(evals[0]), states[1])


_CENTER_AXIS = np.array([[0.0], [0.0], [1.0]])


def _ball(w, v) -> tuple[np.ndarray, np.ndarray]:
    """Axes (3, M), one row per component, and angles (M,) in the radius-pi
    ball of the unit quaternions ``w`` (M,), ``v`` (3, M) of ``u = w I - i v
    . sigma = cos(t/2) I - i sin(t/2) (n . sigma)``; angles in (pi, 2pi] are
    folded onto ``(2pi - t, -n)``, so ``u`` and ``-u`` map to the same point,
    and the identity gets axis (0, 0, 1). Each cell is a scalar formula in a
    fixed order, evaluated elementwise: ``|v| = sqrt((vx*vx + vy*vy) +
    vz*vz)``, never a BLAS product, whose rounding depends on the CPU's
    kernel, and the angle is ``math.atan2``'s, since ``np.arctan2`` differs
    from it in the last bit on a share of inputs.
    """
    vx, vy, vz = v
    s = np.sqrt((vx * vx + vy * vy) + vz * vz)
    t = 2.0 * np.fromiter(map(math.atan2, s.tolist(), w.tolist()), float, len(s))
    center = s <= 1e-12
    axes = v / np.where(center, 1.0, s)
    fold = t > math.pi
    t[fold] = 2.0 * math.pi - t[fold]
    axes[:, fold] = -axes[:, fold]
    center |= t <= 1e-12
    t[center] = 0.0
    axes[:, center] = _CENTER_AXIS
    return axes, t


class SO3Path(_Frozen):
    """Sampled ball trajectory as arrays, one row per sample: ``times``,
    ball ``axes`` (M, 3) and ``angles`` in [0, pi], as :func:`_ball` maps
    them (``axes`` the transposed view of its component rows),
    ``cos_half_angle = Re(Tr U)/2``, and the exact transversal
    border-crossing times ``crossings``, a :class:`~phaselab.core.ZeroTimes`.
    Equal only to itself, and hashed by identity."""

    __slots__ = ("times", "axes", "angles", "cos_half_angle", "crossings")


def so3_path(schedule: RotationSchedule, samples_per_segment: int) -> SO3Path:
    """Project a schedule's cumulative unitaries into the rotation ball.

    A border crossing is a transversal sign change of
    ``cos_half_angle = Re(Tr U)/2``, the overlap with ``rho = I/2``; the
    crossing times come from :func:`~phaselab.core._scan`. A tangential
    touch of the border counts as zero crossings.
    """
    bounds = _quaternions(_schedule_fields(schedule)[0])
    times, quats = _unitary_samples(bounds, samples_per_segment)
    crossings = ZeroTimes(bounds[0], _scan((1.0, 0.0, 0.0, 0.0), bounds)[3])
    axes, angles = _ball(quats[0], quats[1:])
    return SO3Path(times, axes.T, angles, quats[0], crossings)
