"""Geometric maps for qubit states.

Bloch vectors of pure and mixed single-qubit states, the five base
coordinates of a pure two-qubit state (a point on the unit 4-sphere),
concurrence and the derived Bloch-ball radius, purification of a qubit
density matrix into two antipodal weighted pure states, and the
projection of SU(2) onto the rotation ball of radius pi with antipodal
boundary identification.

All Bloch components are Pauli expectation values (<sx>, <sy>, <sz>).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import ZeroTimes, _quaternions, _zero_runs
from .errors import DegenerateSpectrum, NotSpecialUnitary
from .schedule import RotationSchedule, _unitary_samples

__all__ = [
    "bloch_of_pure",
    "bloch_of_density",
    "hopf_coords",
    "concurrence",
    "ball_radius",
    "purity_radius",
    "Purification",
    "purify",
    "SO3Point",
    "SO3Path",
    "su2_to_so3",
    "so3_path",
]


def bloch_of_pure(q) -> np.ndarray:
    """Expectation values (<sx>, <sy>, <sz>) of a pure qubit state."""
    a0, a1 = np.asarray(q, dtype=complex)
    cross = np.conj(a0) * a1
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(a0) ** 2 - abs(a1) ** 2])


def bloch_of_density(rho) -> np.ndarray:
    """Expectation values (<sx>, <sy>, <sz>) of a qubit density matrix.

    The y component is written with the lower off-diagonal entry,
    ``2 Im rho[1,0]``, so that ``bloch_of_density(|q><q|)`` agrees with
    ``bloch_of_pure(q)`` for every state.
    """
    r = np.asarray(rho, dtype=complex)
    return np.array(
        [2.0 * r[0, 1].real, 2.0 * r[1, 0].imag, (r[0, 0] - r[1, 1]).real]
    )


def hopf_coords(state) -> np.ndarray:
    """Base coordinates ``(x, y, z, c_r, c_i)`` of a pure two-qubit state.

    ``(x, y, z)`` is the Bloch vector of qubit 1's reduced density matrix
    and ``c_r + i c_i`` is twice the amplitude determinant, whose modulus
    is the concurrence. The five components lie on the unit 4-sphere.
    """
    a00, a01, a10, a11 = np.asarray(state, dtype=complex)
    t = np.conj(a00) * a10 + np.conj(a01) * a11
    det2 = 2.0 * (a00 * a11 - a01 * a10)
    z = abs(a00) ** 2 + abs(a01) ** 2 - abs(a10) ** 2 - abs(a11) ** 2
    return np.array([2.0 * t.real, 2.0 * t.imag, z, det2.real, det2.imag])


def concurrence(state) -> float:
    """Entanglement measure ``2 |a00 a11 - a01 a10|``; 0 for product
    states, 1 for maximally entangled ones."""
    a00, a01, a10, a11 = np.asarray(state, dtype=complex)
    return float(min(1.0, 2.0 * abs(a00 * a11 - a01 * a10)))


def ball_radius(state) -> float:
    """Radius ``sqrt(1 - C^2)`` of the reduced-state Bloch ball."""
    c = concurrence(state)
    return math.sqrt(max(0.0, 1.0 - c * c))


def purity_radius(rho) -> float:
    """Bloch-vector length ``sqrt(2 Tr rho^2 - 1)`` of a density matrix,
    clamped to [0, 1]."""
    r = np.asarray(rho, dtype=complex)
    p2 = float(np.trace(r @ r).real)
    return math.sqrt(min(1.0, max(0.0, 2.0 * p2 - 1.0)))


@dataclass(frozen=True, eq=False)
class Purification:
    """Weighted eigen-decomposition of a qubit density matrix.

    ``weight_m >= weight_n``, the states are orthonormal, and their Bloch
    vectors point in opposite directions. Equal only to itself, and hashed
    by identity.
    """

    weight_m: float
    state_m: np.ndarray
    weight_n: float
    state_n: np.ndarray


def purify(rho) -> Purification:
    """Split a qubit density matrix into its two weighted eigenstates.

    Raises DegenerateSpectrum when the eigenvalue gap is <= 1e-9 (the
    eigenbasis is then arbitrary). Each eigenvector's global phase is
    fixed by making its largest-magnitude component real and positive,
    so results are deterministic.
    """
    r = np.asarray(rho, dtype=complex)
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


@dataclass(frozen=True, eq=False)
class SO3Point:
    """A rotation as ``(axis, angle)`` in the radius-pi ball, angle in [0, pi].

    Boundary points (angle == pi) are identified with their antipodes and
    the identity carries the canonical axis (0, 0, 1).
    """

    axis: np.ndarray
    angle: float

    def displacement(self) -> np.ndarray:
        """Ball coordinates ``axis * angle``."""
        return self.axis * self.angle

    def same_rotation(self, other: "SO3Point", atol: float = 1e-9) -> bool:
        if abs(self.angle - other.angle) > atol:
            return False
        if self.angle <= atol and other.angle <= atol:
            return True
        if float(np.linalg.norm(self.axis - other.axis)) <= atol:
            return True
        near_pi = abs(self.angle - math.pi) <= atol
        return near_pi and float(np.linalg.norm(self.axis + other.axis)) <= atol

    def __eq__(self, other):
        if not isinstance(other, SO3Point):
            return NotImplemented
        return self.same_rotation(other)


_CENTER_AXIS = np.array([0.0, 0.0, 1.0])


def _ball(w, v) -> tuple[np.ndarray, np.ndarray]:
    """Axes (M, 3) and angles (M,) in the radius-pi ball of the unit
    quaternions ``w`` (M,), ``v`` (M, 3) of ``u = w I - i v . sigma =
    cos(t/2) I - i sin(t/2) (n . sigma)``; angles in (pi, 2pi] are folded
    onto ``(2pi - t, -n)``, so ``u`` and ``-u`` map to the same point, and
    the identity gets axis (0, 0, 1). The norm is a stacked matmul, the
    dot product ``np.linalg.norm`` takes, and the angle uses ``math.atan2``:
    ``np.arctan2`` and sum-of-squares norms differ from those in the last
    bit on a share of inputs.
    """
    s = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    t = 2.0 * np.fromiter(map(math.atan2, s.tolist(), w.tolist()), float, len(s))
    center = s <= 1e-12
    axes = v / np.where(center, 1.0, s)[:, None]
    fold = t > math.pi
    t[fold] = 2.0 * math.pi - t[fold]
    axes[fold] = -axes[fold]
    center |= t <= 1e-12
    t[center] = 0.0
    axes[center] = _CENTER_AXIS
    return axes, t


def su2_to_so3(u) -> SO3Point:
    """Axis-angle image of an SU(2) element ``w I - i v . sigma`` in the
    radius-pi ball (see :func:`_ball`). Raises NotSpecialUnitary when
    det(u) != 1 within 1e-9."""
    m = np.asarray(u, dtype=complex)
    if abs(np.linalg.det(m) - 1.0) > 1e-9:
        raise NotSpecialUnitary("matrix determinant differs from 1 by more than 1e-9")
    w = (m[0, 0] + m[1, 1]).real / 2.0
    v = np.array([[-(m[0, 1].imag + m[1, 0].imag) / 2.0,
                   (m[1, 0].real - m[0, 1].real) / 2.0,
                   (m[1, 1].imag - m[0, 0].imag) / 2.0]])
    axes, angles = _ball(np.array([w]), v)
    return SO3Point(axes[0], float(angles[0]))


@dataclass(frozen=True, eq=False)
class SO3Path:
    """Sampled ball trajectory: ``(time, point, cos_half_angle)`` triples
    plus the exact transversal border-crossing times. Equal only to
    itself, and hashed by identity."""

    samples: tuple
    crossings: Sequence


def so3_path(schedule: RotationSchedule, samples_per_segment: int) -> SO3Path:
    """Project a schedule's cumulative unitaries into the rotation ball.

    A border crossing is a transversal sign change of
    ``cos_half_angle = Re(Tr U)/2``, the overlap with ``rho = I/2``; the
    crossing times come from :func:`~phaselab.core._zero_runs`. A tangential
    touch of the border counts as zero crossings.
    """
    bounds = _quaternions(schedule.segments)
    times, quats = _unitary_samples(bounds, samples_per_segment)
    axes, angles = _ball(quats[0], quats[1:].T)
    samples = [
        (t, SO3Point(axis, angle), half)
        for t, axis, angle, half in zip(times.tolist(), axes, angles.tolist(), quats[0].tolist())
    ]
    crossings = ZeroTimes(bounds[0], _zero_runs((1.0, 0.0, 0.0, 0.0), bounds))
    return SO3Path(tuple(samples), crossings)
