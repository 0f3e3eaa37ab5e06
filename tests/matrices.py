"""2x2-matrix forms of qubit rotations and two-qubit states, for the test
oracles.

numpy only: nothing here imports phaselab, so an oracle built on these
matrices shares no code with the program it checks
(``test_qstate.py::TestMatrixOracles`` imports this module with phaselab
blocked).
"""

import math

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def pauli_dot(axis) -> np.ndarray:
    """``axis . sigma`` as a 2x2 complex matrix."""
    n = np.asarray(axis, dtype=float)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def make_two_qubit(a00, a01, a10, a11) -> np.ndarray:
    """The unit two-qubit state ``v / |v|`` of four complex amplitudes."""
    v = np.array([a00, a01, a10, a11], dtype=complex)
    return v / np.linalg.norm(v)


def evolution_operator(axis, t: float) -> np.ndarray:
    """``exp(-i t (axis . sigma) / 2)`` for a unit 3-vector ``axis``, in
    closed form:

        [[cos(t/2) - i nz sin(t/2),  (-i nx - ny) sin(t/2)],
         [(-i nx + ny) sin(t/2),     cos(t/2) + i nz sin(t/2)]]
    """
    nx, ny, nz = (float(x) for x in axis)
    w, s = math.cos(t / 2.0), math.sin(t / 2.0)
    vx, vy, vz = s * nx, s * ny, s * nz
    return np.array([[w - 1j * vz, -vy - 1j * vx], [vy - 1j * vx, w + 1j * vz]])


def rotation_of(u) -> np.ndarray:
    """The SO(3) matrix ``R`` of which the SU(2) matrix ``u`` is a lift,
    ``u (m . sigma) u^+ = (R m) . sigma``: ``R_ij = Tr(sigma_i u sigma_j u^+) / 2``."""
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    u = np.asarray(u, dtype=complex)
    return np.array([[np.trace(si @ u @ sj @ u.conj().T).real / 2.0 for sj in paulis]
                     for si in paulis])


def local(u, qubit: int, state) -> np.ndarray:
    """The two-qubit state ``(a00, a01, a10, a11)`` with the 2x2 matrix ``u``
    applied to qubit ``qubit`` (1 or 2); the first index of ``a_ij`` is qubit 1's."""
    a = np.asarray(state, dtype=complex).reshape(2, 2)
    return (u @ a if qubit == 1 else a @ np.asarray(u).T).reshape(4)


def quaternion_of(u):
    """``(w, v)`` of SU(2) matrices ``u = w I - i v . sigma``: ``w`` of
    shape (...) and ``v`` of shape (..., 3) for ``u`` of shape (..., 2, 2)."""
    m = np.asarray(u, dtype=complex)
    w = (m[..., 0, 0] + m[..., 1, 1]).real / 2.0
    v = np.stack([-(m[..., 0, 1].imag + m[..., 1, 0].imag) / 2.0,
                  (m[..., 1, 0].real - m[..., 0, 1].real) / 2.0,
                  (m[..., 1, 1].imag - m[..., 0, 0].imag) / 2.0], axis=-1)
    return w, v


def su2_to_so3(u):
    """``(axis, angle)`` of an SU(2) matrix in the radius-pi rotation ball,
    one matrix at a time: :func:`ball_of_quaternion` of its quaternion."""
    return ball_of_quaternion(*quaternion_of(u))


def ball_of_quaternion(w, v):
    """``(axis, angle)`` of the unit quaternion ``w``, ``v`` (3,) in the
    radius-pi rotation ball, by scalar ``math``: angles above pi folded onto
    ``(2 pi - t, -n)``, the identity on axis (0, 0, 1)."""
    v = np.asarray(v, dtype=float)
    vx, vy, vz = v.tolist()
    s = math.sqrt((vx * vx + vy * vy) + vz * vz)  # in this order, and no BLAS dot
    if s <= 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    t = 2.0 * math.atan2(s, w)
    axis = v / s
    if t > math.pi:
        t, axis = 2.0 * math.pi - t, -axis
    if t <= 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return axis, t
