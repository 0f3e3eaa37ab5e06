"""The exact phase decomposition in plain floats.

Each boundary product of a schedule is a unit quaternion,
``B_k = w I - i v . sigma``, and the evolved qubit's reduced state is
``rho = (t I + b . sigma) / 2``, held as its Pauli components
``(t, bx, by, bz)``. Every exact quantity (total, dynamical and geometric
phase, the crossing search, the readout probability) is then a few float
operations on 3-vectors. The state and axis formulas the schedule parser
uses live here too. Nothing in this module imports numpy or
``dataclasses``, so the ``breakdown``, ``sweep`` and ``readout`` commands,
``run`` without ``--out`` and the exact library calls start without them.
The public names in ``__all__`` are bound on ``phaselab`` at import.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate

from .errors import DegenerateSpectrum, DomainError, NotCyclic, OrthogonalStep, ZeroNorm

__all__ = [
    "ORTHOGONALITY_EPS",
    "CROSSING_EPS",
    "DYNAMICAL_SIGN",
    "principal",
    "PhaseBreakdown",
    "dynamical_phase",
    "geometric_phase_mixed",
    "topological_crossings",
    "phase_breakdown",
    "readout_probability",
]

ORTHOGONALITY_EPS = 1e-9
#: Largest overlap magnitude counted as a zero (an orthogonality crossing).
CROSSING_EPS = 1e-6
#: The one dynamical-phase convention used everywhere: phi_d = -int <H> dt.
DYNAMICAL_SIGN = -1.0
#: Largest ``| |<s0|U_T|s0>| - 1 |`` of a cyclic schedule.
CYCLIC_EPS = 1e-6

_TWO_PI = 2.0 * math.pi
_AXIS_TOL = 1e-9


class _Frozen:
    """Base of the immutable record classes: fields named in each
    subclass's ``__slots__``, set once by its ``__init__``. Assigning or
    deleting any attribute raises AttributeError; ``repr`` reads
    ``Class(field=value, ...)``; copies and pickles call the constructor.
    Equality and hashing are by identity unless a subclass defines them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({pairs})"

    def __reduce__(self):
        return type(self), self._values()


_set = object.__setattr__  # how an ``__init__`` sets a field past ``_Frozen.__setattr__``


def principal(x: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = math.remainder(x, _TWO_PI)
    return r + _TWO_PI if r <= -math.pi else r


def _floats(values, kind=float) -> tuple:
    """``values`` as a tuple of ``kind`` (float or complex); an ndarray is
    read through its ``tolist``."""
    return tuple(map(kind, values.tolist() if hasattr(values, "tolist") else values))


def _rescaled(parts: tuple) -> tuple:
    """Real components ``parts`` divided by the largest magnitude among them
    when the squares their norm sums would overflow, else ``parts``."""
    big = max(map(abs, parts))
    return tuple(p / big for p in parts) if big > 1e150 else parts


def _divided(parts: tuple, norm: float) -> tuple:
    """``parts / norm``, or ``parts`` itself when ``norm`` is 1 within 1e-12."""
    return parts if abs(norm - 1.0) <= 1e-12 else tuple(p / norm for p in parts)


def _unit_axis(axis) -> tuple:
    """``axis`` as three floats; DomainError unless it is a unit 3-vector
    (``|axis| = 1`` within 1e-9)."""
    try:
        n = _floats(axis)
    except (TypeError, ValueError):
        n = ()
    if len(n) != 3 or abs(math.hypot(*n) - 1.0) > _AXIS_TOL:
        raise DomainError("axis must be a unit 3-vector (|axis| = 1 within 1e-9)")
    return n


def _two_qubit(amps) -> tuple:
    """Four complex amplitudes normalized to a unit two-qubit state (see
    :func:`~phaselab.qstate.make_two_qubit`)."""
    parts = tuple(p for a in _floats(amps, complex) for p in (a.real, a.imag))
    if not all(map(math.isfinite, parts)):
        raise DomainError("amplitudes must be finite")
    parts = _rescaled(parts)
    norm = math.hypot(*parts)
    if not norm > 1e-9:
        raise ZeroNorm(f"state norm {norm:g} is not above 1e-9")
    parts = _divided(parts, norm)
    return tuple(complex(parts[i], parts[i + 1]) for i in range(0, 8, 2))


def _schmidt(lambda0: float, theta: float) -> tuple:
    """Amplitudes of :func:`~phaselab.qstate.schmidt_state`."""
    if not 0.0 <= lambda0 <= 1.0:
        raise DomainError(f"lambda0 must lie in [0, 1], got {lambda0}")
    r0, r1 = math.sqrt(lambda0), math.sqrt(1.0 - lambda0)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return complex(r0 * c), complex(-r1 * s), complex(r0 * s), complex(r1 * c)


def _product(c, ax, ay, az, q) -> tuple:
    """The quaternion product ``(c, a) q = (c w - a . v, c v + w a + a x v)``
    of ``q = (w, vx, vy, vz)``; takes floats or numpy arrays alike."""
    w, vx, vy, vz = q
    return (c * w - (ax * vx + ay * vy + az * vz),
            c * vx + w * ax + (ay * vz - az * vy),
            c * vy + w * ay + (az * vx - ax * vz),
            c * vz + w * az + (ax * vy - ay * vx))


def _rotated(q, b) -> tuple:
    """``b + 2 w (v x b) + 2 v x (v x b)``: the Bloch vector of ``B rho B+``
    for ``B = w I - i v . sigma``, ``q = (w, v)``, and ``b`` that of ``rho``;
    takes floats or numpy arrays alike."""
    w, vx, vy, vz = q
    bx, by, bz = b
    cx, cy, cz = vy * bz - vz * by, vz * bx - vx * bz, vx * by - vy * bx
    dx, dy, dz = vy * cz - vz * cy, vz * cx - vx * cz, vx * cy - vy * cx
    return bx + 2.0 * (w * cx + dx), by + 2.0 * (w * cy + dy), bz + 2.0 * (w * cz + dz)


def _totals(values, start=0.0) -> list:
    """``[start, start + v_0, ...]``, added left to right (from 3.12, ``sum`` is not)."""
    return list(accumulate(values, initial=start))


def _quaternions(segments):
    """The boundary record ``(times, quats, axes, durations)`` of ``segments``
    in plain floats: end times (:func:`_totals`), the boundary products B_k,
    k = 0..n, as unit quaternions ``(w, vx, vy, vz)`` with
    ``B_k = w I - i v . sigma``, axes and durations. Segment k is
    ``(cos(d/2), sin(d/2) n)`` and ``B_{k+1} = E_k B_k`` their :func:`_product`."""
    axes = [_unit_axis(seg.axis) for seg in segments]
    durations = [seg.duration for seg in segments]
    quats = [(1.0, 0.0, 0.0, 0.0)]
    for d, n in zip(durations, axes):
        c, s = math.cos(d / 2.0), math.sin(d / 2.0)
        quats.append(_product(c, *(s * x for x in n), quats[-1]))
    return _totals(durations), quats, axes, durations


def _reduced(s0, qubit: int) -> tuple:
    """The Pauli components ``(t, bx, by, bz)`` of the reduced state
    ``rho = (t I + b . sigma) / 2`` of qubit ``qubit`` (1 or 2) of the
    two-qubit state ``s0``, with ``b`` its Bloch vector and ``t = Tr rho``
    (1 up to rounding).

    With amplitudes ``a_ij``, keeping qubit 1 gives ``rho = A A+`` for
    ``A = [[a00, a01], [a10, a11]]``, keeping qubit 2 ``rho = A^T A*``:
    the diagonal is the two row (or column) weights and ``b_x - i b_y`` is
    twice the off-diagonal inner product.
    """
    a00, a01, a10, a11 = _floats(s0, complex)
    if qubit == 2:
        a01, a10 = a10, a01
    elif qubit != 1:
        raise DomainError("qubit must be 1 or 2")
    p0 = (a00.real * a00.real + a00.imag * a00.imag) + (a01.real * a01.real + a01.imag * a01.imag)
    p1 = (a10.real * a10.real + a10.imag * a10.imag) + (a11.real * a11.real + a11.imag * a11.imag)
    off = a00 * a10.conjugate() + a01 * a11.conjugate()
    return p0 + p1, 2.0 * off.real, -2.0 * off.imag, p0 - p1


def _exact_inputs(s0, schedule):
    """``(rho, bounds)`` of the exact core: ``_reduced`` of the evolved
    qubit and the boundary record ``_quaternions(schedule.segments)``."""
    return _reduced(s0, schedule.evolved_qubit), _quaternions(schedule.segments)


class ZeroTimes(Sequence):
    """Zero times held as runs ``start_k + tau + 2 pi m``, ``m < count``,
    so that a segment of many turns costs O(1) however many zeros it has.

    ``runs`` holds the :func:`_zero_runs` runs ``(k, tau, count)``, with
    ``k`` the segment index, and ``starts`` the segment start times;
    ``size`` is the number of zeros, also past ``sys.maxsize`` where
    ``len`` overflows. Takes integer indices and compares equal to any
    sequence of the same floats.
    """

    def __init__(self, starts, runs):
        self.starts = starts
        self.runs = runs
        self._ends = list(accumulate(n for _, _, n in runs))
        self.size = self._ends[-1] if runs else 0

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> float:
        j = range(self.size)[i]  # bounds and negative indices
        r = bisect_right(self._ends, j)
        k, tau, n = self.runs[r]
        return self.starts[k] + (tau + 2.0 * math.pi * (j - self._ends[r] + n))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _overlap(q, rho) -> tuple:
    """``Tr(B rho) = w t - i v . b`` for the unit quaternion ``q = (w, v)`` of
    ``B = w I - i v . sigma`` and ``rho = (t I + b . sigma) / 2`` given by
    its Pauli components ``(t, b)``; ``t = Tr rho`` is 1 up to rounding.
    Returned as its real and imaginary parts, of floats or numpy arrays."""
    w, vx, vy, vz = q
    t, bx, by, bz = rho
    return w * t, 0.0 - (vx * bx + vy * by + vz * bz)  # never -0.0


def _final_overlap(rho, bounds) -> complex:
    """``<s0|U_T|s0> = Tr(B_n rho)`` of the reduced state ``rho`` on the
    boundary record ``bounds`` (see :func:`_exact_inputs`), read from the
    final boundary quaternion (see :func:`_overlap`)."""
    return complex(*_overlap(bounds[1][-1], rho))


def _overlap_phase(z: complex) -> float:
    return math.nan if abs(z) <= ORTHOGONALITY_EPS else principal(cmath.phase(z))


def _slope(n, q, rho) -> complex:
    """``Tr((n . sigma) B rho) = w n . b + (n x v) . b - i (n . v) t``."""
    w, vx, vy, vz = q
    nx, ny, nz = n
    t, bx, by, bz = rho
    return complex(w * (nx * bx + ny * by + nz * bz) + (ny * vz - nz * vy) * bx
                   + (nz * vx - nx * vz) * by + (nx * vy - ny * vx) * bz,
                   -(nx * vx + ny * vy + nz * vz) * t)


def _zero_runs(rho, bounds) -> list:
    """The times in (0, T) where ``Tr(U(t) rho)`` passes through zero, as
    ``(k, tau, count)`` runs of zeros ``t_k + tau + 2 pi m``, ``m < count``,
    on segment k; the counts sum to the number of crossings. Exact and in
    one pass over the segments; ``rho`` is the Pauli components
    ``(t, bx, by, bz)`` of ``rho = (t I + b . sigma) / 2`` and ``bounds``
    is the boundary record :func:`_quaternions`.

    On segment k, ``U(t_k + tau) = exp(-i tau (n_k . sigma) / 2) B_k``, so
    the overlap is ``z(tau) = a cos(tau/2) + b sin(tau/2)`` with
    ``a = Tr(B_k rho)`` and ``b = -i Tr((n_k . sigma) B_k rho)``, both in
    closed form on the quaternion of ``B_k``, and
    ``|z|^2 = P + R cos(tau - phi)`` has its minima, all of depth
    ``P - R``, at ``tau = phi + pi + 2 pi m``. Interior minima with
    ``|z| <= CROSSING_EPS`` are crossings, counted by arithmetic rather
    than one by one. A zero at a junction counts once: as a crossing when
    the one-sided slopes agree,
    ``Re(z'_L conj z'_R) > ORTHOGONALITY_EPS |z'_L| |z'_R|``, else as a
    tangential touch; slopes at right angles, whose product rounding puts
    on either side of 0, are a touch. Segments on which ``z`` vanishes throughout join
    their junctions into one zero, judged by the slopes on entering and
    on leaving it. A zero at the schedule's end is not a crossing. With
    ``rho = I/2``, components ``(1, 0, 0, 0)``, the overlap is
    ``Re(Tr U)/2``, whose zeros are the rotation-ball border crossings.
    """
    _, quats, axes, durations = bounds
    zs = [complex(*_overlap(q, rho)) for q in quats]
    at_zero = [abs(z) <= CROSSING_EPS for z in zs]
    runs = []
    entered = None  # (segment, slope factor) where the current zero began
    for k, (n, d) in enumerate(zip(axes, durations)):
        c = _slope(n, quats[k], rho)  # z'(0) = -i c / 2
        if k and at_zero[k] and entered is None:
            entered = (k, _slope(axes[k - 1], quats[k], rho))
        if entered is not None:
            if abs(c) <= CROSSING_EPS:
                continue  # z vanishes on this whole segment
            e = entered[1]
            if (e * c.conjugate()).real > ORTHOGONALITY_EPS * abs(e) * abs(c):
                runs.append((entered[0], 0.0, 1))
            entered = None
        a, b = zs[k], -1j * c
        tau = math.atan2((a * b.conjugate()).real, 0.5 * (abs(a) ** 2 - abs(b) ** 2))
        tau += math.pi  # the first minimum, in (0, 2 pi]
        z = a * math.cos(0.5 * tau) + b * math.sin(0.5 * tau)
        if tau >= d or abs(z) > CROSSING_EPS:
            continue  # every minimum has the same |z|
        # zeros are 2 pi apart: a minimum within pi of a zero junction is
        # that junction's zero
        last = math.ceil((d - tau) / (2.0 * math.pi)) - 1
        lo = int(at_zero[k] and tau < math.pi)
        hi = last - int(at_zero[k + 1] and tau + 2.0 * math.pi * last > d - math.pi)
        if hi >= lo:
            runs.append((k, tau + 2.0 * math.pi * lo, hi - lo + 1))
    return runs


class PhaseBreakdown(_Frozen):
    """Phase decomposition of one cyclic run, in radians.

    ``total`` and ``geometric`` are principal values in (-pi, pi];
    ``dynamical`` is the unwrapped integral ``-int <H> dt``, which may lie
    outside it. ``closure_residual`` is the mod-2pi distance of
    ``total - dynamical - geometric`` from zero; the exact geometric
    form closes by construction, so it reads rounding. For degenerate runs
    (maximally entangled input, where the geometric phase is reported as
    the flagged value 0) it is NaN. Immutable, and equal to another
    breakdown with the same field values (never to a plain tuple).
    """

    __slots__ = ("total", "dynamical", "geometric", "crossings", "parity", "degenerate",
                 "closure_residual")

    def __init__(self, total, dynamical, geometric, crossings, parity, degenerate,
                 closure_residual):
        _set(self, "total", total)
        _set(self, "dynamical", dynamical)
        _set(self, "geometric", geometric)
        _set(self, "crossings", crossings)
        _set(self, "parity", parity)
        _set(self, "degenerate", degenerate)
        _set(self, "closure_residual", closure_residual)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


def _dynamical_fold(rho, bounds) -> tuple[list, list]:
    """``(rates, ends)``: the per-segment rates ``-(1/2) n_k . b_k``, with ``b_k``
    the Bloch vector of ``rho`` :func:`_rotated` by ``B_k``, and the dynamical
    phase at every segment end, ``[0.0, ..., dyn]``, one :func:`_totals` fold
    of ``rate_k * d_k``; ``bounds`` is the boundary record :func:`_quaternions`.

    Each segment's generator commutes with its own evolution, so its
    expectation is constant within the segment; segment k contributes
    ``rate_k * d_k`` to the dynamical phase. A maximally mixed reduced
    state (``b = 0``) has rates of exactly 0.
    """
    quats, axes, durations = bounds[1:]
    rates = []
    for (nx, ny, nz), q in zip(axes, quats):
        bx, by, bz = _rotated(q, rho[1:])
        rates.append(DYNAMICAL_SIGN * 0.5 * (nx * bx + ny * by + nz * bz))
    return rates, _totals(r * d for r, d in zip(rates, durations))


def _dynamical(rho, bounds) -> float:
    return _dynamical_fold(rho, bounds)[1][-1]


def dynamical_phase(s0, schedule) -> float:
    """``-sum_k <H_k> dt_k``, exact per segment: ``-(1/2) (axis . bloch at
    segment start) * duration`` summed over the segments."""
    return _dynamical(*_exact_inputs(s0, schedule))


def _geometric(w: float, z: complex, rho, dyn: float) -> float:
    """``principal(sum_i w_i a_i - dyn)`` on the eigenstates ``+-b/r`` of
    ``rho = (t I + b . sigma) / 2``, with weights ``(t +- r)/2`` and
    ``<v+-|B|v+-> = w -+ i v . b/r`` for ``B = (w, v)`` and
    ``z = Tr(B rho) = w t - i v . b`` (see :func:`_overlap`); the dynamical
    phase is linear in the density matrix, so the eigenstates' own
    ``w_i dyn_i`` sum to ``dyn``, the mixed state's."""
    t, bx, by, bz = rho
    r = math.sqrt(bx * bx + by * by + bz * bz)
    if r <= 1e-9:  # the eigenvalue gap of rho is r
        raise DegenerateSpectrum(f"eigenvalue gap {r:.3e} is <= 1e-9")
    # one shared reference, so that at U_T = -I both eigenstate args land
    # on the same side of the +-pi cut as the mixed total phase
    tot = principal(cmath.phase(z))
    weighted = 0.0
    for sign in (1.0, -1.0):
        zi = complex(w, sign * z.imag / r)  # w -+ i v . b / r
        if abs(zi) <= ORTHOGONALITY_EPS:
            raise OrthogonalStep("an eigenstate ends orthogonal to its start")
        arg = principal(cmath.phase(zi))
        weighted += 0.5 * (t + sign * r) * (tot + principal(arg - tot))
    return principal(weighted - dyn)


def geometric_phase_mixed(s0, schedule) -> float:
    """Weighted sum of the two purified eigenstate geometric phases along
    the schedule, reported in (-pi, pi]; exact and O(segments).

    Each eigenstate ``v_i`` of the evolved qubit's initial reduced density
    matrix contributes its Pancharatnam open-path phase
    ``arg <v_i|B_n|v_i> - dyn_i``, the limit of the overlap-product phase
    of its transported path as the mesh refines, with ``dyn_i`` its exact
    dynamical phase. A bare ``arg`` is only defined mod 2pi, which is not
    enough for a weighted sum, so both eigenstate args are taken on the
    branch nearest the mixed total phase ``arg Tr(B_n rho)``.
    Raises DegenerateSpectrum for a maximally entangled input (no
    eigenvalue gap) and OrthogonalStep when an eigenstate ends orthogonal
    to its start.
    """
    rho, bounds = _exact_inputs(s0, schedule)
    return _geometric(bounds[1][-1][0], _final_overlap(rho, bounds), rho, _dynamical(rho, bounds))


def _crossings(runs) -> tuple[int, str]:
    """The crossing count and parity of the :func:`_zero_runs` ``runs``."""
    count = sum(n for _, _, n in runs)
    return count, ("odd" if count % 2 else "even")


def topological_crossings(s0, schedule) -> tuple[int, str]:
    """Count of transversal zeros of ``<psi(0)|psi(t)>`` along the path and
    its parity, ``"even"`` or ``"odd"``; exact (see :func:`_zero_runs`)."""
    return _crossings(_zero_runs(*_exact_inputs(s0, schedule)))


def _breakdown(rho, bounds) -> PhaseBreakdown:
    """:func:`phase_breakdown` of the reduced state ``rho`` (Pauli
    components, see :func:`_reduced`) on the boundary record ``bounds``
    (:func:`_quaternions`); ``sweep`` builds ``bounds`` once for its whole
    grid."""
    v = _final_overlap(rho, bounds)
    if abs(abs(v) - 1.0) > CYCLIC_EPS:
        raise NotCyclic(f"final overlap magnitude {abs(v):.9f} differs from 1 beyond 1e-6")
    total = principal(cmath.phase(v))
    dyn = _dynamical(rho, bounds)
    try:
        geo = _geometric(bounds[1][-1][0], v, rho, dyn)
        degenerate = False
        residual = abs(principal(total - dyn - geo))
    except DegenerateSpectrum:
        geo = 0.0
        degenerate = True
        residual = math.nan
    count, parity = _crossings(_zero_runs(rho, bounds))
    return PhaseBreakdown(total, dyn, geo, count, parity, degenerate, residual)


def phase_breakdown(s0, schedule) -> PhaseBreakdown:
    """Assemble total, dynamical, geometric phases and crossing data for a
    cyclic schedule, exactly and in O(segments) from the boundary products.

    Raises NotCyclic when the evolution does not return the initial ray
    (final overlap magnitude differs from 1 by more than 1e-6). For a
    maximally entangled input the geometric phase is reported as 0 with
    ``degenerate=True`` and a NaN closure residual.
    """
    return _breakdown(*_exact_inputs(s0, schedule))


def _click_probability(v: complex) -> float:
    """``(1 - Re v) / 2`` clipped to [0, 1], for the final overlap ``v``."""
    return min(1.0, max(0.0, 0.5 * (1.0 - v.real)))


def readout_probability(s0, schedule) -> float:
    """Ancilla click probability of the conditional-rotation interferometer,
    ``(1 - Re <s0|U_total|s0>) / 2`` (equal to ``||(U - I)|s0>||^2 / 4``),
    with ``<s0|U_total|s0>`` from :func:`_final_overlap`."""
    return _click_probability(_final_overlap(*_exact_inputs(s0, schedule)))
