"""Phase decomposition along rotation schedules.

A single sign convention is used throughout: the dynamical phase is
``-integral <H> dt`` with ``H = (axis . sigma)/2`` acting on the evolved
qubit. Overlap phases are principal values in (-pi, pi]. Phases at
orthogonality (overlap magnitude <= 1e-9) are NaN, a first-class value
rather than an exception: time series must be able to represent the
discontinuities where the evolving state becomes orthogonal to the
initial one.

Textbook-orientation closed forms for one full turn about a fixed axis
are provided by :func:`fixed_axis_closed_forms`; they carry the opposite
overall sign to this engine's convention, and all identities between the
two hold modulo 2 pi.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (_TWO_PI, ORTHOGONALITY_EPS, ZeroTimes, _exact_inputs, _Frozen, _overlap,
                   _overlap_phase, _rotated, _scan, _schmidt_pair, _zero_offset)
from .geometry import _ball
from .qstate import inner_product
from .schedule import DEFAULT_SAMPLES, RotationSchedule, _unitary_samples

__all__ = [
    "PhaseSeries",
    "total_phase",
    "fixed_axis_closed_forms",
    "phase_samples",
]


class PhaseSeries(_Frozen):
    """The sampled time series of a run as columns, one row per sample:
    the 14 columns ``run --out`` writes, under its names, and ``crossings``.

    ``t`` is the time; ``sp_re`` and ``sp_im`` the overlap
    ``Tr(U rho)``; ``phase_total_principal`` and ``phase_total_unwrapped``
    its phase, NaN exactly when its magnitude is at or below the
    orthogonality threshold; ``phase_dyn`` the dynamical phase;
    ``bloch_x``, ``bloch_y``, ``bloch_z`` the evolved qubit's Bloch vector;
    ``so3_ax``, ``so3_ay``, ``so3_az`` and ``so3_angle`` the rotation-ball
    point of ``U``; ``crossing_flag`` (ints) marks the first sample at or
    after each zero time in ``crossings``, a
    :class:`~phaselab.core.ZeroTimes`. All other columns are float arrays.
    Equal only to itself, and hashed by identity.
    """

    __slots__ = ("t", "sp_re", "sp_im", "phase_total_principal", "phase_total_unwrapped",
                 "phase_dyn", "bloch_x", "bloch_y", "bloch_z", "so3_ax", "so3_ay", "so3_az",
                 "so3_angle", "crossing_flag", "crossings")


def total_phase(initial, current) -> float:
    """``arg <initial|current>`` of two two-qubit states (see
    :func:`~phaselab.qstate.inner_product`) in (-pi, pi]; NaN when the overlap
    magnitude is at or below 1e-9 (orthogonal states)."""
    return _overlap_phase(inner_product(initial, current))


def fixed_axis_closed_forms(lambda0: float, theta: float) -> tuple[float, float, float]:
    """Closed-form ``(phi_d, phi_g, phi_t)`` for one full turn about a
    fixed axis at parameters ``(lambda0, theta)``:

        phi_d = pi (2 lambda0 - 1) cos(theta)
        phi_g = pi + pi (1 - 2 lambda0) cos(theta)
        phi_t = pi

    These use the opposite overall sign convention to this engine, so the
    numerically computed dynamical phase equals ``-phi_d`` exactly and the
    computed geometric phase equals ``-phi_g`` modulo 2 pi. DomainError
    unless ``lambda0`` is a real number in [0, 1] and ``theta`` a finite one.
    """
    lambda0, theta = _schmidt_pair(lambda0, theta)
    k = (2.0 * lambda0 - 1.0) * math.cos(theta)
    return math.pi * k, math.pi - math.pi * k, math.pi


def _unwrap_skipnan(p: np.ndarray) -> np.ndarray:
    """Minimal-jump unwrap of principal values in [-pi, pi], carried
    through NaN gaps.

    Each defined increment is wrapped into (-pi, pi] before accumulation;
    a jump of exactly pi, as happens across an orthogonality crossing,
    therefore survives as +pi. Increments lie in [-2pi, 2pi], so the wrap
    is ``d - 2pi`` above pi and ``d + 2pi`` at or below -pi, each exact
    (Sterbenz) as ``principal`` is; ``cumsum`` adds in order, so the
    values are those of the sequential loop.
    """
    out = np.full(len(p), math.nan)
    defined = ~np.isnan(p)
    v = p[defined]
    if v.size:
        d = np.diff(v)
        d[d > math.pi] -= _TWO_PI
        d[d <= -math.pi] += _TWO_PI
        out[defined] = np.cumsum(np.concatenate((v[:1], d)))
    return out


def _series_columns(rho, bounds, rates, ends, runs, samples_per_segment: int) -> PhaseSeries:
    """The :class:`PhaseSeries` of the reduced state ``rho`` on the
    boundary record ``bounds`` (see :func:`_exact_inputs`), with ``rates``,
    ``ends`` and ``runs`` their :func:`~phaselab.core._scan`."""
    times, quats = _unitary_samples(bounds, samples_per_segment)
    # Tr(U rho) with the core's abs and atan2 (numpy's differ in the last
    # bit): the last phase is the exact total bit for bit. The principal
    # column folds -pi onto pi; the unwrap takes the raw angles, since
    # unwrapping folded ones moves its sums by ulps
    sp_re, sp_im = _overlap(quats, rho)
    defined = np.hypot(sp_re, sp_im) > ORTHOGONALITY_EPS
    angles = map(math.atan2, sp_im.tolist(), sp_re.tolist())
    raw_vals = np.where(defined, np.fromiter(angles, float, len(times)), math.nan)
    principal_vals = np.where(raw_vals == -math.pi, math.pi, raw_vals)
    # segment k's samples go on from the core's fold at its start; its last is the fold at its end
    per = samples_per_segment - 1
    dyn_vals = np.zeros(len(times))
    for k, rate in enumerate(rates):
        sl = slice(k * per + 1, (k + 1) * per)
        dyn_vals[sl] = ends[k] + rate * (times[sl] - times[k * per])
        dyn_vals[(k + 1) * per] = ends[k + 1]
    axes, ball_angles = _ball(quats[0], quats[1:])
    flags = np.zeros(len(times), dtype=int)
    for k, tau, n in runs:
        # every sample with a zero since the one before it is some zero's
        # first sample at or after; the zeros next to each sample of the
        # segment reach them all, however many turns it makes
        seg_t = times[k * per:(k + 1) * per + 1] - bounds[0][k] - tau
        m = np.floor(seg_t / _TWO_PI)[:, None] + np.array([-1.0, 0.0, 1.0])
        m = np.unique(np.clip(m, 0.0, float(n - 1)))
        idx = np.searchsorted(times, bounds[0][k] + _zero_offset(tau, m))
        flags[np.minimum(idx, len(times) - 1)] = 1
    return PhaseSeries(times, sp_re, sp_im, principal_vals, _unwrap_skipnan(raw_vals),
                       dyn_vals, *_rotated(quats, rho[1:]), *axes, ball_angles, flags,
                       ZeroTimes(bounds[0], runs))


def phase_samples(schedule: RotationSchedule,
                  samples_per_segment: int = DEFAULT_SAMPLES) -> PhaseSeries:
    """Full diagnostic time series of ``schedule.initial`` along ``schedule``,
    as a :class:`PhaseSeries`: ``samples_per_segment`` samples per segment,
    a junction sample shared, and ``crossings`` the exact zero times of the
    initial-state overlap (the ones ``topological_crossings`` counts, the
    :func:`~phaselab.core._scan` runs).
    """
    rho, bounds = _exact_inputs(schedule)
    return _series_columns(rho, bounds, *_scan(rho, bounds)[1:], samples_per_segment)
