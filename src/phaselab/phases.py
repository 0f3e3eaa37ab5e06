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
from dataclasses import dataclass

import numpy as np

from .core import (_TWO_PI, ORTHOGONALITY_EPS, ZeroTimes, _dynamical_fold, _exact_inputs,
                   _overlap, _overlap_phase, _rotated, _unit_axis, _zero_runs, principal)
from .errors import DomainError, OrthogonalStep
from .geometry import SO3Point, _ball
from .qstate import inner_product
from .schedule import DEFAULT_SAMPLES, RotationSchedule, _unitary_samples

__all__ = [
    "PhaseSample",
    "total_phase",
    "mixed_total_phase",
    "sp_formula",
    "geometric_phase_pure",
    "fixed_axis_closed_forms",
    "phase_samples",
]


@dataclass(frozen=True, eq=False)
class PhaseSample:
    """One time sample of a run: overlap, phases, Bloch and ball tracks.

    ``total_principal`` and ``total_unwrapped`` are NaN exactly when the
    overlap magnitude is at or below the orthogonality threshold. Equal
    only to itself, and hashed by identity.
    """

    time: float
    sp: complex
    total_principal: float
    total_unwrapped: float
    dyn: float
    bloch: np.ndarray
    so3: SO3Point


def total_phase(initial, current) -> float:
    """``arg <initial|current>`` in (-pi, pi]; NaN when the overlap
    magnitude is at or below 1e-9 (orthogonal states)."""
    return _overlap_phase(inner_product(initial, current))


def mixed_total_phase(u, rho) -> float:
    """``arg Tr(u rho)``; NaN when ``|Tr(u rho)| <= 1e-9``."""
    return _overlap_phase(
        complex(np.trace(np.asarray(u, dtype=complex) @ np.asarray(rho, dtype=complex))))


def sp_formula(t: float, axis, bloch) -> complex:
    """Closed-form overlap ``cos(t/2) - i (axis . bloch) sin(t/2)``.

    Valid for a single segment started from the reference state, with
    ``bloch`` the evolved qubit's reduced Bloch vector at the segment
    start; it then equals ``<psi(0)|psi(t)>`` exactly.
    """
    nx, ny, nz = _unit_axis(axis)
    bx, by, bz = map(float, bloch)
    return complex(math.cos(t / 2.0), -(nx * bx + ny * by + nz * bz) * math.sin(t / 2.0))


def geometric_phase_pure(path, closed: bool = True) -> float:
    """Discrete overlap-product phase of a pure-state path,
    ``-arg[<p0|p1><p1|p2> ... ]``, with the closing leg appended when
    ``closed``; reported in (-pi, pi].

    Gauge invariant by construction (per-state phase factors cancel
    between adjacent legs) and converges to minus half the enclosed
    signed solid angle as the mesh refines. Raises OrthogonalStep when
    consecutive states are orthogonal.
    """
    arr = np.asarray(path, dtype=complex)
    if arr.ndim != 2 or len(arr) < 3:
        raise DomainError("path must contain at least 3 states")
    legs = np.einsum("kj,kj->k", arr[:-1].conj(), arr[1:])
    if closed:
        legs = np.append(legs, np.vdot(arr[-1], arr[0]))
    if np.any(np.abs(legs) <= ORTHOGONALITY_EPS):
        raise OrthogonalStep("consecutive path states are orthogonal")
    return principal(-float(np.sum(np.angle(legs))))


def fixed_axis_closed_forms(lambda0: float, theta: float) -> tuple[float, float, float]:
    """Closed-form ``(phi_d, phi_g, phi_t)`` for one full turn about a
    fixed axis at parameters ``(lambda0, theta)``:

        phi_d = pi (2 lambda0 - 1) cos(theta)
        phi_g = pi + pi (1 - 2 lambda0) cos(theta)
        phi_t = pi

    These use the opposite overall sign convention to this engine, so the
    numerically computed dynamical phase equals ``-phi_d`` exactly and the
    computed geometric phase equals ``-phi_g`` modulo 2 pi.
    """
    if not 0.0 <= lambda0 <= 1.0:
        raise DomainError("lambda0 must lie in [0, 1]")
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


def _series_columns(rho, bounds, runs, samples_per_segment: int):
    """The sampled time series as columns: ``(columns, flags)``, of the
    reduced state ``rho`` on the boundary record ``bounds`` (see
    :func:`_exact_inputs`), with ``runs`` their :func:`_zero_runs`.

    ``columns`` holds 13 float arrays: time, overlap real and imaginary
    parts, principal and unwrapped total phase, dynamical phase, Bloch
    x, y, z, ball axis x, y, z and ball angle; ``flags`` (int array) marks
    the first sample at or after each zero of ``runs``.
    """
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
    rates, ends = _dynamical_fold(rho, bounds)
    dyn_vals = np.zeros(len(times))
    for k, rate in enumerate(rates):
        sl = slice(k * per + 1, (k + 1) * per)
        dyn_vals[sl] = ends[k] + rate * (times[sl] - times[k * per])
        dyn_vals[(k + 1) * per] = ends[k + 1]
    axes, ball_angles = _ball(quats[0], quats[1:].T)
    flags = np.zeros(len(times), dtype=int)
    for k, tau, n in runs:
        # every sample with a zero since the one before it is some zero's
        # first sample at or after; the zeros next to each sample of the
        # segment reach them all, however many turns it makes
        seg_t = times[k * per:(k + 1) * per + 1] - bounds[0][k] - tau
        m = np.floor(seg_t / _TWO_PI)[:, None] + np.array([-1.0, 0.0, 1.0])
        m = np.unique(np.clip(m, 0.0, float(n - 1)))
        idx = np.searchsorted(times, bounds[0][k] + (tau + _TWO_PI * m))
        flags[np.minimum(idx, len(times) - 1)] = 1
    columns = (times, sp_re, sp_im, principal_vals, _unwrap_skipnan(raw_vals),
               dyn_vals, *_rotated(quats, rho[1:]), *axes.T, ball_angles)
    return columns, flags


def phase_samples(
    s0, schedule: RotationSchedule, samples_per_segment: int = DEFAULT_SAMPLES
):
    """Full diagnostic time series along a schedule.

    Returns ``(samples, crossing_flags, crossing_times)`` where samples is
    a list of PhaseSample, crossing_flags marks the first sample at or
    after each crossing time, and crossing_times are the exact zero times
    of the initial-state overlap (the ones ``topological_crossings``
    counts, the :func:`~phaselab.core._zero_runs` runs), as a
    :class:`~phaselab.core.ZeroTimes` sequence.
    """
    rho, bounds = _exact_inputs(s0, schedule)
    runs = _zero_runs(rho, bounds)
    cols, flags = _series_columns(rho, bounds, runs, samples_per_segment)
    t, re, im, tot, unw, dyn, bx, by, bz, ax, ay, az, angle = (c.tolist() for c in cols)
    samples = [
        PhaseSample(t[i], complex(re[i], im[i]), tot[i], unw[i], dyn[i],
                    np.array([bx[i], by[i], bz[i]]),
                    SO3Point(np.array([ax[i], ay[i], az[i]]), angle[i]))
        for i in range(len(t))
    ]
    return samples, flags.tolist(), ZeroTimes(bounds[0], runs)
