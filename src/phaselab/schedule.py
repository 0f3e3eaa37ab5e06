"""Rotation schedules: ordered fixed-axis segments acting on one qubit.

Includes the two builtin four-segment trajectory tables, a line-oriented
schedule file format, and exact cumulative-unitary sampling (segment
boundaries never accumulate sampling drift).

File format (one directive per line, ``#`` starts a comment, keywords are
case sensitive)::

    phaselab-schedule v1
    state schmidt <lambda0> <theta>
    state amplitudes <re im re im re im re im>
    evolve-qubit <1|2>
    segment <nx> <ny> <nz> <duration>
    builtin <plus|minus>

Numbers are finite ASCII decimals: an optional sign, digits with an
optional fraction and an optional exponent (``-1``, ``.5``, ``2.``,
``1e-3``); ``inf``, ``nan``, digit-group underscores and non-ASCII digits
are rejected. ``segment`` axes are normalized by the parser;
an axis shorter than 1e-3 is rejected. Durations are rotation angles in
radians and must be positive, and their running total must stay finite.
The ``evolve-qubit`` directive defaults to qubit 1 when omitted.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right

from .core import (_divided, _floats, _Frozen, _product, _quaternions, _real, _reduced,
                   _rescaled, _schedule_fields, _schmidt, _set, _totals, _two_qubit)
from .errors import DomainError, NotSpecialUnitary, ParseError, ValidationError, ZeroNorm

__all__ = [
    "HEADER",
    "DEFAULT_SAMPLES",
    "RotationSegment",
    "RotationSchedule",
    "builtin_plus",
    "builtin_minus",
    "parse_schedule",
    "serialize_schedule",
    "unitary_at",
    "total_duration",
]

HEADER = "phaselab-schedule v1"
#: Samples per segment of the sampled time series (``phase_samples``).
DEFAULT_SAMPLES = 2000

_BUILTIN_STEP = 2.0 * math.pi / 3.0
_DIAG = math.sqrt(1.0 / 3.0)
_PLUS_TABLE = ((-1, -1, -1), (1, -1, -1), (-1, -1, 1), (-1, 1, 1))
_MINUS_TABLE = ((-1, -1, -1), (1, -1, -1), (-1, -1, -1), (1, -1, -1))


class RotationSegment(_Frozen):
    """One fixed-axis rotation: unit axis, duration = rotation angle > 0.

    ``axis`` is held as a tuple of three floats and ``duration`` as a float;
    any sequence of numbers (any real number for ``duration``), an ndarray
    or numpy scalar too, is converted, and any other value, a string or bytes
    whole or as an item too, raises DomainError. The exact functions check
    the axis length and the duration's range. Immutable; equal only to itself.
    """

    __slots__ = ("axis", "duration")

    def __init__(self, axis, duration):
        _set(self, "axis", _floats(axis))
        _set(self, "duration", _real(duration, "duration"))


class RotationSchedule(_Frozen):
    """Ordered segments acting on one designated qubit of an initial state.

    A schedule owns its initial state, so a schedule file is a complete,
    reproducible experiment description. Immutable; equal only to itself.
    ``initial`` holds four complex amplitudes, converted from any sequence of numbers,
    an ndarray too; any other value, a string or bytes whole or as an item too, raises
    DomainError. ``segments`` must be a sequence (not a one-shot iterator), read where used.
    """

    __slots__ = ("segments", "evolved_qubit", "initial")

    def __init__(self, segments, evolved_qubit, initial):
        _set(self, "segments", segments)
        _set(self, "evolved_qubit", evolved_qubit)
        _set(self, "initial", _floats(initial, complex))


def builtin_plus() -> list[RotationSegment]:
    """Four-segment table whose closed loop stays in the trivial homotopy
    class (touches the ball border without crossing it)."""
    return [RotationSegment([_DIAG * x for x in a], _BUILTIN_STEP) for a in _PLUS_TABLE]


def builtin_minus() -> list[RotationSegment]:
    """Four-segment table whose closed loop crosses the ball border once,
    picking up the extra half-turn of the double cover."""
    return [RotationSegment([_DIAG * x for x in a], _BUILTIN_STEP) for a in _MINUS_TABLE]


def _number(token: str, kind=float):
    """``kind(token)`` for a token of the documented grammar: an optional
    sign and digits, then for floats an optional fraction and exponent.
    Spellings of inf and nan pass as floats, for callers to reject with
    their own messages; any other token raises ValueError. Beyond the grammar,
    ``float`` and ``int`` take only digit-group underscores, non-ASCII digits,
    surrounding whitespace and those spellings: an ASCII token without ``_``
    or surrounding whitespace that they take is of the grammar or non-finite."""
    x = kind(token)
    if (token.isascii() and "_" not in token and token.strip() == token
            or kind is float and not math.isfinite(x)):
        return x
    raise ValueError(f"not a number of the documented grammar: {token!r}")


def _float(token: str, lineno: int) -> float:
    try:
        x = _number(token)
    except ValueError:
        raise ParseError(lineno, f"not a number: {token!r}") from None
    if not math.isfinite(x):
        raise ParseError(lineno, f"not a finite number: {token!r}")
    return x


def _parse_state(fields, lineno):
    if len(fields) < 2:
        raise ParseError(lineno, "state needs a kind: 'schmidt' or 'amplitudes'")
    kind = fields[1]
    if kind == "schmidt":
        if len(fields) != 4:
            raise ParseError(lineno, "state schmidt takes <lambda0> <theta>")
        lam = _float(fields[2], lineno)
        theta = _float(fields[3], lineno)
        if not 0.0 <= lam <= 1.0:
            raise ValidationError("lambda0 must lie in [0, 1]", line=lineno)
        return _schmidt(lam, theta)
    if kind == "amplitudes":
        if len(fields) != 10:
            raise ParseError(lineno, "state amplitudes takes 8 numbers (re im, four times)")
        vals = [_float(tok, lineno) for tok in fields[2:]]
        amps = [complex(vals[i], vals[i + 1]) for i in range(0, 8, 2)]
        try:
            return _two_qubit(amps)
        except ZeroNorm as exc:
            raise ValidationError(str(exc), line=lineno) from None
    raise ParseError(lineno, f"unknown state kind {kind!r}")


def _parse_segment(fields, lineno) -> RotationSegment:
    if len(fields) != 5:
        raise ParseError(lineno, "segment takes <nx> <ny> <nz> <duration>")
    nx, ny, nz, dur = (_float(tok, lineno) for tok in fields[1:])
    axis = _rescaled((nx, ny, nz))
    norm = math.hypot(*axis)
    if norm < 1e-3:
        raise ValidationError("axis too short to normalize", line=lineno)
    if not dur > 0.0:
        raise ValidationError("duration must be positive", line=lineno)
    return RotationSegment(_divided(axis, norm), dur)


def parse_schedule(text: str) -> RotationSchedule:
    """Parse schedule text into a validated RotationSchedule.

    ParseError (carrying the line number) flags malformed syntax;
    ValidationError flags semantic problems: axis too short to normalize,
    lambda0 outside [0, 1], non-positive duration, durations summing past
    the largest float, missing or duplicate state declaration.
    """
    initial = None
    qubit = 1
    segments: list[RotationSegment] = []
    end = 0.0  # total duration so far, summed as _quaternions sums it
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != HEADER:
                raise ParseError(lineno, f"expected {HEADER!r} header")
            header_seen = True
            continue
        fields = line.split()
        key = fields[0]
        if key == "segment":
            added = [_parse_segment(fields, lineno)]
        elif key == "builtin":
            if len(fields) != 2 or fields[1] not in ("plus", "minus"):
                raise ParseError(lineno, "builtin takes 'plus' or 'minus'")
            added = builtin_plus() if fields[1] == "plus" else builtin_minus()
        elif key == "state":
            if initial is not None:
                raise ValidationError("duplicate state declaration", line=lineno)
            initial = _parse_state(fields, lineno)
            continue
        elif key == "evolve-qubit":
            if len(fields) != 2:
                raise ParseError(lineno, "evolve-qubit takes exactly one argument")
            if fields[1] not in ("1", "2"):
                raise ValidationError("evolved qubit must be 1 or 2", line=lineno)
            qubit = int(fields[1])
            continue
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")
        segments.extend(added)
        end = _totals((seg.duration for seg in added), end)[-1]
        if not math.isfinite(end):
            raise ValidationError("durations sum past the largest float", line=lineno)
    if not header_seen:
        raise ParseError(1, f"empty schedule; expected {HEADER!r} header")
    if initial is None:
        raise ValidationError("missing state declaration")
    return RotationSchedule(tuple(segments), qubit, initial)


def serialize_schedule(schedule: RotationSchedule) -> str:
    """Canonical text form of ``schedule`` as the exact functions read it: its state and
    axes scaled to unit length, its evolved qubit ``1`` or ``2``, floats in shortest
    round-trip notation. Raises what they raise on ``schedule`` (DomainError, ZeroNorm).
    ``parse_schedule`` reads these values back bit for bit, so
    ``parse_schedule(serialize_schedule(s))`` reproduces a parsed ``s`` bitwise."""
    segments, qubit, initial = _schedule_fields(schedule)
    state = _two_qubit(initial)
    _reduced(state, qubit)  # DomainError unless the qubit is 1 or 2
    _, _, axes, durations = _quaternions(segments)
    amps = " ".join(repr(part) for a in state for part in (a.real, a.imag))
    lines = [HEADER, f"state amplitudes {amps}", f"evolve-qubit {2 if qubit == 2 else 1}"]
    for axis, duration in zip(axes, durations):
        lines.append(f"segment {' '.join(map(repr, axis))} {duration!r}")
    return "\n".join(lines) + "\n"


def total_duration(schedule: RotationSchedule) -> float:
    """The end time of the boundary record ``core._quaternions``; DomainError as it raises."""
    return _quaternions(_schedule_fields(schedule)[0])[0][-1]


def _unitary_samples(bounds, samples_per_segment: int):
    """Sampled times (M,) and cumulative unitaries ``w I - i v . sigma`` as
    a (4, M) array of quaternion columns ``(w, vx, vy, vz)``.

    Segment k of the boundary record ``bounds`` (``core._quaternions``) adds
    ``samples_per_segment - 1`` samples ``(cos(tau/2), sin(tau/2) n_k) B_k``,
    the last the exact boundary quaternion at any sampling density. Raises
    DomainError unless ``samples_per_segment`` is an integer >= 2 and the
    samples fit in memory, NotSpecialUnitary when ``det = w^2 + v . v`` of
    one differs from 1 by more than 1e-9.
    """
    import numpy as np

    try:
        per = operator.index(samples_per_segment) - 1
    except TypeError:
        raise DomainError(f"samples_per_segment must be an integer, got "
                          f"{type(samples_per_segment).__name__}") from None
    if per < 1:
        raise DomainError("samples_per_segment must be >= 2")
    bt, bq, axes, durations = bounds
    size = len(durations) * per + 1
    try:
        times, quats = np.empty(size), np.empty((4, size))
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array
        raise DomainError(f"{size} samples do not fit in memory") from None
    times[0], quats[:, 0] = 0.0, bq[0]
    for k, (d, (nx, ny, nz)) in enumerate(zip(durations, axes)):
        # the last sample is the segment end, never per * (d / per), which can round past it
        delta = d / per
        offs = delta * np.arange(1, per)
        half = 0.5 * offs
        s = np.sin(half)
        block = slice(k * per + 1, (k + 1) * per)
        quats[:, block] = _product(np.cos(half), s * nx, s * ny, s * nz, bq[k])
        np.add(bt[k], offs, out=times[block])
        times[block.stop], quats[:, block.stop] = bt[k + 1], bq[k + 1]
    if np.any(np.abs((quats * quats).sum(axis=0) - 1.0) > 1e-9):
        raise NotSpecialUnitary("det U = w^2 + v . v differs from 1 by more than 1e-9")
    return times, quats


def unitary_at(schedule: RotationSchedule, t: float):
    """Cumulative unitary (a 2x2 ndarray) at an arbitrary time along the
    schedule; times before 0 or past the end give the first or last
    boundary product, and NaN raises DomainError."""
    from .qstate import _su2_matrix

    t = _real(t, "t")
    if math.isnan(t):
        raise DomainError(f"time {t} is not a number")
    bt, bq, axes, _ = _quaternions(_schedule_fields(schedule)[0])
    if not 0.0 < t < bt[-1]:
        return _su2_matrix(bq[0] if t <= 0.0 else bq[-1])
    k = bisect_right(bt, t) - 1
    half = (t - bt[k]) / 2.0
    s = math.sin(half)
    return _su2_matrix(_product(math.cos(half), *(s * x for x in axes[k]), bq[k]))
