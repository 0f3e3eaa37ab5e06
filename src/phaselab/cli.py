"""Command-line front end: run, breakdown, sweep, readout.

Standard output carries short human summaries, except ``breakdown`` whose
contract is a single JSON object on stdout; machine-readable series go to
files named with ``--out``, never mixed with summaries. Numbers are
serialized with shortest round-trip precision (17 significant digits when
needed), so identical invocations produce byte-identical files. Undefined
phases appear as the literal ``nan`` in CSV and ``null`` in JSON. Angles
are radians throughout.

Exit codes: 0 success, 1 usage, 2 parse/validation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import NotCyclic, ParseError, PhaseLabError, ValidationError
from .phases import (
    DEFAULT_SAMPLES,
    _series_columns,
    phase_breakdown,
    readout_probability,
)
from .qstate import schmidt_state
from .schedule import RotationSchedule, RotationSegment, _number, parse_schedule

RUN_FIELDS = [
    "t",
    "sp_re",
    "sp_im",
    "phase_total_principal",
    "phase_total_unwrapped",
    "phase_dyn",
    "bloch_x",
    "bloch_y",
    "bloch_z",
    "so3_ax",
    "so3_ay",
    "so3_az",
    "so3_angle",
    "crossing_flag",
]

SWEEP_FIELDS = [
    "lambda0",
    "theta",
    "phi_total",
    "phi_dyn",
    "phi_geo",
    "crossings",
    "closure_residual",
]

_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _write_table(path, fields, cols, fmt="csv"):
    """Write equal-length columns as CSV or JSON rows, streamed with one
    %-template per row.

    Floats are written with shortest round-trip ``repr`` and ints as ints
    (``str`` of a Python float is its ``repr``). JSON matches ``json.dump``
    of a list of per-row objects, with NaN written as ``null``.
    """
    cols = [np.asarray(c) for c in cols]
    lists = [c.tolist() for c in cols]
    if fmt == "csv":
        head, sep, tail = ",".join(fields) + "\n", "", ""
        template = ",".join(["%s"] * len(fields)) + "\n"
    else:
        for c, values in zip(cols, lists):
            if c.dtype.kind == "f":
                for i in np.flatnonzero(~np.isfinite(c)).tolist():
                    values[i] = "null" if math.isnan(values[i]) else json.dumps(values[i])
        head, sep, tail = "[", ", ", "]\n"
        template = "{" + ", ".join(f"{json.dumps(f)}: %s" for f in fields) + "}"
    rows = zip(*lists)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head if first is None else head + template % first)
        later = sep + template
        fh.writelines(later % row for row in rows)
        fh.write(tail)


def _load(path) -> RotationSchedule:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schedule(fh.read())


def _cmd_run(args) -> int:
    sched = _load(args.schedule_file)
    cols, flags, crossings = _series_columns(sched.initial, sched, args.steps)
    final_mag = abs(complex(cols[1][-1], cols[2][-1]))
    if abs(final_mag - 1.0) > 1e-6:
        print(
            "warning: schedule is not cyclic (final overlap magnitude "
            f"{final_mag:.9f})",
            file=sys.stderr,
        )
    if args.out:
        _write_table(args.out, RUN_FIELDS, (*cols, flags), args.format)
    parity = "odd" if crossings.size % 2 else "even"
    print(f"final total phase: {float(cols[3][-1])!r}")
    print(f"crossings: {crossings.size} ({parity})")
    return 0


def _cmd_breakdown(args) -> int:
    sched = _load(args.schedule_file)
    payload = dict(vars(phase_breakdown(sched.initial, sched)))
    if math.isnan(payload["closure_residual"]):
        payload["closure_residual"] = None
    print(json.dumps(payload))
    return 0


def _parse_range(spec: str, name: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        a, b, n = _number(a), _number(b), _number(n, int)
    except ValueError:
        raise ValidationError(f"malformed {name} range {spec!r}; expected a:b:n") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"{name} range {spec!r} has a non-finite end")
    if not math.isfinite(b - a):
        raise ValidationError(f"{name} range {spec!r} spans past the largest float")
    if n < 1:
        raise ValidationError(f"{name} range count must be >= 1")
    return np.linspace(a, b, n)


def _cmd_sweep(args) -> int:
    lams = _parse_range(args.lambda0, "lambda0")
    thetas = _parse_range(args.theta, "theta")
    if np.any((lams < 0.0) | (lams > 1.0)):
        raise ValidationError("lambda0 range must stay within [0, 1]")
    if args.turns < 1:
        raise ValidationError("turns must be >= 1")
    axis = np.array(_AXES[args.axis])
    # an int past 2**1023 converts to no float, and 2 pi 2**1023 is already inf
    duration = 2.0 * math.pi * min(args.turns, 2**1023)
    if not math.isfinite(duration):
        raise ValidationError("turns too large: 2 pi turns overflows a float")
    rows = []
    for lam in lams:  # lambda0-major grid order
        for th in thetas:
            state = schmidt_state(float(lam), float(th))
            sched = RotationSchedule(
                (RotationSegment(axis.copy(), duration),), 1, state
            )
            b = phase_breakdown(state, sched)
            rows.append((lam, th, b.total, b.dynamical, b.geometric, b.crossings,
                         b.closure_residual))
    _write_table(args.out, SWEEP_FIELDS, list(zip(*rows)))
    print(f"wrote {len(rows)} grid points to {args.out}")
    return 0


def _cmd_readout(args) -> int:
    sched = _load(args.schedule_file)
    p = readout_probability(sched.initial, sched)
    print(f"click probability: {p!r}")
    print(f"|cos(total phase)|: {abs(1.0 - 2.0 * p)!r}")
    return 0


def _integer(text: str) -> int:
    try:
        return _number(text, int)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _steps(text: str) -> int:
    n = _integer(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {n}")
    return n


_EXACT_STEPS_HELP = ("samples per segment; accepted for compatibility and "
                     "ignored, since the decomposition is exact")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="phaselab",
        description="Run two-qubit rotation schedules and decompose the "
        "acquired global phase.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="emit the phase/geometry time series")
    run.add_argument("schedule_file")
    run.add_argument("--steps", type=_steps, default=DEFAULT_SAMPLES,
                     help="samples per segment, at least 2 (default 2000)")
    run.add_argument("--out", help="write the series to this file")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.set_defaults(func=_cmd_run)

    br = sub.add_parser("breakdown", help="print the phase decomposition as JSON")
    br.add_argument("schedule_file")
    br.add_argument("--steps", type=_steps, default=DEFAULT_SAMPLES,
                    help=_EXACT_STEPS_HELP)
    br.set_defaults(func=_cmd_breakdown)

    sw = sub.add_parser("sweep", help="fixed-axis grid sweep over (lambda0, theta)")
    sw.add_argument("--lambda0", required=True, metavar="A:B:N")
    sw.add_argument("--theta", required=True, metavar="A:B:M")
    sw.add_argument("--axis", choices=("x", "y", "z"), default="z")
    sw.add_argument("--turns", type=_integer, default=1)
    sw.add_argument("--steps", type=_steps, default=DEFAULT_SAMPLES,
                    help=_EXACT_STEPS_HELP)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=_cmd_sweep)

    rd = sub.add_parser("readout", help="interferometric click probability")
    rd.add_argument("schedule_file")
    rd.set_defaults(func=_cmd_readout)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotCyclic as exc:
        print(f"error: not cyclic: {exc}", file=sys.stderr)
        return 3
    except PhaseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
