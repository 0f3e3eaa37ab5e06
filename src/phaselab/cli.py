"""Command-line front end: run, breakdown, sweep, readout.

Standard output carries short human summaries, except ``breakdown`` whose
contract is a single JSON object on stdout; machine-readable series go to
files named with ``--out``, never mixed with summaries. Numbers are
serialized with shortest round-trip precision (17 significant digits when
needed), so identical invocations produce byte-identical files. Undefined
phases appear as the literal ``nan`` in CSV and ``null`` in JSON. Angles
are radians throughout.

Exit codes: 0 success, 1 usage, 2 parse/validation, 3 numeric failure or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .core import (CYCLIC_EPS, _breakdown, _click_probability, _crossings, _exact_inputs,
                   _final_overlap, _overlap_phase, _quaternions, _reduced, _schmidt, _zero_runs,
                   phase_breakdown)
from .errors import NotCyclic, ParseError, PhaseLabError, ValidationError
from .schedule import (DEFAULT_SAMPLES, RotationSchedule, RotationSegment, _number,
                       parse_schedule)

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


# A table is written in blocks of this many rows, so the writer holds the
# cells of one block, never the whole table, as strings.
_BLOCK_ROWS = 1024
# orjson formats floats about 15x faster than ``repr``, but importing it
# takes 8-11 ms (it loads datetime, uuid, zoneinfo, platform and sysconfig)
# against ``repr``'s 0.7-1.0 us a cell (Python 3.11, 2 cores of a Xeon
# host): it pays from about 10**4 cells on, and 2**14 leaves a margin.
# Every ``run --out`` at the default --steps writes more, and ``sweep`` on
# the README grid (693 cells) and the exact commands never import it.
_FAST_CELLS = 2**14
# each format's spelling of the non-finite floats, keyed by repr's
_NONFINITE = {"csv": {"nan": "nan", "inf": "inf", "-inf": "-inf"},
              "json": {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}}


@functools.cache
def _orjson_dumps():
    """orjson's ``dumps`` of numpy arrays and lists, or None without orjson."""
    try:
        import orjson
    except ImportError:
        return None
    return functools.partial(orjson.dumps, option=orjson.OPT_SERIALIZE_NUMPY)


@functools.cache
def _respeller():
    """The function that spells orjson's comma-joined number text as
    ``repr`` spells it. Both write the shortest round-trip digits and differ
    in notation only, so each token in exponent notation, below 1e-4 or
    with 17 or more integer digits is respelled from its value."""
    token = re.compile(r",(-?0\.0000[^,]*|-?\d{17,}\.[^,]*|[^,]*e[^,]*)")
    return lambda text: token.sub(lambda m: "," + repr(float(m[1])), "," + text)[1:]


def _has_big(block) -> bool:
    """Whether a value of ``block`` is 1e16 or more in magnitude, which a
    token of 17 or more integer digits needs."""
    if hasattr(block, "dtype"):
        return bool((abs(block) >= 1e16).any())
    return any(abs(x) >= 1e16 for x in block)


def _column_cells(block, dumps, nonfinite: dict) -> list:
    """The cells of one column block (a numpy array or a sequence of floats
    and ints): floats as ``repr`` spells them, ints as ints, and nan, inf
    and -inf as ``nonfinite`` maps ``repr``'s spelling. The text is orjson's
    when ``dumps`` is given, else ``repr`` of the block as a list."""
    if dumps is not None:
        if hasattr(block, "flags") and not block.flags.c_contiguous:
            block = block.copy()
        try:
            text = dumps(block)[1:-1].decode()
        except TypeError:  # orjson's JSONEncodeError: an int past 64 bits
            pass
        else:
            if "e" in text or "0.0000" in text or _has_big(block):
                text = _respeller()(text)
            cells = text.split(",")
            if "null" in text:  # orjson writes nan and both infinities so
                cells = [nonfinite[repr(float(x))] if c == "null" else c
                         for c, x in zip(cells, block)]
            return cells
    text = repr(block.tolist() if hasattr(block, "tolist") else list(block))[1:-1]
    cells = text.split(", ")
    if "n" in text:  # no finite float or int has an n
        cells = [nonfinite.get(c, c) for c in cells]
    return cells


def _write_table(path, fields, cols, fmt="csv"):
    """Write equal-length columns (numpy arrays, or sequences of floats and
    ints) as CSV or JSON rows.

    Floats are written with shortest round-trip ``repr`` and ints as ints.
    CSV spells non-finite floats ``nan``, ``inf`` and ``-inf``; JSON matches
    ``json.dump`` of a list of per-row objects, with NaN written as ``null``.
    The rows go out in blocks of ``_BLOCK_ROWS``: each column block becomes
    its cells in one call, ``repr`` of the list or, from ``_FAST_CELLS``
    cells in the table on, orjson's text (see :func:`_column_cells`), and
    the cells fill their slots of the block's parts list by slice, between
    separators at fixed strides. The bytes are those of formatting each row
    with ``repr`` whichever way the cells were made.
    """
    if fmt == "csv":
        head, tail = ",".join(fields) + "\n", ""
        leads = ["", *[","] * (len(fields) - 1)]
        end = "\n"
    else:
        head, tail = "[", "]\n"
        leads = [", {" + json.dumps(fields[0]) + ": ",
                 *(f", {json.dumps(f)}: " for f in fields[1:])]
        end = "}"
    # one row is lead, cell, lead, cell, ..., end; the first row has no ", "
    template = [part for lead in leads for part in (lead, None)] + [end]
    stride = len(template)
    nonfinite = _NONFINITE[fmt]
    rows = len(cols[0])
    dumps = _orjson_dumps() if rows * len(cols) >= _FAST_CELLS else None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for start in range(0, rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, rows)
            parts = template * (stop - start)
            for c, col in enumerate(cols):
                parts[2 * c + 1::stride] = _column_cells(col[start:stop], dumps, nonfinite)
            if start == 0:
                parts[0] = leads[0].removeprefix(", ")
            fh.write("".join(parts))
        fh.write(tail)


def _warn_if_not_cyclic(magnitude: float) -> None:
    """The stderr warning of ``run`` and ``readout`` when the final overlap
    magnitude ``|<s0|U_T|s0>|`` differs from 1 beyond 1e-6."""
    if abs(magnitude - 1.0) > CYCLIC_EPS:
        print(f"warning: schedule is not cyclic (final overlap magnitude {magnitude:.9f})",
              file=sys.stderr)


def _load(path) -> RotationSchedule:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schedule(fh.read())


def _cmd_run(args) -> int:
    sched = _load(args.schedule_file)
    # the summary is the exact core's, so only --out samples (and needs numpy)
    rho, bounds = _exact_inputs(sched.initial, sched)
    v = _final_overlap(rho, bounds)
    runs = _zero_runs(rho, bounds)  # the series' crossing flags and the count share one search
    if args.out:
        from .phases import _series_columns

        cols, flags = _series_columns(rho, bounds, runs, args.steps)
        _write_table(args.out, RUN_FIELDS, (*cols, flags), args.format)
    count, parity = _crossings(runs)
    # after the write, so that a failed write's error is the first stderr line
    _warn_if_not_cyclic(abs(v))
    print(f"final total phase: {_overlap_phase(v)!r}")
    print(f"crossings: {count} ({parity})")
    return 0


def _cmd_breakdown(args) -> int:
    sched = _load(args.schedule_file)
    b = phase_breakdown(sched.initial, sched)
    residual = None if math.isnan(b.closure_residual) else b.closure_residual
    print(json.dumps({"total": b.total, "dynamical": b.dynamical, "geometric": b.geometric,
                      "crossings": b.crossings, "parity": b.parity,
                      "degenerate": b.degenerate, "closure_residual": residual}))
    return 0


def _linspace(a: float, b: float, n: int) -> list:
    """``numpy.linspace(a, b, n)`` as floats, bit for bit: ``a + i * step``
    with ``step = (b - a) / (n - 1)``, taken as ``a + (i / (n - 1)) (b - a)``
    when the step underflows to zero, and the last value set to ``b``."""
    delta = b - a
    if n == 1:
        return [0.0 * delta + a]
    step = delta / (n - 1)
    if step == 0.0:
        values = [i / (n - 1) * delta + a for i in range(n)]
    else:
        values = [i * step + a for i in range(n)]
    values[-1] = b
    return values


def _parse_range(spec: str, name: str) -> list:
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
    return _linspace(a, b, n)


def _cmd_sweep(args) -> int:
    lams = _parse_range(args.lambda0, "lambda0")
    thetas = _parse_range(args.theta, "theta")
    if not all(0.0 <= lam <= 1.0 for lam in lams):
        raise ValidationError("lambda0 range must stay within [0, 1]")
    if args.turns < 1:
        raise ValidationError("turns must be >= 1")
    # an int past 2**1023 converts to no float, and 2 pi 2**1023 is already inf
    duration = 2.0 * math.pi * min(args.turns, 2**1023)
    if not math.isfinite(duration):
        raise ValidationError("turns too large: 2 pi turns overflows a float")
    # every grid point turns qubit 1 of its own Schmidt state by the same
    # segment, so its boundary record is built once
    bounds = _quaternions((RotationSegment(_AXES[args.axis], duration),))
    rows = []
    for lam in lams:  # lambda0-major grid order
        for th in thetas:
            b = _breakdown(_reduced(_schmidt(lam, th), 1), bounds)
            rows.append((lam, th, b.total, b.dynamical, b.geometric, b.crossings,
                         b.closure_residual))
    _write_table(args.out, SWEEP_FIELDS, list(zip(*rows)))
    print(f"wrote {len(rows)} grid points to {args.out}")
    return 0


def _cmd_readout(args) -> int:
    sched = _load(args.schedule_file)
    v = _final_overlap(*_exact_inputs(sched.initial, sched))
    _warn_if_not_cyclic(abs(v))
    p = _click_probability(v)
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
    sw._negative_number_matcher = re.compile(r"^-\.?\d")  # ranges such as -1:1:3
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
