"""Command-line front end: run, breakdown, sweep, readout.

Standard output carries short human summaries, except ``breakdown`` whose
contract is a single JSON object on stdout; machine-readable series go to
files named with ``--out``, never mixed with summaries. Numbers are
serialized with shortest round-trip precision (17 significant digits when
needed), so identical invocations produce byte-identical files. Undefined
phases appear as the literal ``nan`` in CSV and ``null`` in JSON. Angles
are radians throughout.

Exit codes: 0 success, 1 usage, 2 parse/validation, 3 numeric failure, out of memory or
a missing dependency (numpy or orjson, which only ``run --out`` imports).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .core import (_breakdown, _click_probability, _crossings, _cyclic, _exact_inputs,
                   _final_overlap, _overlap_phase, _quaternions, _reduced, _scan, _schmidt,
                   phase_breakdown)
from .errors import NotCyclic, ParseError, PhaseLabError, ValidationError
from .schedule import (DEFAULT_SAMPLES, RotationSchedule, RotationSegment, _number,
                       parse_schedule)

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

    def _check_value(self, action, value):
        """argparse's, with the choices spelled by ``repr``, as up to 3.12.7
        and 3.13.0; later versions spell them by ``str``."""
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action,
                                         f"invalid choice: {value!r} (choose from {choices})")


# A table is written in blocks of this many rows, so the writer holds the
# cells of one block, never the whole table, as strings.
_BLOCK_ROWS = 1024
# JSON's spelling of the non-finite floats, keyed by repr's
_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _plain(x):
    """Whether the float ``x`` (each float of an array ``x``) is 0 or of
    magnitude in [1e-4, 1e16). orjson spells a plain float as ``repr`` does;
    others it may spell in another notation, and nan and inf as ``null``."""
    mag = abs(x)
    return (mag < 1e16) & ((mag >= 1e-4) | (x == 0))


def _column_cells(block, bad, dumps) -> list:
    """The JSON cells of one column block, a C-contiguous float64 or int64
    array: floats as ``repr`` spells them, nan, inf and -inf as JSON does,
    ints as ints. The text is orjson's ``dumps``, with the cells at the
    block indices ``bad``, the floats that are not plain (see
    :func:`_plain`), patched to ``repr``'s spelling."""
    cells = dumps(block)[1:-1].decode().split(",")
    for i in bad.tolist():
        text = repr(float(block[i]))
        cells[i] = _NONFINITE.get(text, text)
    return cells


def _csv_rows(block, flags, plain, dumps):
    """The CSV lines, as a uint8 array, of a ``(rows, 13)`` float block of
    ``run --out``'s columns and its int 0/1 crossing ``flags``, given each
    row's plainness ``plain`` (all its cells plain, see :func:`_plain`).
    Each run of plain rows is one orjson ``dumps``, every other run ``repr``
    of its rows as lists; each run's text ``[[r0],[r1]]`` is copied into one
    array after the last, over its closing ``]``, with a spare byte at the
    end. Every ``]`` but the last then ends a row, and it and the two bytes
    after it become ``,``, the row's flag and a newline. Raises ValueError
    for a flag other than 0 or 1."""
    import numpy as np

    if flags.min() < 0 or flags.max() > 1:
        raise ValueError("crossing flags must be 0 or 1")
    cuts = [0, *((plain[1:] != plain[:-1]).nonzero()[0] + 1).tolist(), len(block)]
    texts = [dumps(block[a:b]) if plain[a] else
             repr(block[a:b].tolist()).replace(", ", ",").encode() for a, b in zip(cuts, cuts[1:])]
    text = np.empty(sum(map(len, texts)) - len(texts) + 2, dtype=np.uint8)
    at = 0
    for t in texts:  # a run's "[[" overwrites the last run's closing "]" and spare byte
        text[at:at + len(t)] = np.frombuffer(t, dtype=np.uint8)
        at += len(t) - 1
    ends = (text[:-1] == ord("]")).nonzero()[0][:-1]  # the spare byte is never read
    # "[[r0],[r1]]" and the spare byte -> "[[r0,f0\nr1,f1\n"
    text[ends] = ord(",")
    text[ends + 1] = flags + ord("0")
    text[ends + 2] = ord("\n")
    return text[2:]


def _write_table(path, series, fmt="csv"):
    """Write the columns of the :class:`~phaselab.phases.PhaseSeries`
    ``series``, its fields but ``crossings`` in field order: 13 C-contiguous
    float64 arrays and the int64 0/1 crossing flags, as CSV or JSON rows, in
    blocks of ``_BLOCK_ROWS``.

    Floats read as shortest round-trip ``repr`` and ints as ints. CSV spells
    non-finite floats ``nan``, ``inf`` and ``-inf``; JSON matches ``json.dump``
    of a list of per-row objects, with NaN as ``null``. The plain cells are
    orjson's (see :func:`_plain`), every other float cell ``repr``'s. Which
    cells are plain is found once per table, as each float column's sorted
    non-plain indices; a block takes its share of them. CSV goes by rows
    (:func:`_csv_rows`: the 13 float columns stacked, each row's plainness,
    and the flags it writes into each row's end), JSON by column blocks
    (:func:`_column_cells`, with each column's non-plain indices) into one
    row template, refilled per block, whose flag cells are ``0`` but at the
    flags' nonzero indices. numpy and orjson are imported before the file
    is opened, so a missing one leaves no file.
    """
    import numpy as np
    import orjson

    dumps = functools.partial(orjson.dumps, option=orjson.OPT_SERIALIZE_NUMPY)
    fields = series.__slots__[:-1]  # every field but crossings is a column
    *floats, flags = [getattr(series, f) for f in fields]
    rows = len(flags)
    bad = [(~_plain(c)).nonzero()[0] for c in floats]
    blocks = [(start, min(start + _BLOCK_ROWS, rows)) for start in range(0, rows, _BLOCK_ROWS)]
    with open(path, "wb") as fh:
        if fmt == "csv":
            plain = np.ones(rows, dtype=bool)
            for idx in bad:
                plain[idx] = False
            fh.write((",".join(fields) + "\n").encode())
            for start, stop in blocks:
                block = np.stack([c[start:stop] for c in floats], axis=1)
                fh.write(_csv_rows(block, flags[start:stop], plain[start:stop], dumps))
            return
        # a row is ", {key: ", cell, ", key: ", cell, ..., "}"; the first has no ", "
        template = [part for f in fields for part in (f", {json.dumps(f)}: ", None)] + ["}"]
        template[0] = ", {" + template[0][2:]
        width = len(template)
        parts = template * _BLOCK_ROWS
        ones = flags.nonzero()[0]
        fh.write(b"[")
        for start, stop in blocks:
            n = stop - start
            if n < _BLOCK_ROWS:
                parts = template * n
            for c, col in enumerate(floats):
                idx = bad[c]
                lo, hi = idx.searchsorted((start, stop))
                parts[2 * c + 1::width] = _column_cells(col[start:stop], idx[lo:hi] - start, dumps)
            flag_cells = ["0"] * n
            lo, hi = ones.searchsorted((start, stop))
            for i in (ones[lo:hi] - start).tolist():
                flag_cells[i] = "1"
            parts[width - 2::width] = flag_cells
            parts[0] = template[0][2:] if start == 0 else template[0]
            fh.write("".join(parts).encode())
        fh.write(b"]\n")


def _warn_if_not_cyclic(v: complex) -> None:
    """The stderr warning of ``run`` and ``readout`` when the final overlap
    ``v = <s0|U_T|s0>`` is not :func:`~phaselab.core._cyclic`."""
    if not _cyclic(v):
        print(f"warning: schedule is not cyclic (final overlap magnitude {abs(v):.9f})",
              file=sys.stderr)


def _load(path) -> RotationSchedule:
    with open(path, "rb") as fh:  # parse_schedule's splitlines ends lines at \r\n and \r too
        return parse_schedule(fh.read().decode("utf-8"))


def _cmd_run(args) -> int:
    sched = _load(args.schedule_file)
    # the summary is the exact core's, so only --out samples (and needs numpy)
    rho, bounds = _exact_inputs(sched)
    # the series' dynamical phase and crossing flags and the summary share one scan
    v, rates, ends, runs = _scan(rho, bounds)
    if args.out:
        from .phases import _series_columns

        _write_table(args.out, _series_columns(rho, bounds, rates, ends, runs, args.steps),
                     args.format)
    count, parity = _crossings(runs)
    # after the write, so that a failed write's error is the first stderr line
    _warn_if_not_cyclic(v)
    print(f"final total phase: {_overlap_phase(v)!r}")
    print(f"crossings: {count} ({parity})")
    return 0


def _cmd_breakdown(args) -> int:
    sched = _load(args.schedule_file)
    b = phase_breakdown(sched)
    fields = {name: getattr(b, name) for name in b.__slots__}
    if math.isnan(b.closure_residual):  # a degenerate run's; JSON has no NaN
        fields["closure_residual"] = None
    print(json.dumps(fields))
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
            tot, dyn, geo, n, _, _, res = _breakdown(_reduced(_schmidt(lam, th), 1), bounds)
            rows.append((lam, th, tot, dyn, geo, n, res))
    with open(args.out, "wb") as fh:
        fh.write((",".join(SWEEP_FIELDS) + "\n").encode())
        for start in range(0, len(rows), _BLOCK_ROWS):  # repr spells nan and inf as CSV does
            text = repr(rows[start:start + _BLOCK_ROWS])[2:-2]  # "a, b), (c, d"
            fh.write((text.replace("), (", "\n").replace(", ", ",") + "\n").encode())
    print(f"wrote {len(rows)} grid points to {args.out}")
    return 0


def _cmd_readout(args) -> int:
    sched = _load(args.schedule_file)
    v = _final_overlap(*_exact_inputs(sched))
    _warn_if_not_cyclic(v)
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
    parser.commands = sub.choices  # each command name's subparser, for _parse
    return parser


def _respell(argv: list) -> list:
    """``argv`` with each token before the first ``--`` that runs ``-h`` into a character
    naming no option spelled ``-h=<rest>``, ``<rest>`` what follows its leading ``h``s:
    ``-hx`` as ``-h=x``, ``-hhx=1`` as ``-h=x=1``, ``-hh=`` as ``-h==``. ``-h`` is the only
    short option and the only one of no argument, so only ``h`` names one. argparse up to
    3.12 reads both spellings alike and rejects them where it reaches them ("ignored
    explicit argument"); from 3.13 on it shows help for ``-hx``, but still rejects ``-h=x``."""
    end = argv.index("--") if "--" in argv else len(argv)
    argv = list(argv)
    for i, token in enumerate(argv[:end]):
        rest = token[1:].lstrip("h")
        if token[:2] == "-h" and rest and token[2] != "=":
            argv[i] = "-h=" + rest
    return argv


def _parse(argv: list) -> argparse.Namespace:
    """``argv``, :func:`_respell`-ed, parsed once. The top-level parser only hands what
    follows a command name to its subparser, so that parses it directly: the same
    namespace, less ``command``."""
    parser = _build_parser()
    argv = _respell(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    return sub.parse_args(argv[1:]) if sub else parser.parse_args(argv)


def main(argv=None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``); return its exit code. The
    top-level parser serves only argv that names no command: empty, ``-h`` or an unknown word."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
    except ModuleNotFoundError as exc:
        print(f"error: cannot import {exc.name}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
