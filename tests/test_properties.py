"""Hypothesis properties of the schedule format and the command line.

Schedule texts mix well-formed directives with adversarial tokens:
non-finite numbers, numbers at the float limits, spellings Python's
``float`` accepts (``1_0``, ``+.5``, Unicode digits), malformed numbers,
unknown keywords, comments, tabs and CRLF line ends.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab as pl
from phaselab.cli import main

ODD_TOKENS = st.sampled_from([
    "nan", "-inf", "inf", "Infinity", "1e309", "-1e308", "1e308", "1.7976931348623157e308",
    "1e200", "5e-324", "-0.0", "1e-400", "1_0", "+.5", "١", "0x10", "1e", "--1", "one",
    "#", "plus", "2",
])


def weighted(*pairs):
    """Draw from each strategy in proportion to its weight: ``one_of``
    ignores repeated branches, and ``integers(0, k)`` favours its ends."""
    return st.sampled_from([s for weight, s in pairs for _ in range(weight)]).flatmap(
        lambda s: s)


def mostly(good, odd):
    return weighted((9, good), (1, odd))


def chance(k):
    """True about once in ``k`` draws."""
    return st.sampled_from([False] * (k - 1) + [True])


def number(lo, hi):
    return st.floats(lo, hi).map(repr)


@st.composite
def directive(draw, keyword, *fields):
    """``keyword`` and one token per field; in one line out of four, one of
    them is swapped for an adversarial token."""
    tokens = [draw(f) for f in fields]
    if tokens and draw(chance(4)):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(ODD_TOKENS)
    return draw(st.sampled_from([" ", "  ", "\t"])).join([keyword, *tokens])


STATE_LINES = st.one_of(
    directive("state schmidt", number(0.0, 1.0), number(-10.0, 10.0)),
    directive("state amplitudes", *[number(-2.0, 2.0)] * 8),
)
# whole turns keep a schedule cyclic, so that breakdown gets past its check
DURATIONS = number(1e-3, 20.0) | st.sampled_from([repr(2 * math.pi), repr(4 * math.pi)])
BODY_LINES = weighted(
    (4, directive("segment", *[number(-2.0, 2.0)] * 3, DURATIONS)),
    (2, directive("builtin", st.sampled_from(["plus", "minus"]))),
    (1, directive("evolve-qubit", st.sampled_from(["1", "2"]))),
    (1, st.sampled_from(["", "# comment", "segment 0 0 1 1.0 # trailing comment"])),
    (1, st.sampled_from(["frobnicate 1", "state", "segment 1 0 0", "builtin", "evolve-qubit"])),
)


@st.composite
def schedule_texts(draw):
    """Mostly a header, one state line and up to five body lines; sometimes
    no header, no state or a second one."""
    lines = draw(st.lists(BODY_LINES, max_size=5))
    for _ in range(draw(mostly(st.just(1), st.sampled_from([0, 2])))):
        lines.insert(draw(st.integers(0, len(lines))), draw(STATE_LINES))
    if not draw(chance(10)):
        lines.insert(0, pl.HEADER)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


class TestScheduleRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(schedule_texts())
    def test_parse_serialize_round_trip(self, text):
        try:
            sched = pl.parse_schedule(text)
        except (pl.ParseError, pl.ValidationError):
            return
        out = pl.serialize_schedule(sched)
        again = pl.parse_schedule(out)
        assert again.evolved_qubit == sched.evolved_qubit
        assert np.array_equal(again.initial, sched.initial)
        assert abs(np.linalg.norm(again.initial) - 1.0) <= 1e-12
        assert len(again.segments) == len(sched.segments)
        for a, b in zip(again.segments, sched.segments):
            assert np.array_equal(a.axis, b.axis)
            assert abs(np.linalg.norm(a.axis) - 1.0) <= 1e-12
            assert a.duration == b.duration
        assert math.isfinite(pl.total_duration(again))
        assert pl.serialize_schedule(again) == out


RANGES = mostly(
    st.tuples(number(0.0, 1.0), number(0.0, 1.0), st.sampled_from(["1", "2", "3"])).map(":".join),
    st.tuples(number(-10.0, 10.0) | ODD_TOKENS, number(-10.0, 10.0) | ODD_TOKENS,
              st.sampled_from(["1", "3", "0", "-1", "x", "2.0"])).map(":".join)
    | st.sampled_from(["", "0:1", "0:1:2:3", "::", "0:1:2:"]),
)
STEPS = mostly(st.sampled_from(["2", "3", "17"]),
               st.sampled_from(["1", "0", "-2", "x", "2.5", "1e3", ""]))
TURNS = mostly(st.sampled_from(["1", "2", "3"]),
               st.sampled_from(["0", "-1", "x", "100000000", str(10**308), str(10**400)]))


@st.composite
def cli_argv(draw, sched, out):
    """One ``run``, ``breakdown``, ``readout`` or ``sweep`` command line:
    options in any order, each now and then left out or given an odd value,
    and sometimes a stray token."""
    command = draw(st.sampled_from(["run", "breakdown", "readout", "sweep"]))
    if command == "sweep":
        argv = ["sweep"]
        options = [[f"--lambda0={draw(RANGES)}"], [f"--theta={draw(RANGES)}"],
                   ["--axis", draw(mostly(st.sampled_from(["x", "y", "z"]), st.just("w")))],
                   ["--turns", draw(TURNS)], ["--out", out], ["--steps", draw(STEPS)]]
    else:
        argv = [command, sched]
        options = {
            "run": [["--out", out],
                    ["--format", draw(mostly(st.sampled_from(["csv", "json"]), st.just("xml")))]],
            "breakdown": [["--steps", draw(STEPS)]],
            "readout": [],
        }[command]
    kept = [opt for opt in options if not draw(chance(10))]
    if command == "run":  # --steps defaults to 2000, too slow for many examples
        kept.append(["--steps", draw(STEPS)])
    for opt in draw(st.permutations(kept)):
        argv += opt
    if draw(chance(10)):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "-x", "", "extra", "--steps"])))
    return argv


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), mostly(schedule_texts(), st.binary(max_size=40)))
    def test_only_documented_exit_codes(self, data, content):
        with tempfile.TemporaryDirectory() as tmp:
            sched = os.path.join(tmp, "s.sched")
            with open(sched, "wb") as fh:
                fh.write(content.encode() if isinstance(content, str) else content)
            target = data.draw(mostly(st.just("out.csv"), st.sampled_from(["", "no/dir.csv"])))
            argv = data.draw(cli_argv(sched, os.path.join(tmp, target)))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert [str(w.message) for w in caught] == []
        if code:
            assert err.getvalue().startswith(("usage error: ", "error: "))
