"""Hypothesis properties of the schedule format, the command line and the
paper's identities.

Schedule texts mix well-formed directives with adversarial tokens:
non-finite numbers, numbers at the float limits, spellings Python's
``float`` accepts (``1_0``, ``+.5``, Unicode digits), malformed numbers,
unknown keywords, comments, tabs and CRLF line ends. The identities are
the n pi theorem on cyclic schedules, the parity law on maximally
entangled states and the gauge invariance of the overlap-product phase.
Every ``sweep`` row equals the public ``phase_breakdown`` of its grid
point, bit for bit, and ``total_duration`` is the end time of the core's
boundary record, bit for bit. The command dispatch parses argv as the
top-level parser parses it respelled, and the number check agrees with the
grammar's regular expressions. The library fuzz, the CLI fuzz's twin, calls
the exact and sampled functions, ``principal``, ``fixed_axis_closed_forms``,
``serialize_schedule``, the record constructors and the numpy helpers of
``qstate`` and ``geometry`` on adversarial values, and ``run`` and
``readout`` warn exactly where ``breakdown`` finds a schedule not cyclic.
"""

import cmath
import contextlib
import io
import math
import os
import tempfile
import warnings
from collections.abc import Iterator

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import phaselab as pl
from helpers import (RUN_FIELDS, geometric_phase_pure, reference_sweep_rows,
                     reference_table_bytes, regex_number)
from matrices import evolution_operator, make_two_qubit, quaternion_of
from phaselab import cli
from phaselab.cli import SWEEP_FIELDS, main
from phaselab.core import _quaternions
from phaselab.schedule import _number

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


def breakdown_or_error(sched):
    """``repr(phase_breakdown(sched))``, so that NaN fields compare equal,
    or the type of the PhaseLabError it raises."""
    try:
        return repr(pl.phase_breakdown(sched))
    except pl.PhaseLabError as exc:
        return type(exc)


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
        # the file is the whole input, so the round trip keeps the decomposition
        assert breakdown_or_error(again) == breakdown_or_error(sched)


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


# the library fuzz's adversarial values: reals at and past the float limits,
# and values of the wrong kind; a one-shot iterator is made afresh per draw
ODD_REALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
             1e308, 8.988465674311579e307, 1.7976931348623157e308]
WRONG_KIND = [None, "1", b"1", ["1", "0"], 1 + 2j, np.array([1.0, 2.0]), True]


def one_shot(values):
    return st.builds(iter, st.just(values))


LIB_AXES = weighted(
    (4, st.deferred(lambda: AXES)),
    (1, st.tuples(st.sampled_from(ODD_REALS), st.just(0.0), st.just(1.0))),
    (1, st.sampled_from([(1.0, 0.0), (0.0, 0.0, 1.0, 0.0), "001", ["0", "0", "1"], None, 3.0,
                         np.array([0.0, 0.0, 1.0]), (True, False, False)])),
    (1, one_shot([0.0, 0.0, 1.0])),
)
LIB_DURATIONS = weighted(
    (4, st.deferred(lambda: SHORT)), (2, st.sampled_from(ODD_REALS)),
    (1, st.sampled_from([*WRONG_KIND, np.float64(2.0), np.array(1.5), 3])),
)
# segments as a tuple, a list or a generator of constructed segments, or a value that is none
LIB_SEGMENTS = weighted(
    (6, st.tuples(st.sampled_from(["tuple", "list", "generator"]),
                  st.lists(st.tuples(LIB_AXES, LIB_DURATIONS), max_size=3))),
    (1, st.tuples(st.just("value"), st.sampled_from([None, "segment", 3, [1.0], [None]]))),
)
LIB_INITIAL = weighted(
    (4, st.deferred(lambda: AMPLITUDES)),
    (1, st.lists(st.sampled_from([*ODD_REALS, 1.0]), min_size=4, max_size=4)),
    (1, st.sampled_from([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0], "1000",
                         ["1", "0", "0", "0"], None, 1.0, np.array([1.0, 0.0, 0.0, 1.0]),
                         [0.0] * 4, [1e300, 1e300, 0.0, 0.0]])),
    (1, one_shot([1.0, 0.0, 0.0, 0.0])),
)
LIB_QUBITS = mostly(st.sampled_from([1, 2]), st.sampled_from(
    [0, 3, -1, True, False, 1.0, 2.0, "1", None, np.int64(2), np.array([1, 2]), math.nan]))
# (segments, evolved qubit, initial state) for the constructors, or a non-schedule value
LIB_SCHEDULES = weighted(
    (9, st.tuples(LIB_SEGMENTS, LIB_QUBITS, LIB_INITIAL)),
    (1, st.tuples(st.just("value"), st.sampled_from([None, (1.0, 0.0, 0.0, 0.0), "s", 3]))),
)
# reals for the functions that take no schedule: any float, and the values above
LIB_REALS = weighted((3, st.floats()), (1, st.sampled_from(
    [*ODD_REALS, *WRONG_KIND, np.float64(-4.0), np.array(1.5), 7, 10**400])))
# the numpy helpers' arguments: two-qubit states, a (2, 2) array among them,
# qubit states, and 2x2 operators and density matrices
LIB_STATES = weighted((6, LIB_INITIAL), (1, st.sampled_from([np.eye(2), [1e200, 1e200, 0.0, 0.0]])))
LIB_QUBIT_STATES = weighted(
    (4, st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)),
    (1, st.lists(st.sampled_from([*ODD_REALS, 1.0]), min_size=2, max_size=2)),
    (1, st.sampled_from([[1.0, 0.0, 0.0], [1.0], "10", ["1", "0"], None, np.eye(2),
                         np.array([1j, 0.0])])),
    (1, one_shot([0.6, 0.8j])),
)
ODD_MATRICES = weighted(
    (2, st.lists(st.sampled_from([*ODD_REALS, 1.0]), min_size=4, max_size=4).map(
        lambda v: np.reshape(v, (2, 2)))),
    (1, st.sampled_from([np.eye(3), np.eye(2).ravel(), [[1.0, 0.0], [0.0]], "ab", None,
                         [["1", "0"], ["0", "1"]], 1e300 * np.eye(2), np.eye(2) / 2])),
)
LIB_OPERATORS = weighted(
    (4, st.tuples(st.deferred(lambda: AXES), st.deferred(lambda: SHORT)).map(
        lambda p: evolution_operator(*p))), (1, ODD_MATRICES))
LIB_DENSITIES = weighted(
    (4, st.deferred(lambda: AMPLITUDES).map(lambda s: pl.reduced_density(s, 1))),
    (1, ODD_MATRICES))
LIB_SAMPLES = st.sampled_from([2, 3, 7, 17, 1, 0, -1, True, False, 2.0, "3", None,
                               np.int64(3), 2**70]).map(lambda n: (n,))
# each function, and what it takes after its first argument
LIB_EXTRA = {
    "phase_breakdown": st.just(()), "dynamical_phase": st.just(()),
    "geometric_phase_mixed": st.just(()), "topological_crossings": st.just(()),
    "readout_probability": st.just(()), "total_duration": st.just(()),
    "serialize_schedule": st.just(()), "principal": st.just(()),
    "fixed_axis_closed_forms": LIB_REALS.map(lambda theta: (theta,)),
    "unitary_at": weighted((3, st.floats(-1.0, 30.0)),
                           (1, st.sampled_from([*ODD_REALS, *WRONG_KIND]))).map(lambda t: (t,)),
    "phase_samples": LIB_SAMPLES, "so3_path": LIB_SAMPLES,
    "schmidt_state": LIB_REALS.map(lambda theta: (theta,)),
    "apply_local": st.tuples(LIB_QUBITS, LIB_STATES),
    "reduced_density": LIB_QUBITS.map(lambda keep: (keep,)),
    "inner_product": LIB_STATES.map(lambda b: (b,)),
    "total_phase": LIB_STATES.map(lambda b: (b,)),
    "bloch_of_pure": st.just(()), "hopf_coords": st.just(()), "concurrence": st.just(()),
    "ball_radius": st.just(()), "purify": st.just(()),
}
# the first argument of the functions that take no schedule, as a "value" recipe
LIB_FIRST = {"principal": LIB_REALS,
             "fixed_axis_closed_forms": weighted((3, st.floats(0.0, 1.0)), (1, LIB_REALS)),
             "schmidt_state": weighted((3, st.floats(0.0, 1.0)), (1, LIB_REALS)),
             "apply_local": LIB_OPERATORS, "bloch_of_pure": LIB_QUBIT_STATES,
             "purify": LIB_DENSITIES,
             **dict.fromkeys(["reduced_density", "inner_product", "total_phase", "hopf_coords",
                              "concurrence", "ball_radius"], LIB_STATES)}
LIBRARY_CALLS = st.sampled_from(sorted(LIB_EXTRA)).flatmap(lambda name: st.tuples(
    st.just(name),
    LIB_FIRST[name].map(lambda x: ("value", x)) if name in LIB_FIRST else LIB_SCHEDULES,
    LIB_EXTRA[name]))
# two segments of 1e308 rad: each finite, their end time not
OVERFLOW = (("tuple", [((0.0, 0.0, 1.0), 1e308)] * 2), 1, (1.0, 0.0, 0.0, 0.0))
# one segment of the largest float, 6 sample steps: 6 times its sixth rounds past it
LARGEST = (("tuple", [((0.0, 0.0, 1.0), 1.7976931348623157e308)]), 1, (1.0, 0.0, 0.0, 0.0))
STATE = (0.6, 0.0, 0.0, 0.8)  # a unit two-qubit state for the helpers


def one_turn(qubit):
    """A one-segment turn about z of the evolved qubit ``qubit``, a recipe."""
    return ("tuple", [((0.0, 0.0, 1.0), 2.0 * math.pi)]), qubit, (1.0, 0.0, 0.0, 0.0)


def build_schedule(recipe):
    """The schedule of a drawn recipe through the public constructors, each
    result checked against their docstrings, or the drawn non-schedule value."""
    if recipe[0] == "value":
        return recipe[1]
    (kind, segments), qubit, initial = recipe
    if kind != "value":
        segments = [pl.RotationSegment(axis, d) for axis, d in segments]
        for seg in segments:
            assert type(seg.axis) is tuple and all(type(c) is float for c in seg.axis)
            assert type(seg.duration) is float
        segments = {"tuple": tuple, "list": list, "generator": iter}[kind](segments)
    sched = pl.RotationSchedule(segments, qubit, initial)
    assert type(sched.initial) is tuple and all(type(a) is complex for a in sched.initial)
    return sched


def assert_angle(x):
    assert type(x) is float and -math.pi < x <= math.pi


def assert_crossings(count, parity):
    assert type(count) is int and count >= 0 and parity == ("even", "odd")[count % 2]


def assert_read(values, shape):
    """A helper returned a result, so ``values`` held finite numbers of this
    ``shape`` with a finite squared norm; a one-shot iterator, which the call
    has read up, is not read again."""
    if not isinstance(values, Iterator):
        a = np.asarray(values, dtype=complex)
        assert a.shape == shape and np.isfinite(np.vdot(a, a).real)


def assert_finite(result, shape, dtype):
    assert result.shape == shape and result.dtype == dtype and np.all(np.isfinite(result))


def assert_documented(name, result, sched, extra):
    """``result`` of ``name(sched, *extra)`` is what its docstring says it returns."""
    if name == "phase_breakdown":
        assert type(result) is pl.PhaseBreakdown
        assert_angle(result.total)
        assert_angle(result.geometric)
        assert type(result.dynamical) is float and math.isfinite(result.dynamical)
        assert_crossings(result.crossings, result.parity)
        if result.degenerate is True:
            assert result.geometric == 0.0 and math.isnan(result.closure_residual)
        else:
            assert result.degenerate is False and 0.0 <= result.closure_residual <= math.pi
    elif name in ("dynamical_phase", "total_duration"):
        assert type(result) is float and math.isfinite(result)
        assert name == "dynamical_phase" or result >= 0.0
    elif name == "geometric_phase_mixed":
        assert_angle(result)
    elif name == "topological_crossings":
        assert_crossings(*result)
    elif name == "readout_probability":
        assert type(result) is float and 0.0 <= result <= 1.0
    elif name == "principal":  # sched is the angle
        x = float(sched)
        assert type(result) is float
        if math.isnan(x):
            assert math.isnan(result)
        else:
            assert_angle(result)
            assert result == x or not -math.pi < x <= math.pi
    elif name == "fixed_axis_closed_forms":  # sched is lambda0
        phi_d, phi_g, phi_t = result
        k = (2.0 * float(sched) - 1.0) * math.cos(float(extra[0]))
        assert all(type(phi) is float for phi in result)
        assert (phi_d, phi_g, phi_t) == (math.pi * k, math.pi - math.pi * k, math.pi)
        assert -math.pi <= phi_d <= math.pi and 0.0 <= phi_g <= 2.0 * math.pi
    elif name == "serialize_schedule":  # read back as the exact functions read sched
        again = pl.parse_schedule(result)
        assert repr(pl.core._exact_inputs(again)) == repr(pl.core._exact_inputs(sched))
        assert again.evolved_qubit in (1, 2) and pl.serialize_schedule(again) == result
    elif name == "schmidt_state":  # sched is lambda0
        assert 0.0 <= float(sched) <= 1.0 and math.isfinite(float(extra[0]))
        assert result.shape == (4,) and result.dtype == complex
        assert abs(np.linalg.norm(result) - 1.0) <= 1e-12
    elif name == "apply_local":  # sched is the operator
        assert_read(sched, (2, 2))
        assert extra[0] in (1, 2)
        assert_read(extra[1], (4,))
        assert_finite(result, (4,), complex)
    elif name == "reduced_density":  # sched is the state
        assert_read(sched, (4,))
        assert extra[0] in (1, 2)
        assert_finite(result, (2, 2), complex)
    elif name in ("inner_product", "total_phase"):
        assert_read(sched, (4,))
        assert_read(extra[0], (4,))
        if name == "inner_product":
            assert type(result) is complex and cmath.isfinite(result)
        else:
            assert type(result) is float
            assert math.isnan(result) or -math.pi < result <= math.pi
    elif name == "bloch_of_pure":
        assert_read(sched, (2,))
        assert_finite(result, (3,), float)
    elif name == "hopf_coords":
        assert_read(sched, (4,))
        assert_finite(result, (5,), float)
    elif name in ("concurrence", "ball_radius"):
        assert_read(sched, (4,))
        assert type(result) is float and 0.0 <= result <= 1.0
    elif name == "purify":
        assert_read(sched, (2, 2))
        assert type(result) is pl.Purification
        assert all(type(w) is float and math.isfinite(w) for w in (result.weight_m, result.weight_n))
        assert result.weight_m - result.weight_n > 1e-9
        for state in (result.state_m, result.state_n):
            assert state.shape == (2,) and abs(np.linalg.norm(state) - 1.0) <= 1e-9
    elif name == "unitary_at":
        assert result.shape == (2, 2) and result.dtype == complex
        assert np.allclose(result.conj().T @ result, np.eye(2), rtol=0.0, atol=1e-9)
    else:  # the sampled functions: one row per sample, a junction sample shared
        rows = len(sched.segments) * (int(extra[0]) - 1) + 1
        if name == "phase_samples":
            assert type(result) is pl.PhaseSeries
            assert all(getattr(result, f).shape == (rows,) for f in RUN_FIELDS)
            times, count = result.t, pl.topological_crossings(sched)[0]
        else:  # the border crossings, which read no state
            assert type(result) is pl.SO3Path
            assert result.axes.shape == (rows, 3)
            assert np.all((0.0 <= result.angles) & (result.angles <= math.pi))
            times, count = result.times, pl.core._crossings(
                pl.core._scan((1.0, 0.0, 0.0, 0.0), _quaternions(sched.segments))[3])[0]
        assert np.all(np.isfinite(times)) and np.all(np.diff(times) >= 0.0)
        assert type(result.crossings) is pl.core.ZeroTimes and result.crossings.size == count


class TestLibraryFuzz:
    @settings(max_examples=600, deadline=None)
    @given(LIBRARY_CALLS)
    @example(("phase_breakdown", OVERFLOW, ()))
    @example(("phase_samples", OVERFLOW, (3,)))
    @example(("phase_samples", LARGEST, (7,)))
    @example(("fixed_axis_closed_forms", ("value", "a"), (0.0,)))
    @example(("fixed_axis_closed_forms", ("value", 0.5), (math.inf,)))
    @example(("principal", ("value", "a"), ()))
    @example(("principal", ("value", None), ()))
    @example(("principal", ("value", math.inf), ()))
    @example(("serialize_schedule", ("value", None), ()))
    @example(("serialize_schedule", one_turn(True), ()))
    @example(("serialize_schedule", one_turn(1.0), ()))
    @example(("serialize_schedule", one_turn(2.0), ()))
    @example(("serialize_schedule", one_turn(3), ()))
    @example(("serialize_schedule", one_turn(np.array([1, 2])), ()))
    @example(("schmidt_state", ("value", 0.5), (math.inf,)))
    @example(("schmidt_state", ("value", 0.5), (math.nan,)))
    @example(("schmidt_state", ("value", "0.5"), (0.0,)))
    @example(("apply_local", ("value", np.eye(2)), (np.array([1, 2]), STATE)))
    @example(("apply_local", ("value", np.eye(3)), (1, STATE)))
    @example(("reduced_density", ("value", STATE), (np.array([1, 2]),)))
    @example(("reduced_density", ("value", np.eye(2)), (1,)))
    @example(("inner_product", ("value", [1.0, 0.0]), ([1.0, 0.0, 0.0],)))
    @example(("total_phase", ("value", [1.0, 0.0, 0.0, 0.0]), ([1.0, 0.0],)))
    @example(("bloch_of_pure", ("value", [1.0, 0.0, 0.0]), ()))
    @example(("hopf_coords", ("value", "abcd"), ()))
    @example(("hopf_coords", ("value", [1e200, 1e200, 0.0, 0.0]), ()))
    @example(("concurrence", ("value", [1.0, 0.0, 0.0]), ()))
    @example(("concurrence", ("value", [math.nan, 0.0, 0.0, 0.0]), ()))
    @example(("ball_radius", ("value", [math.nan, 0.0, 0.0, 0.0]), ()))
    @example(("purify", ("value", np.eye(3)), ()))
    @example(("purify", ("value", [[math.nan, 0.0], [0.0, 1.0]]), ()))
    def test_documented_result_or_phaselab_error(self, call):
        # the library's twin of the CLI fuzz: each call returns what its
        # docstring documents or raises a PhaseLabError, and warns of nothing
        name, recipe, extra = call
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                sched = build_schedule(recipe)
                result = getattr(pl, name)(sched, *extra)
            except pl.DegenerateSpectrum:
                if name == "purify":  # a spectrum only of a 2x2 matrix
                    assert_read(sched, (2, 2))
                result = None
            except pl.PhaseLabError:
                result = None
            if result is not None:
                assert_documented(name, result, sched, extra)
        assert [str(w.message) for w in caught] == []


# each command's options (and --help), and its required arguments
COMMAND_OPTIONS = {
    "run": ["--steps", "--out", "--format", "--help"],
    "breakdown": ["--steps", "--help"],
    "sweep": ["--lambda0", "--theta", "--axis", "--turns", "--steps", "--out", "--help"],
    "readout": ["--help"],
}
REQUIRED_ARGS = {"run": [["s.sched"]], "breakdown": [["s.sched"]], "readout": [["s.sched"]],
                 "sweep": [["--lambda0", "0:1:3"], ["--theta=-1:1:3"], ["--out", "out.csv"]]}
ARGV_VALUES = st.sampled_from(["2", "20", "1", "x", " 2", "1_0", "-1", "0:1:3", "-1:1:3", "0:1",
                               "csv", "json", "xml", "z", "w", "s.sched", "out.csv", ""])
ARGV_JUNK = st.sampled_from(["--", "-h", "-", "-x", "--bogus", "extra", "--=", "-hx"])


@st.composite
def command_argv(draw):
    """A command name, then its option strings, their prefixes (``--`` too)
    and ``=value`` forms, values, junk tokens, ``--`` and ``-h``."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    option = st.sampled_from(COMMAND_OPTIONS[command]).flatmap(
        lambda opt: st.integers(2, len(opt)).map(lambda n: opt[:n]))
    pair = st.tuples(option, ARGV_VALUES)
    chunk = weighted((4, pair.map(list)), (1, pair.map(lambda p: ["=".join(p)])),
                     (1, option.map(lambda o: [o])), (2, ARGV_VALUES.map(lambda v: [v])),
                     (1, ARGV_JUNK.map(lambda j: [j])))
    chunks = draw(st.lists(chunk, max_size=5))
    for required in REQUIRED_ARGS[command]:  # each in about 4 of 5 draws
        if not draw(chance(5)):
            chunks.insert(draw(st.integers(0, len(chunks))), required)
    return [command, *(token for c in chunks for token in c)]


def parse_outcome(parse, argv):
    """What ``parse(argv)`` gives: its namespace less ``command``, its usage
    error text, or its exit code and stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse(argv)
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    return "namespace", {k: v for k, v in vars(args).items() if k != "command"}, out.getvalue()


class TestCommandDispatch:
    @settings(max_examples=400, deadline=None)
    @given(command_argv())
    def test_dispatch_parses_as_the_top_level_parser(self, argv):
        top = cli._build_parser().parse_args
        assert parse_outcome(cli._parse, argv) == parse_outcome(top, cli._respell(argv))


# pieces of tokens, digits the most often: the grammar's characters and what
# float and int take beyond it
NUMBER_PIECES = weighted((1, st.sampled_from("0123456789")), (1, st.sampled_from([
    "+", "-", ".", "e", "E", "_", " ", "\t", "\x0b", "\x1c", "\x85", "\u0661", "\uff11", "inf",
    "nan", "x"])))


class TestNumberGrammar:
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(NUMBER_PIECES, min_size=1, max_size=8).map("".join),
           st.sampled_from([float, int]))
    @example("1_0", int)
    @example("1_0.5e1", float)
    @example("\u0661", float)
    @example(" 2", int)
    @example("-inf\x85", float)
    def test_number_matches_the_regex_oracle(self, token, kind):
        results = []
        for number in (_number, regex_number):
            try:
                results.append(repr(number(token, kind)))
            except ValueError:
                results.append(ValueError)
        assert results[0] == results[1]


unit = st.floats(-1.0, 1.0)
AXES = st.tuples(unit, unit, unit).filter(lambda v: math.hypot(*v) > 0.1).map(
    lambda v: tuple(x / math.hypot(*v) for x in v))
SHORT = st.floats(0.05, 7.0) | st.sampled_from([0.5, 1.0, 2.0, 3.0]).map(lambda k: k * math.pi)
AMPLITUDES = st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8).filter(
    lambda v: math.hypot(*v) > 0.1).map(
    lambda v: make_two_qubit(*(complex(v[i], v[i + 1]) for i in range(0, 8, 2))))


@st.composite
def cyclic_schedules(draw):
    """A random prefix and the one segment that completes its product to
    ``U_T = +I`` or ``-I``, on a random state and evolved qubit."""
    prefix = draw(st.lists(st.builds(pl.RotationSegment, AXES, SHORT), min_size=1, max_size=4))
    state, qubit = draw(AMPLITUDES), draw(st.sampled_from([1, 2]))
    w, v = quaternion_of(pl.unitary_at(pl.RotationSchedule(tuple(prefix), qubit, state), math.inf))
    s = float(np.linalg.norm(v))
    assume(s > 1e-3)
    # E B = +I for E = B^-1 = w I + i v . sigma; E B = -I for E = -B^-1
    sign = draw(st.sampled_from([1.0, -1.0]))
    last = pl.RotationSegment(-sign * v / s, 2.0 * math.atan2(s, sign * w))
    return pl.RotationSchedule((*prefix, last), qubit, state)


class TestPaperIdentities:
    @settings(max_examples=200, deadline=None)
    @given(cyclic_schedules())
    def test_n_pi_theorem(self, sched):
        b = pl.phase_breakdown(sched)
        assert min(abs(pl.principal(b.total)), abs(pl.principal(b.total - math.pi))) <= 1e-9
        if not b.degenerate:
            assert b.closure_residual <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 2.0 * math.pi), AXES, st.floats(0.0, 2.0 * math.pi),
           st.sampled_from([1, 2]),
           st.lists(st.builds(pl.RotationSegment, AXES, SHORT | st.floats(7.0, 2e11)),
                    min_size=1, max_size=5))
    def test_parity_law_on_maximally_entangled_states(self, theta, axis, angle, qubit, segs):
        # a local turn of qubit 2 keeps the state maximally entangled
        mes = pl.apply_local(evolution_operator(axis, angle), 2, pl.schmidt_state(0.5, theta))
        sched = pl.RotationSchedule(tuple(segs), qubit, mes)
        assert pl.total_duration(sched) < 1e12
        re_trace = float(np.trace(pl.unitary_at(sched, math.inf)).real)
        assume(abs(re_trace) > 4e-6)  # no zero at the end, which is not counted
        count, parity = pl.topological_crossings(sched)
        assert parity == ("odd" if re_trace < 0.0 else "even")
        assert count % 2 == (re_trace < 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 4]).flatmap(lambda dim: st.lists(
               st.lists(st.floats(-1.0, 1.0), min_size=2 * dim, max_size=2 * dim).filter(
                   lambda v: math.hypot(*v) > 0.1), min_size=3, max_size=8)),
           st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8), st.booleans())
    def test_gauge_invariance_of_the_overlap_product_phase(self, parts, phases, closed):
        path = np.array([[complex(p[i], p[i + 1]) for i in range(0, len(p), 2)] for p in parts])
        path /= np.linalg.norm(path, axis=1)[:, None]
        legs = np.einsum("kj,kj->k", path[:-1].conj(), path[1:])
        if closed:
            legs = np.append(legs, np.vdot(path[-1], path[0]))
        assume(np.all(np.abs(legs) > 1e-2))  # far from orthogonal, so args are well conditioned
        before = geometric_phase_pure(path, closed)
        after = geometric_phase_pure(path * np.exp(1j * np.array(phases[:len(path)]))[:, None],
                                     closed)
        if closed:
            assert abs(pl.principal(after - before)) <= 1e-12
        else:  # an open path picks up the end points' phase difference
            want = before - (phases[len(path) - 1] - phases[0])
            assert abs(pl.principal(after - want)) <= 1e-12


def command_outcome(argv):
    """``main(argv)``'s exit code and stderr, its stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestCyclicity:
    # a tail of angle a moves |<s0|U_T|s0>| off 1 by about a**2 / 8, so tails
    # up to 1e-2 rad fall on both sides of the 1e-6 threshold
    @settings(max_examples=100, deadline=None)
    @given(cyclic_schedules(), AXES, st.floats(0.0, 1e-2) | st.sampled_from([0.0, 2.8e-3]))
    def test_run_and_readout_warn_exactly_where_breakdown_is_not_cyclic(self, sched, axis,
                                                                          angle):
        segments = (*sched.segments, pl.RotationSegment(axis, angle)) if angle else sched.segments
        text = pl.serialize_schedule(pl.RotationSchedule(segments, sched.evolved_qubit,
                                                         sched.initial))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.sched")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            code, err = command_outcome(["breakdown", path])
            warned = [command_outcome([command, path]) for command in ("run", "readout")]
        not_cyclic = code == 3 and err.startswith("error: not cyclic: ")
        assert code == 0 or not_cyclic
        for code, err in warned:
            assert code == 0
            assert err.startswith("warning: schedule is not cyclic ") == not_cyclic
        assert warned[0][1] == warned[1][1]


class TestBoundaryRecord:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(pl.RotationSegment, AXES, SHORT | st.floats(1.0, 1e6)),
                    max_size=8))
    def test_total_duration_is_the_end_time_bit_for_bit(self, segs):
        # both are one left-to-right fold; a float sum, compensated from
        # Python 3.12 on, differs from it in the last bits
        sched = pl.RotationSchedule(tuple(segs), 1, pl.schmidt_state(0.3, 0.0))
        assert pl.total_duration(sched) == _quaternions(sched.segments)[0][-1]


# lambda0 ends at the degenerate 0.5 and the product-state 0 and 1 half
# the time, so grids hold those rows
LAMBDA0 = weighted((1, st.sampled_from([0.0, 0.5, 1.0])), (1, st.floats(0.0, 1.0)))
THETA = weighted((1, st.sampled_from([0.0, math.pi / 2, math.pi, 2.0 * math.pi])),
                 (1, st.floats(-10.0, 10.0)))
SWEEP_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


class TestSweepRows:
    @settings(max_examples=200, deadline=None)
    @given(LAMBDA0, LAMBDA0, st.integers(1, 5), THETA, THETA, st.integers(1, 4),
           st.sampled_from(sorted(SWEEP_AXES)), st.integers(1, 3))
    def test_rows_equal_phase_breakdown_bit_for_bit(self, l0, l1, n, t0, t1, m, axis, turns):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "sweep.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["sweep", f"--lambda0={l0!r}:{l1!r}:{n}", f"--theta={t0!r}:{t1!r}:{m}",
                             "--axis", axis, "--turns", str(turns), "--out", out])
            assert code == 0
            with open(out, "rb") as fh:
                got = fh.read()
        # NaN residuals (degenerate rows) are written as nan
        rows = reference_sweep_rows(np.linspace(l0, l1, n), np.linspace(t0, t1, m),
                                    SWEEP_AXES[axis], turns)
        assert got == reference_table_bytes(SWEEP_FIELDS, rows)
