"""The Bloch-vector/quaternion exact core against the 2x2-matrix oracles,
and the crossing flags it feeds into the sampled series.

The exact functions run on the boundary products as unit quaternions and
the reduced state as its Pauli components; ``tests/helpers.py`` keeps the
matrix forms (``np.trace``, ``pauli_dot``, ``eigh``) as oracles.
"""

import contextlib
import copy
import io
import json
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab as pl
from helpers import (
    cyclic_completion,
    matrix_boundaries,
    matrix_dynamical_phase,
    matrix_overlap_zero_times,
    matrix_phase_breakdown,
    matrix_readout_probability,
    matrix_series_columns,
    matrix_topological_crossings,
)
from phaselab.cli import main

X_AXIS, Z_AXIS = (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)
PHASE_TOL = 1e-12


def mod_2pi_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def outcome(fn, *args):
    """``("ok", value)`` or ``("raised", exception type)``."""
    try:
        return "ok", fn(*args)
    except pl.PhaseLabError as exc:
        return "raised", type(exc)


def series_columns(s0, sched, steps):
    """``phases._series_columns`` with the zero times of its runs:
    ``(columns, flags, zeros)``, as ``matrix_series_columns`` returns."""
    rho, bounds = pl.core._exact_inputs(s0, sched)
    runs = pl.core._zero_runs(rho, bounds)
    return (*pl.phases._series_columns(rho, bounds, runs, steps),
            pl.core.ZeroTimes(bounds[0], runs))


def segment(axis, duration):
    return pl.RotationSegment(np.array(axis, dtype=float) / np.linalg.norm(axis), duration)


unit = st.floats(-1.0, 1.0)
AXES = st.one_of(
    st.sampled_from([X_AXIS, (0.0, 1.0, 0.0), Z_AXIS, (-1.0, 0.0, 0.0), (1.0, 1.0, 1.0)]),
    st.tuples(unit, unit, unit).filter(lambda v: math.hypot(*v) > 0.1),
)
DURATIONS = st.one_of(
    st.floats(0.05, 7.0),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0]).map(lambda k: k * math.pi),
)
SEGMENTS = st.lists(st.builds(segment, AXES, DURATIONS), max_size=3)

MES = st.floats(0.0, 2.0 * math.pi).map(lambda th: pl.schmidt_state(0.5, th))
PRODUCT = st.tuples(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0 * math.pi)).map(
    lambda p: pl.schmidt_state(*p))
PARTIAL = st.tuples(st.floats(0.0, 1.0), st.floats(-10.0, 10.0)).map(
    lambda p: pl.schmidt_state(*p))
AMPLITUDES = st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8).filter(
    lambda v: math.hypot(*v) > 0.1).map(
    lambda v: pl.make_two_qubit(*(complex(v[i], v[i + 1]) for i in range(0, 8, 2))))
STATES = st.one_of(MES, PRODUCT, PARTIAL, AMPLITUDES)


@st.composite
def schedules(draw):
    """Open schedules; cyclic completions ending at ``U_T = I``, or at
    ``-I`` with an extra turn; the maximally entangled state turned about
    x by pi and then about z, where the overlap vanishes on the whole z
    segment and the junction zero spans it; a product state turned about
    its own Bloch axis, cyclic with ``U_T`` neither I nor -I; and a
    product state whose Bloch vector, after an open prefix, is turned
    about an axis normal to ``b0 + b1`` at least once around, through the
    antipode ``-b0``, where the overlap vanishes."""
    kind = draw(st.sampled_from(
        ["open", "cyclic", "extra_turn", "spanning", "eigenaxis", "antipode"]))
    qubit = draw(st.sampled_from([1, 2]))
    state = draw({"spanning": MES, "eigenaxis": PRODUCT, "antipode": PRODUCT}.get(kind, STATES))
    segs = tuple(draw(SEGMENTS))
    rho = pl.reduced_density(state, qubit)
    if kind == "spanning":
        segs = (segment(X_AXIS, math.pi), segment(Z_AXIS, draw(DURATIONS))) + segs
    elif kind == "eigenaxis":
        b0 = pl.bloch_of_density(rho)
        segs = tuple(segment(sign * b0, d) for sign, d in draw(
            st.lists(st.tuples(st.sampled_from([1.0, -1.0]), DURATIONS), min_size=1, max_size=3)))
    elif kind == "antipode":
        u = pl.unitary_at(pl.RotationSchedule(segs, qubit, state), math.inf)
        mid = pl.bloch_of_density(rho) + pl.bloch_of_density(u @ rho @ u.conj().T)
        axis = np.cross(mid, draw(st.tuples(unit, unit, unit)))
        if np.linalg.norm(axis) > 0.1:
            segs += (segment(axis, 2.0 * math.pi + draw(DURATIONS)),)
    if kind in ("cyclic", "extra_turn", "spanning", "antipode"):
        segs = cyclic_completion(segs)
    if kind == "extra_turn":
        segs += (segment(draw(AXES), 2.0 * math.pi),)
    return pl.RotationSchedule(segs, qubit, state)


@st.composite
def series_schedules(draw):
    """``schedules()``, half of them with a segment of 2 to 5 more turns
    appended."""
    sched = draw(schedules())
    if draw(st.booleans()):
        turns = 2.0 * math.pi * draw(st.integers(2, 5)) + draw(DURATIONS)
        sched = pl.RotationSchedule(sched.segments + (segment(draw(AXES), turns),),
                                    sched.evolved_qubit, sched.initial)
    return sched


class TestCoreAgainstMatrixOracles:
    @settings(max_examples=200, deadline=None)
    @given(schedules())
    def test_exact_functions_match_the_matrix_forms(self, sched):
        s0 = sched.initial
        got, want = outcome(pl.phase_breakdown, s0, sched), outcome(matrix_phase_breakdown, s0, sched)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] is want[1]
        else:
            b, o = got[1], want[1]
            assert (b.crossings, b.parity, b.degenerate) == (o.crossings, o.parity, o.degenerate)
            for name in ("total", "dynamical", "geometric"):
                assert mod_2pi_distance(getattr(b, name), getattr(o, name)) <= PHASE_TOL, name
            assert math.isnan(b.closure_residual) == math.isnan(o.closure_residual)
            if not b.degenerate:
                assert abs(b.closure_residual - o.closure_residual) <= PHASE_TOL
        assert mod_2pi_distance(pl.dynamical_phase(s0, sched),
                                matrix_dynamical_phase(s0, sched)) <= PHASE_TOL
        assert abs(pl.readout_probability(s0, sched)
                   - matrix_readout_probability(s0, sched)) <= PHASE_TOL
        assert pl.topological_crossings(s0, sched) == matrix_topological_crossings(s0, sched)

    @settings(max_examples=100, deadline=None)
    @given(schedules())
    def test_ball_border_crossings_at_the_maximally_mixed_state(self, sched):
        # so3_path searches the overlap with rho = I/2, Pauli components (1, 0, 0, 0)
        want = matrix_overlap_zero_times(sched, np.eye(2) / 2.0, matrix_boundaries(sched))
        got = pl.so3_path(sched, 2).crossings
        assert len(got) == len(want)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(got, want))

    def test_junction_zero_spanning_a_segment(self):
        mes = pl.schmidt_state(0.5, 0.0)
        sched = pl.RotationSchedule(cyclic_completion(
            (segment(X_AXIS, math.pi), segment(Z_AXIS, 1.0))), 1, mes)
        assert pl.topological_crossings(mes, sched) == matrix_topological_crossings(mes, sched)
        b = pl.phase_breakdown(mes, sched)
        assert b.degenerate and (b.crossings, b.parity) == (
            matrix_phase_breakdown(mes, sched).crossings, matrix_phase_breakdown(mes, sched).parity)

    def test_junction_zero_with_slopes_at_right_angles_is_a_touch(self):
        # a product state turned to its antipode about y, nudged about x and
        # back, then returned about -y: at both antipode junctions the slopes
        # are at right angles, and rounding alone made the last one a crossing
        s0 = pl.make_two_qubit(0.0, -math.sin(0.5), 0.0, math.cos(0.5))
        y_axis, nudge = (0.0, 1.0, 0.0), 0.0546875
        sched = pl.RotationSchedule(
            (segment(y_axis, math.pi), segment(X_AXIS, nudge),
             segment((-1.0, 0.0, 0.0), nudge), segment((0.0, -1.0, 0.0), math.pi)), 1, s0)
        assert pl.topological_crossings(s0, sched) == (0, "even")
        assert matrix_topological_crossings(s0, sched) == (0, "even")
        assert pl.phase_breakdown(s0, sched).crossings == 0


DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "schedules")
BUILTIN = "phaselab-schedule v1\nstate schmidt 0.3 0.0\nbuiltin {}\n"
# so3_path crossing times, flagged sample indices of ``run --out`` at the
# default 2000 steps, and the ``run`` summary's crossing line, as the
# matrix implementation gave them
CROSSING_FLAGS = {
    "mes_minus": ([4.1887902047863905], [3998], "crossings: 1 (odd)"),
    "mes_plus": ([], [], "crossings: 0 (even)"),
    "partial_z_turn": ([3.141592653589793], [], "crossings: 0 (even)"),
    "builtin_plus": ([], [], "crossings: 0 (even)"),
    "builtin_minus": ([4.1887902047863905], [], "crossings: 0 (even)"),
}


class TestCrossingFlagsUnchanged:
    def _schedule_file(self, name, tmp_path):
        if name.startswith("builtin_"):
            path = tmp_path / f"{name}.sched"
            path.write_text(BUILTIN.format(name.split("_")[1]))
            return str(path)
        return os.path.join(DEMOS, f"{name}.sched")

    def test_flags_and_counts(self, tmp_path):
        for name, (times, flagged, summary) in CROSSING_FLAGS.items():
            path = self._schedule_file(name, tmp_path)
            with open(path, encoding="utf-8") as fh:
                sched = pl.parse_schedule(fh.read())
            assert list(pl.so3_path(sched, 2000).crossings) == times, name
            out = tmp_path / "series.csv"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(["run", path, "--out", str(out)]) == 0
            flags = np.loadtxt(out, delimiter=",", skiprows=1, usecols=13)
            assert np.flatnonzero(flags).tolist() == flagged, name
            assert stdout.getvalue().splitlines()[-1] == summary, name

    def test_run_summary_is_the_breakdown_total(self, tmp_path):
        # the last sample of the series is the core's Tr(B_n rho)
        for name in CROSSING_FLAGS:
            path = self._schedule_file(name, tmp_path)
            outs = []
            for argv in (["run", path], ["breakdown", path]):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    assert main(argv) == 0
                outs.append(stdout.getvalue())
            total = repr(json.loads(outs[1])["total"])
            assert outs[0].splitlines()[0] == f"final total phase: {total}", name


class TestSeriesAgainstMatrixOracle:
    @settings(max_examples=200, deadline=None)
    @given(series_schedules(), st.integers(2, 50))
    def test_quaternion_series_matches_the_matrix_series(self, sched, steps):
        s0 = sched.initial
        got = outcome(series_columns, s0, sched, steps)
        want = outcome(matrix_series_columns, s0, sched, steps)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] is want[1]
            return
        (cols, flags, zeros), (ocols, oflags, ozeros) = got[1], want[1]
        for i in (0, 5):  # t, phase_dyn
            assert np.array_equal(cols[i], ocols[i])
        assert np.array_equal(flags, oflags) and list(zeros) == list(ozeros)
        for i in (3, 4):  # NaN positions of the principal and unwrapped phases
            assert np.array_equal(np.isnan(cols[i]), np.isnan(ocols[i]))
        for i in (1, 2, 6, 7, 8):  # sp and Bloch
            assert np.max(np.abs(cols[i] - ocols[i])) <= 1e-12
        for row in zip(*cols[9:], *ocols[9:]):
            assert pl.SO3Point(np.array(row[:3]), row[3]).same_rotation(
                pl.SO3Point(np.array(row[4:7]), row[7]))


class TestSeriesDynamicalPhase:
    @settings(max_examples=200, deadline=None)
    @given(series_schedules(), st.integers(2, 50))
    def test_segment_ends_are_the_core_fold(self, sched, steps):
        rho, bounds = pl.core._exact_inputs(sched.initial, sched)
        got = outcome(pl.phases._series_columns, rho, bounds, pl.core._zero_runs(rho, bounds),
                      steps)
        if got[0] == "raised":
            return
        rates, ends = pl.core._dynamical_fold(rho, bounds)
        fold = [0.0]
        for rate, d in zip(rates, bounds[3]):  # left to right, one segment at a time
            fold.append(fold[-1] + rate * d)
        assert list(map(float.hex, ends)) == list(map(float.hex, fold))
        dyn = got[1][0][5].tolist()
        assert list(map(float.hex, dyn[::steps - 1])) == list(map(float.hex, ends))
        assert dyn[-1].hex() == pl.dynamical_phase(sched.initial, sched).hex()


class TestPhaseBreakdownValue:
    """``PhaseBreakdown`` is an immutable value: dataclass-style ``repr``,
    equality and hashing by value, and never equal to a plain tuple."""

    FIELDS = (math.pi, 0.25, -0.5, 3, "odd", False, 1e-16)

    def test_repr(self):
        b = pl.PhaseBreakdown(*self.FIELDS[:6], math.nan)
        assert repr(b) == ("PhaseBreakdown(total=3.141592653589793, dynamical=0.25, "
                           "geometric=-0.5, crossings=3, parity='odd', degenerate=False, "
                           "closure_residual=nan)")

    def test_value_equality_and_hash(self):
        a = pl.PhaseBreakdown(*self.FIELDS)
        b = pl.PhaseBreakdown(total=math.pi, dynamical=0.25, geometric=-0.5, crossings=3,
                              parity="odd", degenerate=False, closure_residual=1e-16)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != pl.PhaseBreakdown(*self.FIELDS[:3], 4, "even", False, 1e-16)
        assert a != self.FIELDS and self.FIELDS != a
        assert (a == self.FIELDS) is False
        assert a.total == math.pi and a.parity == "odd" and a.closure_residual == 1e-16

    def test_fields_cannot_be_assigned_or_deleted(self):
        b = pl.PhaseBreakdown(*self.FIELDS)
        for field in ("total", "crossings", "closure_residual"):
            with pytest.raises(AttributeError):
                setattr(b, field, 0)
            with pytest.raises(AttributeError):
                delattr(b, field)
        assert b == pl.PhaseBreakdown(*self.FIELDS)

    def test_copy_and_pickle_are_equal(self):
        b = pl.PhaseBreakdown(*self.FIELDS)
        assert copy.copy(b) == b and copy.deepcopy(b) == b
        assert pickle.loads(pickle.dumps(b)) == b
