"""The Bloch-vector/quaternion exact core against the 2x2-matrix oracles,
and the crossing flags it feeds into the sampled series.

The exact functions run on the boundary products as unit quaternions and
the reduced state as its Pauli components; ``tests/helpers.py`` keeps the
matrix forms (``np.trace``, ``pauli_dot``, ``eigh``) as oracles, on the
numpy-only matrices of ``tests/matrices.py``.
"""

import contextlib
import copy
import io
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phaselab as pl
from helpers import (
    RUN_FIELDS,
    SO3Point,
    cyclic_completion,
    explicit_bloch,
    matrix_boundaries,
    matrix_dynamical_phase,
    matrix_overlap_zero_times,
    matrix_phase_breakdown,
    matrix_readout_probability,
    matrix_series_columns,
    matrix_topological_crossings,
)
from matrices import make_two_qubit
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


def series_columns(sched, steps):
    """``phases._series_columns`` as ``(columns, flags, zeros)``, as
    ``matrix_series_columns`` returns."""
    rho, bounds = pl.core._exact_inputs(sched)
    series = pl.phases._series_columns(rho, bounds, *pl.core._scan(rho, bounds)[1:], steps)
    return (tuple(getattr(series, f) for f in RUN_FIELDS[:-1]), series.crossing_flag,
            series.crossings)


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
    lambda v: make_two_qubit(*(complex(v[i], v[i + 1]) for i in range(0, 8, 2))))
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
        b0 = explicit_bloch(rho)
        segs = tuple(segment(sign * b0, d) for sign, d in draw(
            st.lists(st.tuples(st.sampled_from([1.0, -1.0]), DURATIONS), min_size=1, max_size=3)))
    elif kind == "antipode":
        u = pl.unitary_at(pl.RotationSchedule(segs, qubit, state), math.inf)
        mid = explicit_bloch(rho) + explicit_bloch(u @ rho @ u.conj().T)
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
        got, want = outcome(pl.phase_breakdown, sched), outcome(matrix_phase_breakdown, s0, sched)
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
        assert mod_2pi_distance(pl.dynamical_phase(sched),
                                matrix_dynamical_phase(s0, sched)) <= PHASE_TOL
        assert abs(pl.readout_probability(sched)
                   - matrix_readout_probability(s0, sched)) <= PHASE_TOL
        assert pl.topological_crossings(sched) == matrix_topological_crossings(s0, sched)

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
        assert pl.topological_crossings(sched) == matrix_topological_crossings(mes, sched)
        b = pl.phase_breakdown(sched)
        assert b.degenerate and (b.crossings, b.parity) == (
            matrix_phase_breakdown(mes, sched).crossings, matrix_phase_breakdown(mes, sched).parity)

    def test_junction_zero_with_slopes_at_right_angles_is_a_touch(self):
        # a product state turned to its antipode about y, nudged about x and
        # back, then returned about -y: at both antipode junctions the slopes
        # are at right angles, and rounding alone made the last one a crossing
        s0 = make_two_qubit(0.0, -math.sin(0.5), 0.0, math.cos(0.5))
        y_axis, nudge = (0.0, 1.0, 0.0), 0.0546875
        sched = pl.RotationSchedule(
            (segment(y_axis, math.pi), segment(X_AXIS, nudge),
             segment((-1.0, 0.0, 0.0), nudge), segment((0.0, -1.0, 0.0), math.pi)), 1, s0)
        assert pl.topological_crossings(sched) == (0, "even")
        assert matrix_topological_crossings(s0, sched) == (0, "even")
        assert pl.phase_breakdown(sched).crossings == 0


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


# |sp| = 1e-9 at t = 2 + 2 pi up to rounding: the core's |sp| lands just
# above ORTHOGONALITY_EPS, the oracle's 2.2e-17 below it
THRESHOLD_TIE = pl.RotationSchedule(
    (segment(X_AXIS, 1.0), segment((0.0, 1.0, 0.0), 0.5 * math.pi),
     segment((0.0, -1.0, 0.0), 0.5 * math.pi), segment((-1.0, 0.0, 0.0), 1.0),
     segment(X_AXIS, 2.0 * math.pi)),
    1, make_two_qubit(0j, -5e-10 + 0j, 0j, 1 + 0j))

# three quarter turns about z nudged 1e-9 towards y after a quarter turn
# about z: the last sample is a 1.4e-9 turn, whose axis the two roundings
# decode 3e-8 apart
NEAR_IDENTITY = pl.RotationSchedule(
    (segment(Z_AXIS, 0.5 * math.pi), segment((0.0, 1e-9, 1.0), 1.5 * math.pi)),
    1, make_two_qubit(1, 0, 0, 1))

# below this angle a rounding of 1e-16 in v moves the axis by more than
# same_rotation's 1e-9
NEAR_IDENTITY_ANGLE = 1e-6


class TestZeroTimesEquality:
    """``ZeroTimes`` compares its ``size``, which may pass ``sys.maxsize``
    where ``len`` raises OverflowError, and two ``ZeroTimes`` of equal
    ``starts`` and ``runs`` compare equal without a loop over the zeros."""

    def test_size_past_maxsize_against_a_list(self):
        zeros = pl.core.ZeroTimes([0.0], [(0, 1.0, 2**70)])
        assert zeros.size > sys.maxsize
        assert not zeros == [1.0]
        assert zeros != pl.core.ZeroTimes([0.0], [(0, 1.0, 1)])

    def test_size_past_maxsize_against_itself(self):
        zeros = pl.core.ZeroTimes([0.0], [(0, 1.0, 2**70)])
        assert zeros == zeros

    def test_equal_runs_past_maxsize(self):
        # two distinct sequences of 2**70 equal zeros compare by their runs,
        # not element by element; a fresh interpreter, so a hang fails
        code = ("from phaselab.core import ZeroTimes as Z\n"
                "a, b = Z([0.0], [(0, 1.0, 2**70)]), Z([0.0], [(0, 1.0, 2**70)])\n"
                "print(a == b, a == Z([0.0], [(0, 1.5, 2**70)]), a == Z([1.0], [(0, 1.0, 2**70)]))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pl.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30)
        assert proc.stdout.split() == ["True", "False", "False"], proc.stderr


class TestAxisNearUnit:
    """An axis within 1e-9 of unit length, which the exact core accepts, is
    scaled to unit length, so the sampled path accepts it too."""

    @pytest.mark.parametrize("axis,durations", [
        ((0.0, 0.0, 1.0 + 9e-10), [2.0 * math.pi]),
        ((0.0, 0.0, 1.0 + 4e-10), [math.pi, math.pi]),
    ])
    def test_sampled_path_agrees_with_the_exact_core(self, axis, durations):
        s0 = pl.schmidt_state(0.3, 0.0)
        sched = pl.RotationSchedule(tuple(pl.RotationSegment(axis, d) for d in durations), 1, s0)
        series = pl.phase_samples(sched, 50)
        assert series.phase_total_principal[-1] == pl.phase_breakdown(sched).total
        unit = pl.RotationSchedule(tuple(pl.RotationSegment((0.0, 0.0, 1.0), d)
                                         for d in durations), 1, s0)
        got, want = pl.so3_path(sched, 50), pl.so3_path(unit, 50)
        assert got.times.tolist() == want.times.tolist()
        assert got.cos_half_angle.tolist() == want.cos_half_angle.tolist()
        assert got.crossings == want.crossings

    def test_unit_axis_kept_bit_for_bit(self):
        axis = (0.6, 0.0, 0.8000000000001)  # |axis| - 1 about 8e-14
        assert pl.core._unit_axis(axis) == axis
        assert pl.core._unit_axis((0.0, 0.0, 1.0 + 9e-10)) == (0.0, 0.0, 1.0)


class TestSeriesAgainstMatrixOracle:
    @settings(max_examples=200, deadline=None)
    @given(series_schedules(), st.integers(2, 50))
    @example(THRESHOLD_TIE, 3)
    @example(NEAR_IDENTITY, 2)
    def test_quaternion_series_matches_the_matrix_series(self, sched, steps):
        s0 = sched.initial
        got = outcome(series_columns, sched, steps)
        want = outcome(matrix_series_columns, s0, sched, steps)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] is want[1]
            return
        (cols, flags, zeros), (ocols, oflags, ozeros) = got[1], want[1]
        for i in (0, 5):  # t, phase_dyn
            assert np.array_equal(cols[i], ocols[i])
        assert np.array_equal(flags, oflags) and list(zeros) == list(ozeros)
        # NaN positions of the principal and unwrapped phases, except where
        # the oracle's |sp| is within 1e-12 of the threshold: there the two
        # roundings may fall on either side of it
        tie = np.abs(np.hypot(ocols[1], ocols[2]) - pl.ORTHOGONALITY_EPS) <= 1e-12
        for i in (3, 4):
            assert np.array_equal(np.isnan(cols[i])[~tie], np.isnan(ocols[i])[~tie])
        for i in (1, 2, 6, 7, 8):  # sp and Bloch
            assert np.max(np.abs(cols[i] - ocols[i])) <= 1e-12
        for row in zip(*cols[9:], *ocols[9:]):
            p, q = SO3Point(np.array(row[:3]), row[3]), SO3Point(np.array(row[4:7]), row[7])
            # near the identity the axis is ill-conditioned, the ball coordinates are not
            near = max(p.angle, q.angle) <= NEAR_IDENTITY_ANGLE
            assert p.same_rotation(q) or (
                near and np.linalg.norm(p.displacement() - q.displacement()) <= 1e-9)


class TestSeriesDynamicalPhase:
    @settings(max_examples=200, deadline=None)
    @given(series_schedules(), st.integers(2, 50))
    def test_segment_ends_are_the_core_fold(self, sched, steps):
        rho, bounds = pl.core._exact_inputs(sched)
        _, rates, ends, runs = pl.core._scan(rho, bounds)
        got = outcome(pl.phases._series_columns, rho, bounds, rates, ends, runs, steps)
        if got[0] == "raised":
            return
        fold = [0.0]
        for rate, d in zip(rates, bounds[3]):  # left to right, one segment at a time
            fold.append(fold[-1] + rate * d)
        assert list(map(float.hex, ends)) == list(map(float.hex, fold))
        dyn = got[1].phase_dyn.tolist()
        assert list(map(float.hex, dyn[::steps - 1])) == list(map(float.hex, ends))
        assert dyn[-1].hex() == pl.dynamical_phase(sched).hex()


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


class TestThresholdEdges:
    """The eigenvalue-gap and orthogonality thresholds are inclusive: a
    value of exactly 1e-9 is degenerate (or orthogonal), the next float
    above it is not. Both are exact: ``sqrt(g * g) == g`` and
    ``abs(complex(g, 0.0)) == g`` at these values. The overflow guard of
    ``_rescaled`` is exclusive: it divides only above 1e150."""

    Z_TURN = pl.core._quaternions((segment(Z_AXIS, 2.0 * math.pi),))
    ABOVE = math.nextafter(1e-9, 1.0)

    def breakdown(self, gap):
        return pl.PhaseBreakdown(*pl.core._breakdown((1.0, 0.0, 0.0, gap), self.Z_TURN))

    def test_eigenvalue_gap_at_the_threshold_is_degenerate(self):
        b = self.breakdown(1e-9)
        assert b.degenerate and b.geometric == 0.0 and math.isnan(b.closure_residual)

    def test_eigenvalue_gap_just_above_the_threshold_is_not(self):
        b = self.breakdown(self.ABOVE)
        assert not b.degenerate and b.closure_residual == 0.0

    def test_overlap_at_the_orthogonality_threshold_has_no_phase(self):
        assert math.isnan(pl.core._overlap_phase(complex(1e-9, 0.0)))
        assert pl.core._overlap_phase(complex(self.ABOVE, 0.0)) == 0.0

    def test_rescaling_starts_above_1e150(self):
        # the rescaled parts are normalized afterwards, so no public path
        # shows on which side of 1e150 the division starts
        parts = (1e150, 0.5, -2.0)
        assert pl.core._rescaled(parts) is parts
        above = math.nextafter(1e150, math.inf)
        assert pl.core._rescaled((0.5, -above)) == (0.5 / above, -1.0)


def scalar_unitary_samples(bounds, steps):
    """``schedule._unitary_samples`` one sample at a time: ``math.sin`` and
    ``math.cos`` of the half angle and ``core._product`` on floats, each
    segment's last sample its boundary."""
    bt, bq, axes, durations = bounds
    per = steps - 1
    times, quats = [0.0], [bq[0]]
    for k, (d, (nx, ny, nz)) in enumerate(zip(durations, axes)):
        delta = d / per
        for j in range(1, per):
            half = 0.5 * (delta * j)
            s = math.sin(half)
            times.append(bt[k] + delta * j)
            quats.append(pl.core._product(math.cos(half), s * nx, s * ny, s * nz, bq[k]))
        times.append(bt[k + 1])
        quats.append(bq[k + 1])
    return times, quats


def hexes(values) -> list:
    return [float(x).hex() for x in values]


class TestNumpyMatchesScalarMath:
    """numpy's ``sin``, ``cos`` and ``hypot`` in the sampled series give
    what scalar ``math`` gives, bit for bit: the samples' quaternions, and
    the samples whose overlap is defined (``|sp| > ORTHOGONALITY_EPS``)."""

    def check(self, sched, steps):
        rho, bounds = pl.core._exact_inputs(sched)
        try:
            times, quats = pl.schedule._unitary_samples(bounds, steps)
        except pl.PhaseLabError:
            return
        want_t, want_q = scalar_unitary_samples(bounds, steps)
        assert hexes(times) == hexes(want_t)
        for row, want in zip(quats, zip(*want_q)):
            assert hexes(row) == hexes(want)
        series = pl.phases._series_columns(rho, bounds, *pl.core._scan(rho, bounds)[1:], steps)
        defined = [math.hypot(re, im) > pl.ORTHOGONALITY_EPS
                   for re, im in zip(series.sp_re.tolist(), series.sp_im.tolist())]
        assert (~np.isnan(series.phase_total_principal)).tolist() == defined

    @pytest.mark.parametrize("name", ["mes_minus", "mes_plus", "partial_z_turn"])
    def test_demos(self, name):
        with open(os.path.join(DEMOS, f"{name}.sched"), encoding="utf-8") as fh:
            self.check(pl.parse_schedule(fh.read()), pl.DEFAULT_SAMPLES)

    @settings(max_examples=100, deadline=None)
    @given(series_schedules(), st.integers(2, 50))
    @example(THRESHOLD_TIE, 3)
    def test_schedules(self, sched, steps):
        self.check(sched, steps)


class TestZeroTimesRepr:
    def test_repr_reads_its_arguments(self):
        zeros = pl.core.ZeroTimes([0.0, 1.5], [(1, 0.25, 3)])
        assert repr(zeros) == "ZeroTimes(starts=[0.0, 1.5], runs=[(1, 0.25, 3)])"

    @pytest.mark.parametrize("name", ["phase_samples", "so3_path"])
    def test_sampled_records_repr_alike_each_time(self, name):
        with open(os.path.join(DEMOS, "mes_minus.sched"), encoding="utf-8") as fh:
            sched = pl.parse_schedule(fh.read())
        first, again = (repr(getattr(pl, name)(sched, 2)) for _ in range(2))
        assert first == again and "0x" not in first
        assert "crossings=ZeroTimes(starts=" in first


def test_zero_times_compare_unequal_to_a_non_sequence():
    zeros = pl.core.ZeroTimes([0.0], [(0, 1.0, 1)])
    assert zeros.__eq__(5) is NotImplemented
    assert zeros != 5 and not zeros == "1.0"


# each argument rule has one home, core._qubit or core._schmidt_pair, so
# every function that takes the argument raises the same DomainError
STATE = (0.6, 0.0, 0.0, 0.8)
QUBIT_CALLS = {
    "phase_breakdown": lambda q: pl.phase_breakdown(pl.RotationSchedule((), q, STATE)),
    "serialize_schedule": lambda q: pl.serialize_schedule(pl.RotationSchedule((), q, STATE)),
    "apply_local": lambda q: pl.apply_local(np.eye(2), q, STATE),
    "reduced_density": lambda q: pl.reduced_density(STATE, q),
}
# float()'s own message, after the colon, differs between Python versions
BAD_PAIRS = [((1.5, 0.0), r"lambda0 must lie in \[0, 1\]$"),
             ((0.5, math.inf), "theta must be finite$"),
             ((0.5, math.nan), "theta must be finite$"),
             (("0.5", 0.0), "lambda0 must be a real number: got str$"),
             ((np.array([0.5]), 0.0), "lambda0 must be a real number: ")]


class TestOneMessagePerRule:
    @pytest.mark.parametrize("qubit", [3, np.array([1, 2]), "1", math.nan],
                             ids=["3", "array", "str", "nan"])
    @pytest.mark.parametrize("name", sorted(QUBIT_CALLS))
    def test_qubit(self, name, qubit):
        word = "keep" if name == "reduced_density" else "qubit"
        with pytest.raises(pl.DomainError, match=f"^{word} must be 1 or 2$"):
            QUBIT_CALLS[name](qubit)

    @pytest.mark.parametrize("pair, message", BAD_PAIRS,
                             ids=["lambda0", "inf", "nan", "str", "array"])
    @pytest.mark.parametrize("name", ["schmidt_state", "fixed_axis_closed_forms"])
    def test_schmidt_pair(self, name, pair, message):
        with pytest.raises(pl.DomainError, match=f"^{message}"):
            getattr(pl, name)(*pair)
