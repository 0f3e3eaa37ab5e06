"""Builtin trajectory tables, the schedule file format, and sampling."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import phaselab as pl
from helpers import evolve, random_schedule, random_state, sampled_unitaries
from matrices import evolution_operator

Z_AXIS = np.array([0.0, 0.0, 1.0])
STEP = 2 * math.pi / 3


def product_of(segments):
    m = np.eye(2, dtype=complex)
    for seg in segments:
        m = evolution_operator(seg.axis, seg.duration) @ m
    return m


class TestBuiltins:
    def test_plus_table(self):
        segs = pl.builtin_plus()
        assert len(segs) == 4
        assert abs(sum(s.duration for s in segs) - 8 * math.pi / 3) < 1e-15
        d = math.sqrt(1 / 3)
        want = [(-d, -d, -d), (d, -d, -d), (-d, -d, d), (-d, d, d)]
        for seg, axis in zip(segs, want):
            assert_allclose(seg.axis, axis, atol=1e-15)
            assert abs(seg.duration - STEP) < 1e-15
            assert abs(np.linalg.norm(seg.axis) - 1.0) < 1e-15

    def test_minus_table(self):
        segs = pl.builtin_minus()
        assert len(segs) == 4
        d = math.sqrt(1 / 3)
        want = [(-d, -d, -d), (d, -d, -d), (-d, -d, -d), (d, -d, -d)]
        for seg, axis in zip(segs, want):
            assert_allclose(seg.axis, axis, atol=1e-15)
            assert abs(seg.duration - STEP) < 1e-15

    def test_plus_total_is_identity(self):
        assert np.max(np.abs(product_of(pl.builtin_plus()) - np.eye(2))) < 1e-12

    def test_minus_total_is_minus_identity(self):
        assert np.max(np.abs(product_of(pl.builtin_minus()) + np.eye(2))) < 1e-12

    def test_plus_on_bell_state_returns_ray_with_zero_phase(self):
        mes = pl.schmidt_state(0.5, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_plus()), 1, mes)
        phase = pl.total_phase(mes, evolve(sched))
        assert abs(phase) < 1e-12

    def test_minus_on_bell_state_gains_half_turn_phase(self):
        mes = pl.schmidt_state(0.5, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes)
        phase = pl.total_phase(mes, evolve(sched))
        assert abs(phase - math.pi) < 1e-12

    def test_minus_reaches_border_at_two_thirds(self):
        mes = pl.schmidt_state(0.5, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes)
        u = pl.unitary_at(sched, 4 * math.pi / 3)
        assert abs((u[0, 0] + u[1, 1]).real) < 1e-9

    @pytest.mark.parametrize("builder", [pl.builtin_plus, pl.builtin_minus])
    def test_cyclic_on_any_schmidt_state(self, builder):
        rng = np.random.default_rng(40)
        for _ in range(25):
            s = pl.schmidt_state(float(rng.uniform(0, 1)), float(rng.uniform(-7, 7)))
            sched = pl.RotationSchedule(tuple(builder()), 1, s)
            v = pl.inner_product(s, evolve(sched))
            assert abs(abs(v) - 1.0) < 1e-9


GOOD = """phaselab-schedule v1
# comment line
state schmidt 0.5 0.0
evolve-qubit 1
builtin minus
"""


class TestParser:
    def test_builtin_keyword_expansion(self):
        sched = pl.parse_schedule(GOOD)
        assert len(sched.segments) == 4
        assert sched.evolved_qubit == 1
        assert_allclose(sched.initial, pl.schmidt_state(0.5, 0.0), atol=0)
        for a, b in zip(sched.segments, pl.builtin_minus()):
            assert_allclose(a.axis, b.axis, atol=0)

    def test_single_z_segment(self):
        text = "phaselab-schedule v1\nstate schmidt 0.3 0.0\nsegment 0 0 1 6.283185307179586\n"
        sched = pl.parse_schedule(text)
        assert len(sched.segments) == 1
        assert_allclose(sched.segments[0].axis, Z_AXIS, atol=0)
        assert sched.segments[0].duration == 2 * math.pi
        assert sched.evolved_qubit == 1  # default when omitted

    def test_axis_normalization(self):
        text = "phaselab-schedule v1\nstate schmidt 0.3 0.0\nsegment 1 1 1 2.094\n"
        sched = pl.parse_schedule(text)
        d = math.sqrt(1 / 3)
        assert_allclose(sched.segments[0].axis, [d, d, d], atol=1e-15)

    def test_amplitude_state(self):
        text = ("phaselab-schedule v1\n"
                "state amplitudes 1 0 0 0 0 0 1 0\n"
                "evolve-qubit 2\n")
        sched = pl.parse_schedule(text)
        r = 1 / math.sqrt(2)
        assert_allclose(sched.initial, [r, 0, 0, r], atol=1e-15)
        assert sched.evolved_qubit == 2

    def test_bad_header(self):
        with pytest.raises(pl.ParseError) as err:
            pl.parse_schedule("something else\n")
        assert err.value.line == 1

    def test_malformed_number_names_line(self):
        text = "phaselab-schedule v1\nstate schmidt 0.5 0.0\nsegment 0 0 z 1.0\n"
        with pytest.raises(pl.ParseError) as err:
            pl.parse_schedule(text)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", "1e", "0x10", ".", "1.5.2"])
    def test_number_outside_the_grammar_names_line(self, token):
        # float() takes digit-group underscores and Unicode digits; the
        # documented grammar is ASCII digits, sign, fraction, exponent
        for text in (f"state schmidt {token} 0", f"state schmidt 1 0\nsegment 0 0 1 {token}"):
            with pytest.raises(pl.ParseError, match=f"not a number: {token!r}"):
                pl.parse_schedule(f"phaselab-schedule v1\n{text}\n")

    @pytest.mark.parametrize("token,value", [
        ("7", 7.0), ("+.5", 0.5), ("2.", 2.0), ("1.5e-1", 0.15), ("1E0", 1.0)])
    def test_numbers_of_the_grammar(self, token, value):
        sched = pl.parse_schedule(f"phaselab-schedule v1\nstate schmidt 1 -0.5e0\n"
                                  f"segment -1 0 0 {token}\n")
        assert sched.segments[0].duration == value
        assert sched.segments[0].axis == (-1.0, 0.0, 0.0)

    def test_unknown_directive(self):
        with pytest.raises(pl.ParseError):
            pl.parse_schedule("phaselab-schedule v1\nrotate 0 0 1 1\n")

    def test_schmidt_state_without_theta(self):
        with pytest.raises(pl.ParseError, match="^line 2: state schmidt takes <lambda0> <theta>$"):
            pl.parse_schedule("phaselab-schedule v1\nstate schmidt 0.5\n")

    def test_file_of_comments_only_is_empty(self):
        with pytest.raises(pl.ParseError, match="^line 1: empty schedule") as err:
            pl.parse_schedule("# a comment\n\n   # another\n")
        assert err.value.line == 1

    def test_missing_state(self):
        with pytest.raises(pl.ValidationError):
            pl.parse_schedule("phaselab-schedule v1\nsegment 0 0 1 1.0\n")

    def test_duplicate_state(self):
        text = "phaselab-schedule v1\nstate schmidt 0.5 0\nstate schmidt 0.4 0\n"
        with pytest.raises(pl.ValidationError):
            pl.parse_schedule(text)

    def test_lambda_out_of_range(self):
        with pytest.raises(pl.ValidationError):
            pl.parse_schedule("phaselab-schedule v1\nstate schmidt 1.5 0.0\n")

    def test_zero_axis_rejected(self):
        text = "phaselab-schedule v1\nstate schmidt 0.5 0\nsegment 0 0 0 1.0\n"
        with pytest.raises(pl.ValidationError):
            pl.parse_schedule(text)

    def test_nonpositive_duration_rejected(self):
        text = "phaselab-schedule v1\nstate schmidt 0.5 0\nsegment 0 0 1 0.0\n"
        with pytest.raises(pl.ValidationError):
            pl.parse_schedule(text)

    def test_durations_summing_past_float_max_rejected(self):
        text = ("phaselab-schedule v1\nstate schmidt 0.5 0\nsegment 0 0 1 1e308\n"
                "builtin plus\nsegment 0 0 1 1e308\nsegment 0 0 1 1.0\n")
        with pytest.raises(pl.ValidationError, match="line 5: durations sum past"):
            pl.parse_schedule(text)

    def test_durations_summing_to_float_max_accepted(self):
        text = ("phaselab-schedule v1\nstate schmidt 0.5 0\nsegment 0 0 1 1e308\n"
                "segment 0 0 1 7e307\n")
        assert pl.total_duration(pl.parse_schedule(text)) == 1.7e308

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.one_of(st.floats(1e-3, 10.0), st.floats(1e307, 1.7976931348623157e308))
        .map(lambda d: f"segment 0 0 1 {d!r}"),
        st.sampled_from(["builtin plus", "builtin minus", "evolve-qubit 2", "# note", ""]),
    ), max_size=12))
    def test_running_total_is_the_left_fold(self, body):
        # the overflow error names the line whose segments first make the
        # left-to-right fold infinite; otherwise the fold is total_duration
        lines = ["phaselab-schedule v1", "state schmidt 0.5 0", *body]
        end, overflow = 0.0, None
        for lineno, line in enumerate(lines, start=1):
            if line.startswith("segment"):
                end = end + float(line.split()[-1])
            elif line.startswith("builtin"):
                for d in [STEP] * 4:
                    end = end + d
            if overflow is None and math.isinf(end):
                overflow = lineno
        text = "\n".join(lines) + "\n"
        if overflow is not None:
            with pytest.raises(pl.ValidationError, match=f"^line {overflow}: durations sum past"):
                pl.parse_schedule(text)
        else:
            assert pl.total_duration(pl.parse_schedule(text)) == end

    def test_running_total_rounds_as_the_fold_does(self):
        # each 9e291 is below half an ulp of the largest float, so the fold
        # stays finite where an exact sum of the durations would overflow
        text = ("phaselab-schedule v1\nstate schmidt 0.5 0\nsegment 0 0 1 1.7976931348623157e308\n"
                + "evolve-qubit 1\nsegment 0 0 1 9e291\n" * 3)
        assert pl.total_duration(pl.parse_schedule(text)) == 1.7976931348623157e308

    @pytest.mark.parametrize("big", ["1e200", "1.7976931348623157e308"])
    def test_huge_axis_and_amplitudes_normalized(self, big):
        text = (f"phaselab-schedule v1\nstate amplitudes {big} 0 0 0 0 0 -{big} 0\n"
                f"segment {big} {big} -{big} 1.0\n")
        sched = pl.parse_schedule(text)
        assert_allclose(sched.initial, np.array([1, 0, 0, -1]) / math.sqrt(2), atol=1e-15)
        assert_allclose(sched.segments[0].axis, np.array([1, 1, -1]) / math.sqrt(3), atol=1e-15)

    def test_zero_norm_amplitudes_rejected(self):
        text = "phaselab-schedule v1\nstate amplitudes 0 0 0 0 0 0 0 0\n"
        with pytest.raises(pl.ValidationError):
            pl.parse_schedule(text)

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            sched = random_schedule(rng)
            text = pl.serialize_schedule(sched)
            again = pl.parse_schedule(text)
            assert again.evolved_qubit == sched.evolved_qubit
            assert np.array_equal(again.initial, sched.initial)
            assert len(again.segments) == len(sched.segments)
            for a, b in zip(again.segments, sched.segments):
                assert np.array_equal(a.axis, b.axis)
                assert a.duration == b.duration
            # and the serialized form is a fixed point
            assert pl.serialize_schedule(again) == text

    def test_round_trip_of_a_numpy_duration(self):
        seg = pl.RotationSegment(Z_AXIS, np.float64(2 * math.pi))
        text = pl.serialize_schedule(pl.RotationSchedule((seg,), 1, (1, 0, 0, 0)))
        assert text.endswith("\nsegment 0.0 0.0 1.0 6.283185307179586\n")
        again = pl.parse_schedule(text)
        assert again.segments[0].duration == 2 * math.pi
        assert pl.serialize_schedule(again) == text


class TestSampling:
    def test_empty_schedule(self):
        sched = pl.RotationSchedule((), 1, pl.schmidt_state(0.5, 0.0))
        pairs = sampled_unitaries(sched, 5)
        assert len(pairs) == 1
        assert pairs[0][0] == 0.0
        assert_allclose(pairs[0][1], np.eye(2), atol=0)

    def test_single_turn_three_samples(self):
        sched = pl.RotationSchedule(
            (pl.RotationSegment(Z_AXIS, 2 * math.pi),), 1, pl.schmidt_state(0.5, 0.0))
        pairs = sampled_unitaries(sched, 3)
        assert [t for t, _ in pairs] == [0.0, math.pi, 2 * math.pi]
        assert_allclose(pairs[0][1], np.eye(2), atol=0)
        assert_allclose(pairs[1][1], evolution_operator(Z_AXIS, math.pi), atol=1e-15)
        assert_allclose(pairs[2][1], -np.eye(2), atol=1e-12)

    def test_strictly_increasing_times(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            sched = random_schedule(rng)
            times = [t for t, _ in sampled_unitaries(sched, 7)]
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_boundary_exactness_independent_of_sampling(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            sched = random_schedule(rng, max_segments=4)
            prods = [np.eye(2, dtype=complex)]
            for seg in sched.segments:
                prods.append(evolution_operator(seg.axis, seg.duration) @ prods[-1])
            boundaries = np.cumsum([0.0] + [s.duration for s in sched.segments])
            for spp in (2, 3, 17):
                pairs = sampled_unitaries(sched, spp)
                for tb, want in zip(boundaries, prods):
                    got = min(pairs, key=lambda p: abs(p[0] - tb))[1]
                    assert np.max(np.abs(got - want)) < 1e-12

    def test_boundary_quaternion_off_the_unit_sphere_raises(self):
        # det U = w^2 + v . v of every sample must be 1 within 1e-9
        bt, bq, axes, durations = pl.schedule._quaternions((pl.RotationSegment(Z_AXIS, 1.0),))

        def scaled(k):
            return bt, [bq[0], tuple(k * x for x in bq[1])], axes, durations

        pl.schedule._unitary_samples(scaled(1.0 + 2.5e-10), 3)  # det 1 + 5e-10
        with pytest.raises(pl.NotSpecialUnitary, match="differs from 1 by more than 1e-9"):
            pl.schedule._unitary_samples(scaled(1.0 + 1e-9), 3)  # det 1 + 2e-9

    def test_segments_end_on_the_exact_boundary_quaternions(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            sched = random_schedule(rng, max_segments=4)
            bounds = pl.schedule._quaternions(sched.segments)
            for spp in (2, 4, 8, 50):  # (d / 3) * 3 is not always d
                times, quats = pl.schedule._unitary_samples(bounds, spp)
                ends = slice(None, None, spp - 1)
                assert times[ends].tolist() == bounds[0]
                assert list(zip(*quats[:, ends].tolist())) == bounds[1]

    def test_builtin_plus_boundary_products(self):
        sched = pl.RotationSchedule(tuple(pl.builtin_plus()), 1, pl.schmidt_state(0.5, 0.0))
        pairs = sampled_unitaries(sched, 2)
        want = np.eye(2, dtype=complex)
        for k, seg in enumerate(sched.segments):
            want = evolution_operator(seg.axis, seg.duration) @ want
            assert np.max(np.abs(pairs[k + 1][1] - want)) < 1e-12

    def test_unitary_at_matches_samples(self):
        rng = np.random.default_rng(44)
        sched = random_schedule(rng, max_segments=3)
        for t, u in sampled_unitaries(sched, 9):
            assert np.max(np.abs(pl.unitary_at(sched, t) - u)) < 1e-12

    @pytest.mark.parametrize("t", ["x", b"1", None, 1j, [0.5]], ids=repr)
    def test_unitary_at_time_must_be_a_real_number(self, t):
        sched = random_schedule(np.random.default_rng(45), max_segments=3)
        with pytest.raises(pl.DomainError, match="^t must be a real number"):
            pl.unitary_at(sched, t)

    def test_unitary_at_clamps_infinite_times_and_rejects_nan(self):
        sched = random_schedule(np.random.default_rng(45), max_segments=3)
        pairs = sampled_unitaries(sched, 2)
        assert np.array_equal(pl.unitary_at(sched, -math.inf), pairs[0][1])
        assert np.array_equal(pl.unitary_at(sched, math.inf), pairs[-1][1])
        with pytest.raises(pl.DomainError, match="nan"):
            pl.unitary_at(sched, math.nan)

    def test_samples_per_segment_validated(self):
        sched = pl.RotationSchedule(
            (pl.RotationSegment(Z_AXIS, 1.0),), 1, pl.schmidt_state(0.5, 0.0))
        with pytest.raises(pl.DomainError):
            sampled_unitaries(sched, 1)

    @pytest.mark.parametrize("sample", [pl.phase_samples, pl.so3_path], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("samples", [2.5, 3.0, "3", None], ids=repr)
    def test_samples_per_segment_must_be_an_integer(self, sample, samples):
        sched = pl.RotationSchedule((pl.RotationSegment(Z_AXIS, 1.0),), 1, (1, 0, 0, 0))
        with pytest.raises(pl.DomainError, match="^samples_per_segment must be an integer, got "):
            sample(sched, samples)


class TestValueClasses:
    """``RotationSegment`` and ``RotationSchedule``: converting constructors,
    dataclass-style ``repr``, identity equality and hashing, no assignment."""

    def test_constructors_convert(self):
        seg = pl.RotationSegment(np.array([0, 0, 1]), 1.5)
        assert seg.axis == (0.0, 0.0, 1.0) and type(seg.axis[0]) is float
        assert seg.duration == 1.5
        sched = pl.RotationSchedule(segments=(seg,), evolved_qubit=2, initial=[1, 0, 0, 0])
        assert sched.initial == (1 + 0j, 0j, 0j, 0j) and type(sched.initial[1]) is complex
        assert sched.segments == (seg,) and sched.evolved_qubit == 2

    # a string or bytes is not read as its characters, and a value that is
    # not a sequence of numbers raises DomainError, not a bare Python error
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: pl.RotationSegment("100", math.pi), id="str-axis"),
        pytest.param(lambda: pl.RotationSchedule((), 1, "1234"), id="str-state"),
        pytest.param(lambda: pl.RotationSegment(b"100", math.pi), id="bytes-axis"),
        pytest.param(lambda: pl.RotationSchedule((), 1, b"1234"), id="bytes-state"),
        pytest.param(lambda: pl.RotationSchedule((), 1, bytearray(b"1234")), id="bytearray-state"),
        pytest.param(lambda: pl.RotationSchedule((), 1, np.array("1234")), id="str-ndarray-state"),
        pytest.param(lambda: pl.RotationSchedule((), 1, "abc"), id="malformed-str-state"),
        pytest.param(lambda: pl.RotationSchedule((), 1, ["a", 0, 0, 0]), id="str-amplitude"),
        pytest.param(lambda: pl.RotationSegment(["a", 0, 0], math.pi), id="str-component"),
        pytest.param(lambda: pl.RotationSchedule((), 1, None), id="none-state"),
        pytest.param(lambda: pl.RotationSegment(None, math.pi), id="none-axis"),
        pytest.param(lambda: pl.RotationSegment([10**400, 0, 0], math.pi), id="int-past-float"),
        # numeric strings as items, which float and complex would parse
        pytest.param(lambda: pl.RotationSegment(["1", "0", "0"], 1.0), id="str-items-axis"),
        pytest.param(lambda: pl.RotationSchedule((), 1, ["1", "0", "0", "0"]),
                     id="str-items-state"),
        pytest.param(lambda: pl.RotationSegment([b"1", 0, 0], 1.0), id="bytes-item-axis"),
        pytest.param(lambda: pl.RotationSegment([1, bytearray(b"0"), 0], 1.0),
                     id="bytearray-item-axis"),
        pytest.param(lambda: pl.RotationSegment(np.array(["1", "0", "0"]), 1.0),
                     id="str-ndarray-axis"),
        pytest.param(lambda: pl.RotationSchedule((), 1, np.array(["1", "0", "0", "0"])),
                     id="str-ndarray-items-state"),
    ])
    def test_non_numeric_values_raise_domain_error(self, make):
        with pytest.raises(pl.DomainError, match="expected a sequence of numbers"):
            make()

    @pytest.mark.parametrize("duration", [2, np.float64(1.5), np.int64(2), np.float32(0.5),
                                          np.array(1.5)], ids=repr)
    def test_duration_is_a_float(self, duration):
        seg = pl.RotationSegment(Z_AXIS, duration)
        assert type(seg.duration) is float and seg.duration == duration
        # so the exact functions return floats too
        dyn = pl.phase_breakdown(pl.RotationSchedule((seg,), 1, (1, 0, 0, 0))).dynamical
        assert type(dyn) is float

    # converted as an axis component is; the range check stays with the
    # exact functions (TestLibrarySegmentsValidated in test_phases.py)
    @pytest.mark.parametrize("duration", [
        "1", b"1", bytearray(b"1"), np.str_("1"), np.array("1"), None, 1j, [1.0],
        np.array([1.0]), np.array([1.0, 2.0]), pytest.param(10**400, id="int-past-float")],
        ids=repr)
    def test_non_real_duration_raises_domain_error(self, duration):
        with pytest.raises(pl.DomainError, match="^duration must be a real number"):
            pl.RotationSegment(Z_AXIS, duration)

    def test_repr(self):
        seg = pl.RotationSegment((0.0, 0.0, 1.0), 1.5)
        assert repr(seg) == "RotationSegment(axis=(0.0, 0.0, 1.0), duration=1.5)"
        sched = pl.RotationSchedule((seg,), 1, (1, 0, 0, 0))
        assert repr(sched) == (
            "RotationSchedule(segments=(RotationSegment(axis=(0.0, 0.0, 1.0), duration=1.5),),"
            " evolved_qubit=1, initial=((1+0j), 0j, 0j, 0j))")

    def test_identity_equality_and_hash(self):
        a, b = (pl.RotationSegment((0.0, 0.0, 1.0), 1.5) for _ in range(2))
        assert a == a and a != b and len({a, b}) == 2
        s, t = (pl.RotationSchedule((a,), 1, (1, 0, 0, 0)) for _ in range(2))
        assert s == s and s != t and len({s, t}) == 2
        assert hash(a) == object.__hash__(a) and hash(s) == object.__hash__(s)

    @pytest.mark.parametrize("make,field", [
        (lambda: pl.RotationSegment((0.0, 0.0, 1.0), 1.5), "axis"),
        (lambda: pl.RotationSegment((0.0, 0.0, 1.0), 1.5), "duration"),
        (lambda: pl.RotationSchedule((), 1, (1, 0, 0, 0)), "segments"),
        (lambda: pl.RotationSchedule((), 1, (1, 0, 0, 0)), "initial"),
    ])
    def test_fields_cannot_be_assigned_or_deleted(self, make, field):
        obj = make()
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, field) is not None

    def test_copy_and_pickle_keep_the_fields(self):
        sched = pl.RotationSchedule((pl.RotationSegment((0.0, 0.0, 1.0), 1.5),), 2, (0, 1, 0, 0))
        for again in (copy.copy(sched), copy.deepcopy(sched), pickle.loads(pickle.dumps(sched))):
            assert again is not sched and repr(again) == repr(sched)
