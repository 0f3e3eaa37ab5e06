"""Phase operations: totals, dynamical, geometric, crossings, breakdowns."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import phaselab as pl
from helpers import (
    dense_crossing_count,
    dynamical_quadrature,
    evolve,
    loop_unwrap_skipnan,
    random_axis,
    random_cyclic_schedule,
    random_mes,
    random_qubit,
    random_schedule,
    random_state,
    sampled_geometric_phase,
    triangle_solid_angle,
)
from phaselab.phases import _unwrap_skipnan

Z_AXIS = np.array([0.0, 0.0, 1.0])


def z_turn_schedule(state, turns=1):
    return pl.RotationSchedule(
        (pl.RotationSegment(Z_AXIS.copy(), 2 * math.pi * turns),), 1, state)


def latitude_path(theta, n):
    """States of a qubit at polar angle theta precessing a full turn."""
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return np.stack(
        [math.cos(theta / 2) * np.exp(-0.5j * t),
         math.sin(theta / 2) * np.exp(0.5j * t)], axis=1)


class TestTotalPhase:
    def test_self_is_zero(self):
        s = random_state(np.random.default_rng(50))
        assert pl.total_phase(s, s) == 0.0

    def test_pure_phase_factor(self):
        s = random_state(np.random.default_rng(51))
        assert abs(pl.total_phase(s, cmath.exp(1j * math.pi / 3) * s) - math.pi / 3) < 1e-14

    def test_orthogonal_is_nan(self):
        plus = pl.make_two_qubit(1, 0, 0, 1)
        minus = pl.make_two_qubit(1, 0, 0, -1)
        assert math.isnan(pl.total_phase(plus, minus))

    def test_principal_range(self):
        s = random_state(np.random.default_rng(52))
        assert pl.total_phase(s, -s) == math.pi


class TestMixedTotalPhase:
    def test_identity(self):
        rho = pl.reduced_density(random_state(np.random.default_rng(53)), 1)
        assert abs(pl.mixed_total_phase(np.eye(2, dtype=complex), rho)) < 1e-15

    def test_minus_identity(self):
        rho = pl.reduced_density(random_state(np.random.default_rng(54)), 1)
        got = pl.mixed_total_phase(-np.eye(2, dtype=complex), rho)
        assert abs(pl.principal(got - math.pi)) < 1e-15

    def test_trace_identity_with_pure_overlap(self):
        # arg<psi0|U x I|psi0> equals arg Tr[U rho_evolved] identically
        rng = np.random.default_rng(55)
        for _ in range(50):
            sched = random_schedule(rng)
            s, q = sched.initial, sched.evolved_qubit
            rho = pl.reduced_density(s, q)
            for t, u in pl.cumulative_unitaries(sched, 25):
                a = pl.total_phase(s, pl.apply_local(u, q, s))
                b = pl.mixed_total_phase(u, rho)
                if math.isnan(a) or math.isnan(b):
                    assert math.isnan(a) == math.isnan(b)
                    continue
                assert abs(pl.principal(a - b)) < 1e-10

    def test_maximally_mixed_orthogonality(self):
        u = pl.evolution_operator(Z_AXIS, math.pi)  # traceless
        assert math.isnan(pl.mixed_total_phase(u, np.eye(2) / 2))


class TestSpFormula:
    def test_zero_time(self):
        assert pl.sp_formula(0.0, Z_AXIS, [0.3, 0.0, 0.1]) == 1.0 + 0.0j

    def test_full_turn(self):
        v = pl.sp_formula(2 * math.pi, Z_AXIS, [0.0, 0.0, 0.7])
        assert abs(v + 1.0) < 1e-12

    def test_half_turn_magnitude(self):
        theta = 0.8
        s = pl.schmidt_state(0.3, theta)
        b = pl.bloch_of_density(pl.reduced_density(s, 1))
        v = pl.sp_formula(math.pi, Z_AXIS, b)
        assert abs(v.real) < 1e-15
        assert abs(abs(v) - abs(b[2])) < 1e-14
        # oracle: the actual inner product along a z rotation
        u = pl.evolution_operator(Z_AXIS, math.pi)
        want = pl.inner_product(s, pl.apply_local(u, 1, s))
        assert abs(v - want) < 1e-14

    def test_matches_inner_product_any_axis(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            s = random_state(rng)
            q = int(rng.integers(1, 3))
            axis = random_axis(rng)
            t = float(rng.uniform(0, 8))
            b = pl.bloch_of_density(pl.reduced_density(s, q))
            got = pl.sp_formula(t, axis, b)
            want = pl.inner_product(s, pl.apply_local(pl.evolution_operator(axis, t), q, s))
            assert abs(got - want) < 1e-10

    def test_bad_axis(self):
        with pytest.raises(pl.DomainError):
            pl.sp_formula(1.0, [1.0, 1.0, 0.0], [0, 0, 1])


class TestDynamicalPhase:
    def test_single_qubit_latitude_law(self):
        for theta in np.linspace(0, math.pi, 7):
            s = pl.schmidt_state(1.0, float(theta))
            assert abs(pl.dynamical_phase(s, z_turn_schedule(s)) + math.pi * math.cos(theta)) < 1e-12

    def test_no_segments_is_a_float_zero(self):
        s = pl.schmidt_state(0.3, 0.2)
        got = pl.dynamical_phase(s, pl.RotationSchedule((), 1, s))
        assert type(got) is float and got == 0.0

    def test_mes_builtins_vanish(self):
        mes = pl.schmidt_state(0.5, 0.0)
        for segs in (pl.builtin_plus(), pl.builtin_minus()):
            sched = pl.RotationSchedule(tuple(segs), 1, mes)
            assert abs(pl.dynamical_phase(mes, sched)) < 1e-12

    @pytest.mark.parametrize("lam", [0.3, 0.4])
    def test_builtin_plus_cancels_exactly(self, lam):
        s = pl.schmidt_state(lam, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_plus()), 1, s)
        assert abs(pl.dynamical_phase(s, sched)) < 1e-12

    @pytest.mark.parametrize("lam", [0.3, 0.4])
    def test_builtin_minus_exact_value(self, lam):
        # the minus table repeats its first two axes, so the four equal
        # per-segment contributions add to 4 pi (2 lam - 1) / (3 sqrt(3));
        # confirmed by brute quadrature of -<H> dt
        s = pl.schmidt_state(lam, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, s)
        got = pl.dynamical_phase(s, sched)
        want = 4 * math.pi * (2 * lam - 1) / (3 * math.sqrt(3))
        assert abs(got - want) < 1e-12
        assert abs(got - dynamical_quadrature(s, sched, 400)) < 1e-9

    def test_matches_quadrature_on_random_schedule(self):
        rng = np.random.default_rng(57)
        sched = random_schedule(rng, max_segments=3)
        got = pl.dynamical_phase(sched.initial, sched)
        assert abs(got - dynamical_quadrature(sched.initial, sched, 400)) < 1e-9


class TestGeometricPhasePure:
    def test_constant_path(self):
        q = random_qubit(np.random.default_rng(58))
        assert abs(pl.geometric_phase_pure([q, q, q, q])) < 1e-15

    @pytest.mark.parametrize("theta", [0.4, 1.0, 2.0, 2.8])
    def test_latitude_loop(self, theta):
        got = pl.geometric_phase_pure(latitude_path(theta, 100_000))
        want = -math.pi * (1 - math.cos(theta))
        assert abs(pl.principal(got - want)) < 1e-4

    def test_equator_loop(self):
        got = pl.geometric_phase_pure(latitude_path(math.pi / 2, 100_000))
        assert abs(pl.principal(got - math.pi)) < 1e-4

    def test_gauge_invariance(self):
        rng = np.random.default_rng(59)
        path = latitude_path(1.1, 300)
        before = pl.geometric_phase_pure(path)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=len(path)))
        after = pl.geometric_phase_pure(path * phases[:, None])
        assert abs(pl.principal(after - before)) < 1e-12

    def test_mesh_convergence_monotone(self):
        theta = 1.0
        want = -math.pi * (1 - math.cos(theta))
        diffs = []
        for n in (100, 200, 400, 800):
            a = pl.geometric_phase_pure(latitude_path(theta, n))
            b = pl.geometric_phase_pure(latitude_path(theta, 2 * n))
            diffs.append(abs(a - b))
        assert all(x > y for x, y in zip(diffs, diffs[1:]))
        assert abs(pl.geometric_phase_pure(latitude_path(theta, 100_000)) - want) < 1e-4

    def test_three_point_solid_angle_identity(self):
        # the three-state overlap product equals minus half the signed
        # solid angle of the geodesic triangle, exactly
        rng = np.random.default_rng(60)
        checked = 0
        while checked < 200:
            a, b, c = (random_qubit(rng) for _ in range(3))
            if min(abs(np.vdot(a, b)), abs(np.vdot(b, c)), abs(np.vdot(c, a))) < 0.1:
                continue
            checked += 1
            got = pl.geometric_phase_pure([a, b, c], closed=True)
            omega = triangle_solid_angle(
                pl.bloch_of_pure(a), pl.bloch_of_pure(b), pl.bloch_of_pure(c))
            assert abs(pl.principal(got + omega / 2)) < 1e-10

    def test_orthogonal_step_raises(self):
        with pytest.raises(pl.OrthogonalStep):
            pl.geometric_phase_pure([[1, 0], [0, 1], [1, 0]])

    def test_short_path_rejected(self):
        with pytest.raises(pl.DomainError):
            pl.geometric_phase_pure([[1, 0], [0, 1]])


class TestGeometricPhaseMixed:
    def test_pure_product_reduces_to_latitude_law(self):
        for theta in (0.0, 0.7, 1.9, math.pi):
            s = pl.schmidt_state(1.0, theta)
            got = pl.geometric_phase_mixed(s, z_turn_schedule(s))
            want = -math.pi * (1 - math.cos(theta))
            assert abs(pl.principal(got - want)) < 1e-5

    def test_equator_is_half_turn(self):
        s = pl.schmidt_state(0.3, math.pi / 2)
        got = pl.geometric_phase_mixed(s, z_turn_schedule(s))
        assert abs(pl.principal(got - math.pi)) < 1e-5

    def test_weighted_branch_at_pole(self):
        # lambda0 = 0.3, theta = 0: the weighted value is -1.4 pi, whose
        # principal representative is +0.6 pi
        s = pl.schmidt_state(0.3, 0.0)
        got = pl.geometric_phase_mixed(s, z_turn_schedule(s))
        assert abs(got - 0.6 * math.pi) < 1e-5

    def test_mes_raises_degenerate(self):
        mes = pl.schmidt_state(0.5, 0.0)
        with pytest.raises(pl.DegenerateSpectrum):
            pl.geometric_phase_mixed(mes, z_turn_schedule(mes))

    def test_eigenstate_ending_orthogonal_raises(self):
        # |00> turned by pi about x ends on |10>: <v|B|v> = cos(pi/2) ~ 6e-17
        sched = pl.parse_schedule("phaselab-schedule v1\nstate schmidt 1 0\n"
                                  "segment 1 0 0 3.141592653589793\n")
        with pytest.raises(pl.OrthogonalStep, match="ends orthogonal to its start"):
            pl.geometric_phase_mixed(sched.initial, sched)

    def test_empty_schedule_zero(self):
        s = pl.schmidt_state(0.3, 0.2)
        sched = pl.RotationSchedule((), 1, s)
        assert pl.geometric_phase_mixed(s, sched) == 0.0

    def test_matches_sampled_overlap_product(self):
        # the exact Pancharatnam form against the sampled Bargmann oracle
        rng = np.random.default_rng(67)
        done = 0
        while done < 40:
            sched = random_cyclic_schedule(rng, extra_turn=bool(rng.integers(0, 2)))
            if pl.concurrence(sched.initial) > 1 - 1e-6:
                continue
            done += 1
            got = pl.geometric_phase_mixed(sched.initial, sched)
            want = sampled_geometric_phase(sched.initial, sched, 2000)
            assert abs(pl.principal(got - want)) < 1e-5

    def test_double_turn_closure(self):
        # two full turns close with total 0; the decomposition must track it
        s = pl.schmidt_state(0.7, math.pi / 3)
        sched = z_turn_schedule(s, turns=2)
        geo = pl.geometric_phase_mixed(s, sched)
        dyn = pl.dynamical_phase(s, sched)
        assert abs(pl.principal(geo + dyn)) < 1e-5


class TestTopologicalCrossings:
    def test_builtin_minus_on_mes(self):
        mes = pl.schmidt_state(0.5, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes)
        assert pl.topological_crossings(mes, sched) == (1, "odd")

    def test_builtin_plus_on_mes_touch_not_crossing(self):
        mes = pl.schmidt_state(0.5, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_plus()), 1, mes)
        assert pl.topological_crossings(mes, sched) == (0, "even")

    def test_builtin_minus_non_mes_never_vanishes(self):
        s = pl.schmidt_state(0.3, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, s)
        assert pl.topological_crossings(s, sched) == (0, "even")

    def test_single_z_turn_on_mes(self):
        mes = pl.schmidt_state(0.5, 0.0)
        assert pl.topological_crossings(mes, z_turn_schedule(mes)) == (1, "odd")

    def test_product_equator_crossing_detected_generally(self):
        # product state on the equator: the overlap genuinely vanishes at
        # the half turn and the general dip detector must count it
        s = pl.schmidt_state(1.0, math.pi / 2)
        assert pl.topological_crossings(s, z_turn_schedule(s)) == (1, "odd")

    @pytest.mark.parametrize("turns", [2, 5])
    def test_multi_turn_segment_crosses_every_turn(self, turns):
        s = pl.schmidt_state(1.0, math.pi / 2)
        assert pl.topological_crossings(s, z_turn_schedule(s, turns)) == (
            turns, "odd" if turns % 2 else "even")

    def test_long_segment_counts_in_closed_form(self):
        # 1e11 turns plus one radian: one zero per turn, counted without
        # visiting them, and indexed from the runs
        s = pl.schmidt_state(1.0, math.pi / 2)
        turns = 10**11
        sched = pl.RotationSchedule(
            (pl.RotationSegment(Z_AXIS.copy(), 2 * math.pi * turns + 1.0),), 1, s)
        assert pl.topological_crossings(s, sched) == (turns, "even")
        rho, bounds = pl.core._exact_inputs(s, sched)
        zeros = pl.core.ZeroTimes(bounds[0], pl.core._zero_runs(rho, bounds))
        assert len(zeros) == zeros.size == turns
        assert abs(zeros[0] - math.pi) < 1e-9
        assert abs(zeros[5] - 11 * math.pi) < 1e-9
        assert zeros[-1] == zeros[turns - 1]
        with pytest.raises(IndexError):
            zeros[turns]

    def test_counts_match_dense_samples_on_mes(self):
        # the overlap of a maximally entangled state is real: its zeros are
        # sign changes
        rng = np.random.default_rng(68)
        for _ in range(30):
            mes = random_mes(rng)
            sched = random_schedule(rng, state=mes)
            count, _ = pl.topological_crossings(mes, sched)
            assert count == dense_crossing_count(mes, sched)

    def test_counts_match_dense_samples_through_antipode(self):
        # a product state whose second segment turns it through the
        # antipode of its start: a complex overlap with a genuine zero on
        # every turn
        rng = np.random.default_rng(69)
        for _ in range(30):
            q = random_qubit(rng)
            s = pl.make_two_qubit(q[0], 0, q[1], 0)
            n1, d1 = random_axis(rng), float(rng.uniform(0.3, 3.0))
            b0 = pl.bloch_of_pure(q)
            w = b0 + pl.bloch_of_pure(pl.evolution_operator(n1, d1) @ q)
            r = random_axis(rng)
            n2 = r - np.dot(r, w) / np.dot(w, w) * w  # n2 . b1 = -n2 . b0
            turns = int(rng.integers(1, 4))
            sched = pl.RotationSchedule((
                pl.RotationSegment(n1, d1),
                pl.RotationSegment(n2 / np.linalg.norm(n2),
                                   2 * math.pi * turns + float(rng.uniform(0.1, 1.0))),
                pl.RotationSegment(random_axis(rng), float(rng.uniform(0.3, 3.0))),
            ), 1, s)
            count, _ = pl.topological_crossings(s, sched)
            assert count >= turns
            assert count == dense_crossing_count(s, sched)

    @pytest.mark.parametrize("half_turns", [2, 3, 5])
    @pytest.mark.parametrize("last", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    def test_zero_along_whole_segment_counts_once(self, half_turns, last):
        # a half turn about x takes the maximally entangled overlap to 0,
        # and turning about z then keeps it there: one zero spanning a
        # whole segment, a crossing only if the overlap leaves it with the
        # sign it entered with
        mes = pl.schmidt_state(0.5, 0.0)
        sched = pl.RotationSchedule((
            pl.RotationSegment(np.array([1.0, 0.0, 0.0]), math.pi),
            pl.RotationSegment(Z_AXIS.copy(), half_turns * math.pi),
            pl.RotationSegment(np.array(last), 0.5 * math.pi),
        ), 1, mes)
        count, _ = pl.topological_crossings(mes, sched)
        assert count == dense_crossing_count(mes, sched) <= 1


class TestPhaseBreakdown:
    def test_mes_minus(self):
        mes = pl.schmidt_state(0.5, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes)
        b = pl.phase_breakdown(mes, sched)
        assert abs(b.total - math.pi) < 1e-12
        assert abs(b.dynamical) < 1e-12
        assert b.geometric == 0.0
        assert b.degenerate
        assert (b.crossings, b.parity) == (1, "odd")
        assert math.isnan(b.closure_residual)

    def test_fixed_axis_chain(self):
        s = pl.schmidt_state(0.3, 0.0)
        b = pl.phase_breakdown(s, z_turn_schedule(s))
        assert abs(b.total - math.pi) < 1e-12
        assert abs(b.dynamical - 0.4 * math.pi) < 1e-12
        assert abs(b.geometric - 0.6 * math.pi) < 1e-4
        assert b.closure_residual < 1e-4
        assert not b.degenerate

    def test_product_equator(self):
        s = pl.schmidt_state(1.0, math.pi / 2)
        b = pl.phase_breakdown(s, z_turn_schedule(s))
        assert abs(b.dynamical) < 1e-12
        assert abs(abs(b.geometric) - math.pi) < 1e-5

    def test_not_cyclic_raises(self):
        s = pl.schmidt_state(0.3, 0.7)
        sched = pl.RotationSchedule(
            (pl.RotationSegment(np.array([1.0, 0.0, 0.0]), 1.0),), 1, s)
        with pytest.raises(pl.NotCyclic):
            pl.phase_breakdown(s, sched)

    def test_evolved_qubit_outside_one_and_two_raises(self):
        s = pl.schmidt_state(0.3, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 3, s)
        with pytest.raises(pl.DomainError, match=r"^qubit must be 1 or 2$"):
            pl.phase_breakdown(s, sched)

    def test_closure_on_random_cyclic_runs(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 20:
            sched = random_cyclic_schedule(rng, extra_turn=bool(rng.integers(0, 2)))
            if pl.concurrence(sched.initial) > 1 - 1e-6:
                continue
            done += 1
            b = pl.phase_breakdown(sched.initial, sched)
            assert b.closure_residual < 1e-4


class TestClosedForms:
    def test_mes_dynamical_vanishes(self):
        pd, pg, pt = pl.fixed_axis_closed_forms(0.5, 1.234)
        assert pd == 0.0
        assert pt == math.pi
        # the printed geometric formula gives pi at lambda0 = 1/2
        assert pg == math.pi

    def test_equator(self):
        pd, pg, _ = pl.fixed_axis_closed_forms(0.3, math.pi / 2)
        assert abs(pd) < 1e-15
        assert abs(pg - math.pi) < 1e-15

    def test_pole_limit(self):
        pd, pg, _ = pl.fixed_axis_closed_forms(0.0, 0.0)
        assert abs(pd + math.pi) < 1e-15
        assert abs(pg - 2 * math.pi) < 1e-15  # 2 pi lambda1 at lambda0 = 0

    def test_identity_sum(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            pd, pg, pt = pl.fixed_axis_closed_forms(
                float(rng.uniform(0, 1)), float(rng.uniform(-7, 7)))
            assert abs(pd + pg - pt) < 1e-12


class TestReadout:
    def test_identity_schedule(self):
        s = pl.schmidt_state(0.3, 0.2)
        assert pl.readout_probability(s, pl.RotationSchedule((), 1, s)) == 0.0

    def test_half_turn_phase_clicks(self):
        mes = pl.schmidt_state(0.5, 0.0)
        minus = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes)
        plus = pl.RotationSchedule(tuple(pl.builtin_plus()), 1, mes)
        assert abs(pl.readout_probability(mes, minus) - 1.0) < 1e-12
        assert pl.readout_probability(mes, plus) < 1e-12

    def test_four_vector_oracle(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            sched = random_schedule(rng, max_segments=4)
            s, q = sched.initial, sched.evolved_qubit
            u = pl.unitary_at(sched, pl.total_duration(sched))
            diff = pl.apply_local(u, q, s) - s
            want = float(np.vdot(diff, diff).real) / 4.0
            assert abs(pl.readout_probability(s, sched) - want) < 1e-12

    def test_visibility_relation(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            sched = random_cyclic_schedule(rng, extra_turn=bool(rng.integers(0, 2)))
            s = sched.initial
            tp = pl.total_phase(s, evolve(sched))
            p = pl.readout_probability(s, sched)
            assert abs(p - 0.5 * (1 - math.cos(tp))) < 1e-10


class TestPhaseSamples:
    def test_empty_schedule_single_row(self):
        s = pl.schmidt_state(0.3, 0.2)
        samples, flags, crossings = pl.phase_samples(s, pl.RotationSchedule((), 1, s), 100)
        assert len(samples) == 1
        assert samples[0].total_principal == 0.0
        assert samples[0].dyn == 0.0
        assert flags == [0] and crossings == []

    def test_mes_minus_series(self):
        mes = pl.schmidt_state(0.5, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes)
        samples, flags, crossings = pl.phase_samples(mes, sched, 500)
        assert len(crossings) == 1 and sum(flags) == 1
        assert abs(crossings[0] - 4 * math.pi / 3) < 1e-8
        # principal phase is 0 before the border and pi after it
        assert samples[10].total_principal == 0.0
        assert abs(samples[-1].total_principal - math.pi) < 1e-12
        assert abs(samples[-1].total_unwrapped - math.pi) < 1e-12
        # the border sample itself is an orthogonality point
        nan_count = sum(1 for s_ in samples if math.isnan(s_.total_principal))
        assert nan_count >= 1

    def test_mes_minus_junction_crossing_flags_junction_sample(self):
        # the crossing sits exactly on the junction after segment 2, so
        # the first sample at or after it is the junction sample itself
        mes = pl.schmidt_state(0.5, 0.0)
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes)
        samples, flags, crossings = pl.phase_samples(mes, sched, 500)
        junction = 2 * 499
        assert crossings == [samples[junction].time]
        assert flags[junction] == 1 and sum(flags) == 1

    @pytest.mark.parametrize("steps", [3, 4, 7, 50])
    def test_flags_mark_first_sample_at_or_after_each_zero(self, steps):
        # multi-turn segments hold several zeros between two samples
        rng = np.random.default_rng(70)
        for _ in range(10):
            s = pl.schmidt_state(float(rng.uniform()), math.pi / 2)
            sched = pl.RotationSchedule((
                pl.RotationSegment(random_axis(rng), float(rng.uniform(0.3, 3.0))),
                pl.RotationSegment(Z_AXIS.copy(), float(rng.uniform(2.0, 40.0))),
            ), 1, s)
            samples, flags, crossings = pl.phase_samples(s, sched, steps)
            times = np.array([x.time for x in samples])
            want = [0] * len(times)
            for ct in crossings:
                want[min(int(np.searchsorted(times, ct)), len(times) - 1)] = 1
            assert flags == want

    def test_long_segment_series(self):
        s = pl.schmidt_state(1.0, math.pi / 2)
        sched = pl.RotationSchedule((pl.RotationSegment(Z_AXIS.copy(), 1e12),), 1, s)
        samples, flags, crossings = pl.phase_samples(s, sched, 100)
        assert crossings.size == math.floor(1e12 / (2 * math.pi) + 0.5)
        # every sample interval spans many turns
        assert flags == [0] + [1] * 99

    def test_dyn_column_matches_exact_integral(self):
        rng = np.random.default_rng(65)
        sched = random_schedule(rng, max_segments=3)
        samples, _, _ = pl.phase_samples(sched.initial, sched, 50)
        assert abs(samples[-1].dyn - pl.dynamical_phase(sched.initial, sched)) < 1e-12

    def test_bloch_track_matches_reduced_state(self):
        rng = np.random.default_rng(66)
        sched = random_schedule(rng, max_segments=3)
        s, q = sched.initial, sched.evolved_qubit
        samples, _, _ = pl.phase_samples(s, sched, 9)
        for t, u in pl.cumulative_unitaries(sched, 9):
            here = [x for x in samples if x.time == t]
            assert here
            want = pl.bloch_of_density(pl.reduced_density(pl.apply_local(u, q, s), q))
            assert_allclose(here[0].bloch, want, atol=1e-12)

    def test_unwrapped_continuity(self):
        s = pl.schmidt_state(0.3, 0.0)
        samples, _, _ = pl.phase_samples(s, z_turn_schedule(s), 2000)
        vals = [x.total_unwrapped for x in samples if not math.isnan(x.total_unwrapped)]
        steps = np.abs(np.diff(vals))
        assert np.max(steps) < 0.1  # no artificial 2 pi jumps

    def test_samples_equal_only_themselves_and_hashable(self):
        # ndarray fields: equality and hashing are by identity, never elementwise
        s = pl.schmidt_state(0.3, 0.0)
        first, _, _ = pl.phase_samples(s, z_turn_schedule(s), 5)
        again, _, _ = pl.phase_samples(s, z_turn_schedule(s), 5)
        assert not first[2] == again[2] and first[2] != again[2]
        assert first[2] == first[2]
        assert len({hash(first[2]), hash(again[2])}) == 2 and first[2] in {first[2]}


# principal values as np.angle gives them, in [-pi, pi], with NaN gaps;
# the sampled edges make exact +-pi and +-2pi jumps and signed zeros common
_PRINCIPAL = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.nan, math.pi, -math.pi, 0.0, -0.0, math.pi / 2, -math.pi / 2,
                     np.nextafter(math.pi, 0.0), np.nextafter(-math.pi, 0.0)]),
)


class TestUnwrap:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_PRINCIPAL, max_size=60))
    def test_matches_sequential_loop_exactly(self, values):
        p = np.array(values, dtype=float)
        got, want = _unwrap_skipnan(p), loop_unwrap_skipnan(p)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.signbit(got).tolist() == np.signbit(want).tolist()

    @pytest.mark.parametrize("values", [
        [], [math.nan], [math.nan] * 5,
        [math.pi, -math.pi, math.pi, -math.pi],
        [0.0, math.pi, 0.0, -math.pi, 0.0],
        [-math.pi, math.nan, math.pi, math.nan, math.nan, -math.pi],
        [3.0, -3.0, 3.0, math.nan, -3.0],
    ])
    def test_edge_inputs(self, values):
        p = np.array(values, dtype=float)
        got = _unwrap_skipnan(p)
        assert got.shape == p.shape
        assert np.array_equal(got, loop_unwrap_skipnan(p), equal_nan=True)

    def test_exact_pi_jump_survives_as_plus_pi(self):
        got = _unwrap_skipnan(np.array([0.0, -math.pi, 0.0, math.pi]))
        assert got.tolist() == [0.0, math.pi, 2 * math.pi, 3 * math.pi]
