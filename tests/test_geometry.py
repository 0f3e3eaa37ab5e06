"""Bloch/base-point maps, concurrence, purification, and the rotation ball."""

import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

import phaselab as pl
from helpers import (
    SO3Point,
    brute_partial_trace,
    explicit_bloch,
    random_axis,
    random_qubit,
    random_schedule,
    random_state,
    random_su2,
    sampled_unitaries,
    so3_point,
)
from matrices import ball_of_quaternion, evolution_operator, quaternion_of, su2_to_so3

Z_AXIS = np.array([0.0, 0.0, 1.0])
DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos", "schedules")


def sampled_bloch(state, qubit=1) -> np.ndarray:
    """The reduced state's Bloch vector as the sampled series starts it."""
    series = pl.phase_samples(pl.RotationSchedule((), qubit, state), 2)
    return np.array([series.bloch_x[0], series.bloch_y[0], series.bloch_z[0]])


class TestBlochOfPure:
    def test_poles_and_equator(self):
        assert_allclose(pl.bloch_of_pure([1, 0]), [0, 0, 1], atol=0)
        r = 1 / math.sqrt(2)
        assert_allclose(pl.bloch_of_pure([r, r]), [1, 0, 0], atol=1e-15)

    def test_latitude_parameterization(self):
        theta = math.pi / 3
        q = [math.cos(theta / 2), math.sin(theta / 2)]
        assert_allclose(pl.bloch_of_pure(q), [math.sin(theta), 0, math.cos(theta)], atol=1e-15)

    def test_unit_length(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            b = pl.bloch_of_pure(random_qubit(rng))
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12

    def test_agrees_with_density_map(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            q = random_qubit(rng)
            rho = np.outer(q, q.conj())
            assert_allclose(pl.bloch_of_pure(q), explicit_bloch(rho), atol=1e-14)


class TestBlochOfDensity:
    """The reduced state's Bloch vector in the sampled series (the Bloch
    columns of ``phase_samples``), against the explicit traces."""

    def test_maximally_mixed(self):
        assert_allclose(sampled_bloch(pl.schmidt_state(0.5, 0.0)), [0, 0, 0], atol=0)

    def test_diagonal(self):
        lam = 0.3
        assert_allclose(sampled_bloch(pl.schmidt_state(lam, 0.0)), [0, 0, 2 * lam - 1], atol=1e-15)

    def test_schmidt_equator_sign_fixed_by_partial_trace(self):
        # the partial-trace oracle fixes x = (2 lambda0 - 1) sin(theta)
        s = pl.schmidt_state(0.3, math.pi / 2)
        b = sampled_bloch(s)
        assert_allclose(b, [-0.4, 0.0, 0.0], atol=1e-14)
        assert abs(np.linalg.norm(b) - 0.4) < 1e-14
        assert_allclose(b, explicit_bloch(brute_partial_trace(s, 1)), atol=1e-15)

    def test_length_from_purity(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            s = random_state(rng)
            q = int(rng.integers(1, 3))
            rho = brute_partial_trace(s, q)
            want = math.sqrt(max(0.0, 2 * float(np.trace(rho @ rho).real) - 1))
            assert abs(np.linalg.norm(sampled_bloch(s, q)) - want) < 1e-9


class TestHopfCoords:
    def test_product_basis_state(self):
        c = pl.hopf_coords([1, 0, 0, 0])
        assert_allclose(c, [0, 0, 1, 0, 0], atol=0)

    def test_bell_state_collapses_to_point(self):
        c = pl.hopf_coords(pl.schmidt_state(0.5, 0.0))
        assert_allclose(c, [0, 0, 0, 1, 0], atol=1e-15)

    def test_schmidt_substitution(self):
        c = pl.hopf_coords(pl.schmidt_state(0.3, math.pi / 2))
        assert abs(c[0] ** 2 + c[1] ** 2 + c[2] ** 2 - 0.16) < 1e-14
        assert abs(c[3] - 2 * math.sqrt(0.21)) < 1e-14
        assert abs(c[4]) < 1e-15

    def test_unit_four_sphere(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            c = pl.hopf_coords(random_state(rng))
            assert abs(float(np.sum(c * c)) - 1.0) < 1e-9

    def test_xyz_is_reduced_bloch_vector(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            s = random_state(rng)
            want = explicit_bloch(brute_partial_trace(s, 1))
            assert_allclose(pl.hopf_coords(s)[:3], want, atol=1e-13)


class TestConcurrenceAndRadii:
    def test_product_state_zero(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            a, b = random_qubit(rng), random_qubit(rng)
            s = np.kron(a, b)
            assert pl.concurrence(s) < 1e-12
            assert abs(pl.ball_radius(s) - 1.0) < 1e-9

    def test_bell_state_one(self):
        s = pl.schmidt_state(0.5, 0.0)
        assert abs(pl.concurrence(s) - 1.0) < 1e-15
        assert pl.ball_radius(s) < 1e-7

    def test_schmidt_value_and_theta_independence(self):
        for theta in (0.0, 0.4, 2.8, math.pi):
            c = pl.concurrence(pl.schmidt_state(0.3, theta))
            assert abs(c - 2 * math.sqrt(0.21)) < 1e-13

    def test_local_invariance(self):
        rng = np.random.default_rng(26)
        for _ in range(1000):
            s = random_state(rng)
            u = random_su2(rng)
            q = int(rng.integers(1, 3))
            assert abs(pl.concurrence(pl.apply_local(u, q, s)) - pl.concurrence(s)) < 1e-12

    def test_ball_radius_schmidt(self):
        assert abs(pl.ball_radius(pl.schmidt_state(0.3, 1.2)) - 0.4) < 1e-12

    def test_radius_matches_bloch_length(self):
        rng = np.random.default_rng(27)
        for _ in range(1000):
            s = random_state(rng)
            b = explicit_bloch(brute_partial_trace(s, 1))
            assert abs(pl.ball_radius(s) - np.linalg.norm(b)) < 1e-9

    def test_purity_radius(self):
        # the Bloch-vector length sqrt(2 Tr rho^2 - 1) of the sampled record
        assert np.linalg.norm(sampled_bloch(pl.schmidt_state(0.5, 0.0))) == 0.0
        assert abs(np.linalg.norm(sampled_bloch(pl.schmidt_state(1.0, 0.0))) - 1.0) < 1e-15
        assert abs(np.linalg.norm(sampled_bloch(pl.schmidt_state(0.3, 0.0))) - 0.4) < 1e-15


class TestPurify:
    def test_diagonal(self):
        p = pl.purify(np.diag([0.7, 0.3]))
        assert abs(p.weight_m - 0.7) < 1e-15
        assert abs(p.weight_n - 0.3) < 1e-15
        assert_allclose(p.state_m, [1, 0], atol=1e-15)
        assert_allclose(p.state_n, [0, 1], atol=1e-15)

    def test_pure_projector(self):
        p = pl.purify(np.diag([1.0, 0.0]))
        assert abs(p.weight_m - 1.0) < 1e-12
        assert abs(p.weight_n) < 1e-12

    def test_schmidt_eigenvectors_in_xz_plane(self):
        lam, theta = 0.3, 0.7
        p = pl.purify(pl.reduced_density(pl.schmidt_state(lam, theta), 1))
        assert abs(p.weight_m - 0.7) < 1e-12
        bm = pl.bloch_of_pure(p.state_m)
        direction = np.array([math.sin(theta), 0.0, math.cos(theta)])
        # larger weight lies along the actual Bloch vector, here -direction
        assert_allclose(bm, -direction, atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(pl.DegenerateSpectrum):
            pl.purify(np.eye(2) / 2)

    def test_reconstruction_and_antipodality(self):
        rng = np.random.default_rng(28)
        done = 0
        while done < 1000:
            s = random_state(rng)
            rho = pl.reduced_density(s, 1)
            try:
                p = pl.purify(rho)
            except pl.DegenerateSpectrum:
                continue
            done += 1
            rebuilt = p.weight_m * np.outer(p.state_m, p.state_m.conj()) + \
                p.weight_n * np.outer(p.state_n, p.state_n.conj())
            assert np.max(np.abs(rebuilt - rho)) < 1e-9
            assert abs(p.weight_m + p.weight_n - 1.0) < 1e-12
            assert p.weight_m >= p.weight_n
            assert abs(np.vdot(p.state_m, p.state_n)) < 1e-9
            assert np.max(np.abs(pl.bloch_of_pure(p.state_m) + pl.bloch_of_pure(p.state_n))) < 1e-9

    def test_deterministic_phase_fix(self):
        rng = np.random.default_rng(29)
        rho = pl.reduced_density(random_state(rng), 1)
        p1, p2 = pl.purify(rho), pl.purify(rho)
        assert_allclose(p1.state_m, p2.state_m, atol=0)
        lead = np.argmax(np.abs(p1.state_m))
        assert p1.state_m[lead].imag == 0.0 and p1.state_m[lead].real > 0

    def test_equal_only_to_itself_and_hashable(self):
        # ndarray fields: equality and hashing are by identity, never elementwise
        rho = pl.reduced_density(pl.schmidt_state(0.3, 0.7), 1)
        p1, p2 = pl.purify(rho), pl.purify(rho)
        assert not p1 == p2 and p1 != p2
        assert p1 == p1
        assert len({hash(p1), hash(p2)}) == 2 and p1 in {p1}


class TestSU2ToSO3:
    """The program's SO(3) image of an SU(2) matrix (``helpers.so3_point``)."""

    def test_identity_center(self):
        p = so3_point(np.eye(2, dtype=complex))
        assert p.angle == 0.0
        assert_allclose(p.axis, [0, 0, 1], atol=0)

    def test_minus_identity_center(self):
        # a full turn is the rotation-group identity
        p = so3_point(-np.eye(2, dtype=complex))
        assert p.angle == 0.0

    def test_quarter_turn(self):
        p = so3_point(evolution_operator(Z_AXIS, math.pi / 2))
        assert abs(p.angle - math.pi / 2) < 1e-12
        assert_allclose(p.axis, Z_AXIS, atol=1e-12)

    def test_folding_beyond_pi(self):
        p = so3_point(evolution_operator(Z_AXIS, 3 * math.pi / 2))
        assert abs(p.angle - math.pi / 2) < 1e-12
        assert_allclose(p.axis, -Z_AXIS, atol=1e-12)

    def test_antipodal_identification(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            u = random_su2(rng)
            assert so3_point(u) == so3_point(-u)

    def test_boundary_antipodes_compare_equal(self):
        axis = random_axis(np.random.default_rng(31))
        assert SO3Point(axis, math.pi) == SO3Point(-axis, math.pi)

    def test_near_identity_compares_by_ball_coordinates(self):
        # a 1.4e-9 turn whose axis two decodes put 3e-8 apart: the two
        # rotations differ by about 4e-17, a turn about x by 2e-9
        point = SO3Point(np.array([0.0, 1.0, 0.0]), 1.4e-9)
        tilted = np.array([0.0, 1.0, 3e-8]) / math.hypot(1.0, 3e-8)
        assert point == SO3Point(tilted, 1.4e-9)
        assert point != SO3Point(np.array([1.0, 0.0, 0.0]), 1.4e-9)

    def test_different_angles_are_different_rotations(self):
        point = SO3Point(Z_AXIS, 1.0)
        assert not point.same_rotation(SO3Point(Z_AXIS, 1.0 + 2e-9))
        assert point.same_rotation(SO3Point(Z_AXIS, 1.0 + 2e-9), atol=1e-8)

    def test_axes_within_atol_at_pi_are_the_same_rotation(self):
        # at angle pi the ball coordinates are pi times further apart than
        # the axes, so only the axis comparison sees the points agree
        tilted = np.array([0.9e-3, 0.0, 1.0]) / math.hypot(0.9e-3, 1.0)
        a, b = SO3Point(Z_AXIS, math.pi), SO3Point(tilted, math.pi)
        assert np.linalg.norm(a.axis - b.axis) <= 1e-3
        assert np.linalg.norm(a.displacement() - b.displacement()) > 1e-3
        assert a.same_rotation(b, atol=1e-3)

    def test_not_equal_to_other_types(self):
        point = SO3Point(Z_AXIS, 1.0)
        assert point.__eq__(object()) is NotImplemented
        assert point != object() and not point == (Z_AXIS, 1.0)


def quaternion_su2(w, v) -> np.ndarray:
    """``w I - i v . sigma`` for a unit quaternion ``(w, v)``."""
    vx, vy, vz = v
    return np.array([[w - 1j * vz, -1j * vx - vy], [-1j * vx + vy, w + 1j * vz]])


def kernel_cases(rng) -> np.ndarray:
    """Random SU(2) elements, +-I, rotations at and next to pi (both sides,
    both signs of w), and near-identity rotations on both sides of the
    1e-12 centre rule."""
    mats = [random_su2(rng) for _ in range(500)]
    mats += [np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]
    for _ in range(20):
        n = random_axis(rng)
        for t in (math.pi, np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0),
                  2 * math.pi - 1e-9, 1e-13, 1e-12, 2e-12, 1e-9):
            for sign in (1.0, -1.0):
                mats.append(sign * evolution_operator(n, float(t)))
        mats.append(quaternion_su2(0.0, n))  # exactly pi
        mats.append(quaternion_su2(-0.0, n))
        s = 1e-12 * float(rng.uniform(0.5, 1.5))
        mats.append(quaternion_su2(math.sqrt(1.0 - s * s), s * n))
    return np.array(mats)


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


class TestSO3Kernel:
    def test_stack_matches_per_matrix_oracle_bitwise(self):
        stack = kernel_cases(np.random.default_rng(32))
        w, v = quaternion_of(stack)
        axes, angles = pl.geometry._ball(w, v.T)
        want = [su2_to_so3(u) for u in stack]
        assert bits(axes.T) == bits([a for a, _ in want])
        assert bits(angles) == bits([t for _, t in want])

    @pytest.mark.parametrize("name", ["mes_minus", "mes_plus", "partial_z_turn"])
    def test_demo_series_match_the_scalar_formula_bitwise(self, name):
        # the run --out columns against math's sqrt and atan2 in the same
        # fixed order, so no host's BLAS kernel can move them
        with open(os.path.join(DEMOS, name + ".sched"), encoding="utf-8") as fh:
            sched = pl.parse_schedule(fh.read())
        series = pl.phase_samples(sched, pl.DEFAULT_SAMPLES)
        bounds = pl.core._quaternions(sched.segments)
        _, quats = pl.schedule._unitary_samples(bounds, pl.DEFAULT_SAMPLES)
        want = [ball_of_quaternion(w, v) for w, v in zip(quats[0].tolist(), quats[1:].T)]
        axes = np.array([a for a, _ in want])
        for c, column in enumerate(("so3_ax", "so3_ay", "so3_az")):
            assert bits(getattr(series, column)) == bits(axes[:, c])
        assert bits(series.so3_angle) == bits([t for _, t in want])

    def test_one_matrix_case_matches_oracle(self):
        for u in kernel_cases(np.random.default_rng(33))[::7]:
            p = so3_point(u)
            axis, angle = su2_to_so3(u)
            assert bits(p.axis) == bits(axis)
            assert type(p.angle) is float and bits([p.angle]) == bits([angle])

    def test_so3_path_samples_unchanged(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            sched = random_schedule(rng, max_segments=4)
            path = pl.so3_path(sched, 60)
            pairs = sampled_unitaries(sched, 60)
            assert path.axes.shape == (len(pairs), 3)
            for name in ("times", "angles", "cos_half_angle"):
                assert getattr(path, name).shape == (len(pairs),)
                assert getattr(path, name).dtype == np.float64
            for i, (t0, u) in enumerate(pairs):
                axis, angle = su2_to_so3(u)
                assert path.times[i] == t0
                assert bits(path.axes[i]) == bits(axis) and bits(path.angles[i]) == bits([angle])
                assert path.cos_half_angle[i] == float((u[0, 0] + u[1, 1]).real) / 2.0


class TestSO3Path:
    def test_empty_schedule(self):
        sched = pl.RotationSchedule((), 1, pl.schmidt_state(0.5, 0.0))
        path = pl.so3_path(sched, 8)
        assert path.times.tolist() == [0.0] and path.angles.tolist() == [0.0]
        assert path.crossings == ()

    def test_single_z_turn_crosses_once(self):
        sched = pl.RotationSchedule(
            (pl.RotationSegment(Z_AXIS, 2 * math.pi),), 1, pl.schmidt_state(0.5, 0.0))
        path = pl.so3_path(sched, 2000)
        assert len(path.crossings) == 1
        assert abs(path.crossings[0] - math.pi) < 1e-9

    def test_builtin_minus_crosses_once_plus_never(self):
        mes = pl.schmidt_state(0.5, 0.0)
        minus = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, mes)
        plus = pl.RotationSchedule(tuple(pl.builtin_plus()), 1, mes)
        path_minus = pl.so3_path(minus, 2000)
        path_plus = pl.so3_path(plus, 2000)
        assert len(path_minus.crossings) == 1
        assert abs(path_minus.crossings[0] - 4 * math.pi / 3) < 1e-8
        assert len(path_plus.crossings) == 0  # tangential touch only

    def test_samples_record_cos_half_angle(self):
        sched = pl.RotationSchedule(
            (pl.RotationSegment(Z_AXIS, 2 * math.pi),), 1, pl.schmidt_state(0.5, 0.0))
        path = pl.so3_path(sched, 3)
        assert_allclose(path.cos_half_angle, [1.0, math.cos(math.pi / 2), -1.0], atol=1e-12)

    def test_equal_only_to_itself_and_hashable(self):
        # ndarray fields: equality and hashing are by identity, never elementwise
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, pl.schmidt_state(0.5, 0.0))
        p1, p2 = pl.so3_path(sched, 5), pl.so3_path(sched, 5)
        assert hash(p1) == hash(p1) and p1 == p1 and p1 in {p1}
        assert not p1 == p2 and p1 != p2
        assert len({hash(p1), hash(p2)}) == 2
