"""Bloch/base-point maps, concurrence, purification, and the rotation ball."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import phaselab as pl
from helpers import (
    brute_partial_trace,
    per_matrix_so3,
    random_axis,
    random_qubit,
    random_schedule,
    random_state,
    random_su2,
)

Z_AXIS = np.array([0.0, 0.0, 1.0])


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
            assert_allclose(pl.bloch_of_pure(q), pl.bloch_of_density(rho), atol=1e-14)


class TestBlochOfDensity:
    def test_maximally_mixed(self):
        assert_allclose(pl.bloch_of_density(np.eye(2) / 2), [0, 0, 0], atol=0)

    def test_diagonal(self):
        lam = 0.3
        assert_allclose(pl.bloch_of_density(np.diag([lam, 1 - lam])), [0, 0, 2 * lam - 1], atol=1e-15)

    def test_schmidt_equator_sign_fixed_by_partial_trace(self):
        # the partial-trace oracle fixes x = (2 lambda0 - 1) sin(theta)
        s = pl.schmidt_state(0.3, math.pi / 2)
        b = pl.bloch_of_density(pl.reduced_density(s, 1))
        assert_allclose(b, [-0.4, 0.0, 0.0], atol=1e-14)
        assert abs(np.linalg.norm(b) - 0.4) < 1e-14
        assert_allclose(b, pl.bloch_of_density(brute_partial_trace(s, 1)), atol=1e-15)

    def test_length_from_purity(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            rho = pl.reduced_density(random_state(rng), 1)
            b = pl.bloch_of_density(rho)
            want = math.sqrt(max(0.0, 2 * float(np.trace(rho @ rho).real) - 1))
            assert abs(np.linalg.norm(b) - want) < 1e-9


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
            want = pl.bloch_of_density(pl.reduced_density(s, 1))
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
            b = pl.bloch_of_density(pl.reduced_density(s, 1))
            assert abs(pl.ball_radius(s) - np.linalg.norm(b)) < 1e-9

    def test_purity_radius(self):
        assert pl.purity_radius(np.eye(2) / 2) == 0.0
        assert abs(pl.purity_radius(np.diag([1.0, 0.0])) - 1.0) < 1e-15
        assert abs(pl.purity_radius(np.diag([0.3, 0.7])) - 0.4) < 1e-15


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
    def test_identity_center(self):
        p = pl.su2_to_so3(np.eye(2, dtype=complex))
        assert p.angle == 0.0
        assert_allclose(p.axis, [0, 0, 1], atol=0)

    def test_minus_identity_center(self):
        # a full turn is the rotation-group identity
        p = pl.su2_to_so3(-np.eye(2, dtype=complex))
        assert p.angle == 0.0

    def test_quarter_turn(self):
        p = pl.su2_to_so3(pl.evolution_operator(Z_AXIS, math.pi / 2))
        assert abs(p.angle - math.pi / 2) < 1e-12
        assert_allclose(p.axis, Z_AXIS, atol=1e-12)

    def test_folding_beyond_pi(self):
        p = pl.su2_to_so3(pl.evolution_operator(Z_AXIS, 3 * math.pi / 2))
        assert abs(p.angle - math.pi / 2) < 1e-12
        assert_allclose(p.axis, -Z_AXIS, atol=1e-12)

    def test_antipodal_identification(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            u = random_su2(rng)
            assert pl.su2_to_so3(u) == pl.su2_to_so3(-u)

    def test_boundary_antipodes_compare_equal(self):
        axis = random_axis(np.random.default_rng(31))
        assert pl.SO3Point(axis, math.pi) == pl.SO3Point(-axis, math.pi)

    def test_non_special_unitary_rejected(self):
        with pytest.raises(pl.NotSpecialUnitary):
            pl.su2_to_so3(np.diag([1.0, 2.0]).astype(complex))


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
                mats.append(sign * pl.evolution_operator(n, float(t)))
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
        points = [pl.su2_to_so3(u) for u in stack]
        want = [per_matrix_so3(u) for u in stack]
        assert bits([p.axis for p in points]) == bits([a for a, _ in want])
        assert bits([p.angle for p in points]) == bits([t for _, t in want])

    def test_one_matrix_case_matches_oracle(self):
        for u in kernel_cases(np.random.default_rng(33))[::7]:
            p = pl.su2_to_so3(u)
            axis, angle = per_matrix_so3(u)
            assert bits(p.axis) == bits(axis)
            assert type(p.angle) is float and bits([p.angle]) == bits([angle])

    def test_one_bad_matrix_in_a_stack_raises(self):
        rng = np.random.default_rng(35)
        stack = np.array([random_su2(rng) for _ in range(50)])
        stack[17] = stack[17] * np.exp(0.5j)  # unitary, det e^{i}
        with pytest.raises(pl.NotSpecialUnitary):
            [pl.su2_to_so3(u) for u in stack]
        stack[17] = np.diag([1.0, 1.0 + 2e-9])
        with pytest.raises(pl.NotSpecialUnitary):
            [pl.su2_to_so3(u) for u in stack]
        stack[17] = np.diag([1.0, 1.0 + 5e-10])  # within the 1e-9 tolerance
        [pl.su2_to_so3(u) for u in stack]

    def test_so3_path_samples_unchanged(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            sched = random_schedule(rng, max_segments=4)
            path = pl.so3_path(sched, 60)
            pairs = pl.cumulative_unitaries(sched, 60)
            assert len(path.samples) == len(pairs)
            for (t, point, half), (t0, u) in zip(path.samples, pairs):
                axis, angle = per_matrix_so3(u)
                assert t == t0 and type(t) is float
                assert bits(point.axis) == bits(axis) and bits([point.angle]) == bits([angle])
                assert half == float((u[0, 0] + u[1, 1]).real) / 2.0
                assert type(point.angle) is float and type(half) is float


class TestSO3Path:
    def test_empty_schedule(self):
        sched = pl.RotationSchedule((), 1, pl.schmidt_state(0.5, 0.0))
        path = pl.so3_path(sched, 8)
        assert len(path.samples) == 1
        assert path.samples[0][1].angle == 0.0
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
        ws = [w for _, _, w in path.samples]
        assert_allclose(ws, [1.0, math.cos(math.pi / 2), -1.0], atol=1e-12)

    def test_equal_only_to_itself_and_hashable(self):
        # SO3Point samples compare within a tolerance and have no hash:
        # equality and hashing of a path are by identity
        sched = pl.RotationSchedule(tuple(pl.builtin_minus()), 1, pl.schmidt_state(0.5, 0.0))
        p1, p2 = pl.so3_path(sched, 5), pl.so3_path(sched, 5)
        assert hash(p1) == hash(p1) and p1 == p1 and p1 in {p1}
        assert not p1 == p2 and p1 != p2
        assert len({hash(p1), hash(p2)}) == 2
