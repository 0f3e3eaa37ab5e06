"""State construction, evolution operators, local action and partial trace."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import phaselab as pl
from helpers import brute_partial_trace, kron_apply, random_axis, random_schedule, random_state

Z_AXIS = np.array([0.0, 0.0, 1.0])


class TestMakeTwoQubit:
    def test_basis_state_passthrough(self):
        s = pl.make_two_qubit(1, 0, 0, 0)
        assert_allclose(s, [1, 0, 0, 0], atol=0)

    def test_rescaling(self):
        s = pl.make_two_qubit(2, 0, 0, 0)
        assert_allclose(s, [1, 0, 0, 0], atol=1e-15)

    def test_symmetric_pair(self):
        s = pl.make_two_qubit(1, 0, 0, 1)
        r = 1 / math.sqrt(2)
        assert_allclose(s, [r, 0, 0, r], atol=1e-15)

    def test_amplitudes_whose_squares_overflow(self):
        s = pl.make_two_qubit(1e300, 0, 0, 1e300j)
        r = 1 / math.sqrt(2)
        assert_allclose(s, [r, 0, 0, 1j * r], atol=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(pl.ZeroNorm):
            pl.make_two_qubit(0, 0, 0, 1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(pl.PhaseLabError):
            pl.make_two_qubit(math.nan, 0, 0, 1)


class TestSchmidtState:
    def test_bell_state(self):
        s = pl.schmidt_state(0.5, 0.0)
        r = 1 / math.sqrt(2)
        assert_allclose(s, [r, 0, 0, r], atol=1e-15)

    def test_product_limit(self):
        theta = 0.81
        s = pl.schmidt_state(1.0, theta)
        assert_allclose(s, [math.cos(theta / 2), 0, math.sin(theta / 2), 0], atol=1e-15)

    def test_direct_substitution(self):
        # direct substitution oracle at lambda0 = 0.3, theta = pi/2
        s = pl.schmidt_state(0.3, math.pi / 2)
        want = [math.sqrt(0.15), -math.sqrt(0.35), math.sqrt(0.15), math.sqrt(0.35)]
        assert_allclose(s, want, atol=1e-15)

    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_domain(self, lam):
        with pytest.raises(pl.DomainError):
            pl.schmidt_state(lam, 0.0)

    def test_normalized_for_any_theta(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = pl.schmidt_state(float(rng.uniform(0, 1)), float(rng.uniform(-10, 10)))
            assert abs(np.linalg.norm(s) - 1.0) < 1e-12


class TestEvolutionOperator:
    def test_identity_at_zero(self):
        assert_allclose(pl.evolution_operator(Z_AXIS, 0.0), np.eye(2), atol=0)

    def test_full_turn_is_minus_identity(self):
        assert_allclose(pl.evolution_operator(Z_AXIS, 2 * math.pi), -np.eye(2), atol=1e-12)

    def test_diagonal_axis_matches_matrix_exponential(self):
        axis = np.array([-1.0, -1.0, -1.0]) / math.sqrt(3.0)
        t = 2 * math.pi / 3
        u = pl.evolution_operator(axis, t)
        assert abs(u[0, 0] - (0.5 + 0.5j)) < 1e-12
        oracle = expm(-1j * t * pl.pauli_dot(axis) / 2)
        assert_allclose(u, oracle, atol=1e-12)

    def test_random_against_matrix_exponential(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            axis = random_axis(rng)
            t = float(rng.uniform(-10, 10))
            assert_allclose(
                pl.evolution_operator(axis, t),
                expm(-1j * t * pl.pauli_dot(axis) / 2),
                atol=1e-12,
            )

    def test_unitarity(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            u = pl.evolution_operator(random_axis(rng), float(rng.uniform(0, 4 * math.pi)))
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = random_axis(rng)
            t1, t2 = rng.uniform(0, 5, size=2)
            lhs = pl.evolution_operator(n, float(t1 + t2))
            rhs = pl.evolution_operator(n, float(t2)) @ pl.evolution_operator(n, float(t1))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_non_unit_axis_rejected(self):
        with pytest.raises(pl.DomainError):
            pl.evolution_operator([1.0, 1.0, 0.0], 1.0)

    def test_non_numeric_axis_rejected(self):
        with pytest.raises(pl.DomainError, match="axis must be a unit 3-vector"):
            pl.evolution_operator("abc", 1.0)


class TestApplyLocal:
    def test_identity(self):
        rng = np.random.default_rng(4)
        s = random_state(rng)
        assert_allclose(pl.apply_local(np.eye(2, dtype=complex), 1, s), s, atol=0)

    def test_global_sign(self):
        rng = np.random.default_rng(5)
        s = random_state(rng)
        assert_allclose(pl.apply_local(-np.eye(2, dtype=complex), 1, s), -s, atol=0)

    def test_z_half_turn_on_bell_state(self):
        s = pl.schmidt_state(0.5, 0.0)
        out = pl.apply_local(pl.evolution_operator(Z_AXIS, math.pi), 1, s)
        r = 1 / math.sqrt(2)
        assert_allclose(out, [-1j * r, 0, 0, 1j * r], atol=1e-15)

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = random_state(rng)
            u = pl.evolution_operator(random_axis(rng), float(rng.uniform(0, 7)))
            q = int(rng.integers(1, 3))
            assert_allclose(pl.apply_local(u, q, s), kron_apply(u, q, s), atol=1e-14)

    def test_norm_preserved_along_schedules(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            sched = random_schedule(rng, max_segments=8)
            psi = sched.initial
            for seg in sched.segments:
                u = pl.evolution_operator(seg.axis, seg.duration)
                psi = pl.apply_local(u, sched.evolved_qubit, psi)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


class TestReducedDensity:
    def test_basis_state(self):
        rho = pl.reduced_density(np.array([1, 0, 0, 0], dtype=complex), 1)
        assert_allclose(rho, [[1, 0], [0, 0]], atol=0)

    def test_schmidt_theta_zero_is_diagonal(self):
        rho = pl.reduced_density(pl.schmidt_state(0.3, 0.0), 1)
        assert_allclose(rho, np.diag([0.3, 0.7]), atol=1e-15)

    def test_schmidt_off_diagonal_half_factor(self):
        # the off-diagonal term is (lambda0 - lambda1) sin(theta) / 2,
        # confirmed by the brute-force partial-trace oracle
        lam, theta = 0.3, 0.9
        s = pl.schmidt_state(lam, theta)
        rho = pl.reduced_density(s, 1)
        assert_allclose(rho, brute_partial_trace(s, 1), atol=1e-15)
        assert abs(rho[0, 1] - (2 * lam - 1) * math.sin(theta) / 2) < 1e-15

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = random_state(rng)
            keep = int(rng.integers(1, 3))
            rho = pl.reduced_density(s, keep)
            assert_allclose(rho, brute_partial_trace(s, keep), atol=1e-14)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    def test_partner_unitary_leaves_spectrum(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            s = random_state(rng)
            u = pl.evolution_operator(random_axis(rng), float(rng.uniform(0, 7)))
            before = np.linalg.eigvalsh(pl.reduced_density(s, 2))
            after = np.linalg.eigvalsh(pl.reduced_density(pl.apply_local(u, 1, s), 2))
            assert_allclose(after, before, atol=1e-12)

    def test_schmidt_eigenvalues(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            lam = float(rng.uniform(0, 1))
            theta = float(rng.uniform(-7, 7))
            evals = np.linalg.eigvalsh(pl.reduced_density(pl.schmidt_state(lam, theta), 1))
            assert_allclose(np.sort(evals), np.sort([lam, 1 - lam]), atol=1e-12)


class TestInnerProduct:
    def test_self(self):
        rng = np.random.default_rng(11)
        s = random_state(rng)
        assert abs(pl.inner_product(s, s) - 1.0) < 1e-14

    def test_sign_flip(self):
        rng = np.random.default_rng(12)
        s = random_state(rng)
        assert abs(pl.inner_product(s, -s) + 1.0) < 1e-14

    def test_orthogonal_bell_states(self):
        plus = pl.make_two_qubit(1, 0, 0, 1)
        minus = pl.make_two_qubit(1, 0, 0, -1)
        assert abs(pl.inner_product(plus, minus)) < 1e-15

    def test_conjugates_first_argument(self):
        a = pl.make_two_qubit(1j, 0, 0, 0)
        b = pl.make_two_qubit(1, 0, 0, 0)
        assert pl.inner_product(a, b) == -1j
