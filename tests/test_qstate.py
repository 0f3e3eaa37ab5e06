"""State construction, evolution operators, local action and partial trace.

The evolution operator and the normalized state built from four
amplitudes are the test-side matrices of ``tests/matrices.py``; the
program normalizes a state with ``core._two_qubit``.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import phaselab as pl
from helpers import brute_partial_trace, kron_apply, random_axis, random_schedule, random_state
from matrices import evolution_operator, make_two_qubit, pauli_dot

Z_AXIS = np.array([0.0, 0.0, 1.0])


def two_qubit(*amps):
    return pl.core._two_qubit(amps)


class TestMakeTwoQubit:
    """The program's state normalization, which the exact API applies to
    ``s0``."""

    def test_basis_state_passthrough(self):
        s = two_qubit(1, 0, 0, 0)
        assert_allclose(s, [1, 0, 0, 0], atol=0)

    def test_rescaling(self):
        s = two_qubit(2, 0, 0, 0)
        assert_allclose(s, [1, 0, 0, 0], atol=1e-15)

    def test_symmetric_pair(self):
        s = two_qubit(1, 0, 0, 1)
        r = 1 / math.sqrt(2)
        assert_allclose(s, [r, 0, 0, r], atol=1e-15)

    def test_amplitudes_whose_squares_overflow(self):
        s = two_qubit(1e300, 0, 0, 1e300j)
        r = 1 / math.sqrt(2)
        assert_allclose(s, [r, 0, 0, 1j * r], atol=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(pl.ZeroNorm):
            two_qubit(0, 0, 0, 1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(pl.PhaseLabError):
            two_qubit(math.nan, 0, 0, 1)


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
        assert_allclose(evolution_operator(Z_AXIS, 0.0), np.eye(2), atol=0)

    def test_full_turn_is_minus_identity(self):
        assert_allclose(evolution_operator(Z_AXIS, 2 * math.pi), -np.eye(2), atol=1e-12)

    def test_diagonal_axis_matches_matrix_exponential(self):
        axis = np.array([-1.0, -1.0, -1.0]) / math.sqrt(3.0)
        t = 2 * math.pi / 3
        u = evolution_operator(axis, t)
        assert abs(u[0, 0] - (0.5 + 0.5j)) < 1e-12
        oracle = expm(-1j * t * pauli_dot(axis) / 2)
        assert_allclose(u, oracle, atol=1e-12)

    def test_random_against_matrix_exponential(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            axis = random_axis(rng)
            t = float(rng.uniform(-10, 10))
            assert_allclose(
                evolution_operator(axis, t),
                expm(-1j * t * pauli_dot(axis) / 2),
                atol=1e-12,
            )

    def test_unitarity(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            u = evolution_operator(random_axis(rng), float(rng.uniform(0, 4 * math.pi)))
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = random_axis(rng)
            t1, t2 = rng.uniform(0, 5, size=2)
            lhs = evolution_operator(n, float(t1 + t2))
            rhs = evolution_operator(n, float(t2)) @ evolution_operator(n, float(t1))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    # the program's axis check, which every segment passes through
    def test_non_unit_axis_rejected(self):
        with pytest.raises(pl.DomainError):
            pl.core._unit_axis([1.0, 1.0, 0.0])

    def test_non_numeric_axis_rejected(self):
        with pytest.raises(pl.DomainError, match="axis must be a unit 3-vector"):
            pl.core._unit_axis("abc")


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
        out = pl.apply_local(evolution_operator(Z_AXIS, math.pi), 1, s)
        r = 1 / math.sqrt(2)
        assert_allclose(out, [-1j * r, 0, 0, 1j * r], atol=1e-15)

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = random_state(rng)
            u = evolution_operator(random_axis(rng), float(rng.uniform(0, 7)))
            q = int(rng.integers(1, 3))
            assert_allclose(pl.apply_local(u, q, s), kron_apply(u, q, s), atol=1e-14)

    def test_norm_preserved_along_schedules(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            sched = random_schedule(rng, max_segments=8)
            psi = sched.initial
            for seg in sched.segments:
                u = evolution_operator(seg.axis, seg.duration)
                psi = pl.apply_local(u, sched.evolved_qubit, psi)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    @pytest.mark.parametrize("qubit", [0, 3])
    def test_qubit_outside_one_and_two(self, qubit):
        with pytest.raises(pl.DomainError, match="^qubit must be 1 or 2$"):
            pl.apply_local(np.eye(2, dtype=complex), qubit, pl.schmidt_state(0.3, 0.0))


class TestReducedDensity:
    @pytest.mark.parametrize("keep", [0, 3])
    def test_kept_qubit_outside_one_and_two(self, keep):
        with pytest.raises(pl.DomainError, match="^keep must be 1 or 2$"):
            pl.reduced_density(pl.schmidt_state(0.3, 0.0), keep)

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
            u = evolution_operator(random_axis(rng), float(rng.uniform(0, 7)))
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


# every numpy helper reads a state as qstate._array does and a 2x2 matrix
# as qstate._matrix does, whichever module it lives in
HELPER_ERRORS = {
    "str": (lambda: pl.hopf_coords("abcd"), "^expected a sequence of numbers: got str$"),
    "length": (lambda: pl.concurrence([1, 0, 0]), "^a two-qubit state has 4 amplitudes, got 3$"),
    "qubit length": (lambda: pl.bloch_of_pure([1, 0, 0]), "^a qubit state has 2 amplitudes, got 3$"),
    "nan": (lambda: pl.ball_radius([math.nan, 0, 0, 0]), "^amplitudes must be finite$"),
    "square state": (lambda: pl.reduced_density(np.eye(2), 1), "^expected a sequence of numbers"),
    "lengths": (lambda: pl.inner_product([1, 0], [1, 0, 0]),
                "^a two-qubit state has 4 amplitudes, got 2$"),
    "overflow": (lambda: pl.hopf_coords([1e200, 1e200, 0, 0]),
                 "^the amplitudes' squared norm overflows$"),
    "u shape": (lambda: pl.apply_local(np.eye(3), 1, [1, 0, 0, 0]), "^u must be a 2x2 matrix$"),
    "rho shape": (lambda: pl.purify(np.eye(3)), "^rho must be a 2x2 matrix$"),
    "rho nan": (lambda: pl.purify([[math.nan, 0], [0, 1]]), "^amplitudes must be finite$"),
}


@pytest.mark.parametrize("case", sorted(HELPER_ERRORS))
def test_helper_arguments_raise_domain_error(case):
    call, message = HELPER_ERRORS[case]
    with pytest.raises(pl.DomainError, match=message):
        call()


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
        plus = make_two_qubit(1, 0, 0, 1)
        minus = make_two_qubit(1, 0, 0, -1)
        assert abs(pl.inner_product(plus, minus)) < 1e-15

    def test_conjugates_first_argument(self):
        a = make_two_qubit(1j, 0, 0, 0)
        b = make_two_qubit(1, 0, 0, 0)
        assert pl.inner_product(a, b) == -1j


class TestMatrixOracles:
    """``tests/matrices.py`` imports nothing from phaselab, so the oracles
    built on it share no code with the program, and its rotation agrees
    with the program's."""

    def test_imported_without_phaselab_and_agrees_with_unitary_at(self):
        rng = np.random.default_rng(13)
        cases = [(random_axis(rng).tolist(), float(rng.uniform(0.3, 6.0))) for _ in range(3)]
        code = "\n".join([
            "import json, sys",
            "sys.modules['phaselab'] = None  # any import of phaselab now raises",
            f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})",
            "import matrices",
            f"mats = [matrices.evolution_operator(n, t) for n, t in {cases!r}]",
            "print(json.dumps([[[z.real, z.imag] for z in m.ravel().tolist()] for m in mats]))",
            "print(json.dumps(sorted(name for name, module in sys.modules.items()",
            "                        if name.startswith('phaselab') and module is not None)))",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        mats, loaded = (json.loads(line) for line in proc.stdout.splitlines())
        assert loaded == []
        for (n, t), parts in zip(cases, mats, strict=True):
            got = np.array([complex(re, im) for re, im in parts]).reshape(2, 2)
            sched = pl.RotationSchedule((pl.RotationSegment(n, t),), 1, pl.schmidt_state(0.3, 0.7))
            assert np.max(np.abs(got - pl.unitary_at(sched, t))) <= 1e-14
