import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsd import (
    DensityMatrix,
    DomainError,
    HermitianOperator,
    eigendecompose,
    operator_norm,
    random_cptp,
    random_hamiltonian,
    random_state,
    random_unitary,
    restrict,
    spectral_fn,
    support_of,
    trace_norm,
)
from qsd.linalg import EPS, PSD_TOL


class TestHermitianOperator:
    def test_symmetrization_is_exact(self, rng):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        op = HermitianOperator(g)
        assert np.array_equal(op.mat, op.mat.conj().T)

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            HermitianOperator(np.zeros((2, 3)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e308])
    def test_rejects_non_finite_entries(self, entry):
        # 1e308 is finite but overflows in the symmetrization (M + M*)/2
        mat = np.full((2, 2), entry)
        with pytest.raises(DomainError):
            HermitianOperator(mat)
        with pytest.raises(DomainError):
            DensityMatrix(mat)

    def test_entries_are_immutable(self, rng):
        op = HermitianOperator(np.eye(3))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 2.0

    def test_arithmetic(self):
        a = HermitianOperator(np.diag([1.0, 2.0]))
        b = HermitianOperator(np.diag([3.0, 4.0]))
        assert np.allclose((a + b).mat, np.diag([4.0, 6.0]))
        assert np.allclose((a - b).mat, np.diag([-2.0, -2.0]))
        assert np.allclose((2.0 * a).mat, np.diag([2.0, 4.0]))
        assert a.trace() == pytest.approx(3.0)


class TestEigendecompose:
    def test_diagonal_matrix(self):
        dec = eigendecompose(np.diag([1.0, 2.0, 3.0]))
        assert type(dec) is tuple  # not numpy 2's EighResult
        w, v = dec
        assert np.allclose(w, [1.0, 2.0, 3.0])
        # eigenvectors equal the standard basis up to column phase
        assert np.allclose(np.abs(v), np.eye(3))

    def test_pauli_x(self):
        w, _ = eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_oracle(self, rng):
        for dim in (2, 3, 6, 11, 16):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = HermitianOperator(g)
            w, v = eigendecompose(a)
            fro = np.linalg.norm(a.mat)
            assert np.linalg.norm((v * w) @ v.conj().T - a.mat) <= 1e-12 * max(1.0, fro)
            assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-12 * dim

    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_convergence_reports_off_diagonal_residual(self, monkeypatch, stacked):
        from qsd.errors import EigendecompositionError
        from qsd.linalg import _eigh

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        mat = np.array([[1.0, 2.0], [2.0, 1.0]])
        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(EigendecompositionError) as info:
            _eigh(np.stack([np.eye(2), mat]) if stacked else mat)
        assert info.value.offdiag_residual == pytest.approx(np.sqrt(8.0))

    def test_eigenvalues_ascending(self, rng):
        for dim in (2, 5, 9, 16):
            a = HermitianOperator(rng.standard_normal((dim, dim)))
            w, _ = eigendecompose(a)
            assert np.all(np.diff(w) >= 0)


class TestSpectralFn:
    def test_log_of_identity_is_zero(self):
        out = spectral_fn(np.eye(4), np.log)
        assert np.abs(out.mat).max() < 1e-14

    def test_exp_log_round_trip(self, rng):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = g @ g.conj().T / 5 + 0.1 * np.eye(5)
        back = spectral_fn(spectral_fn(a, np.exp), np.log).mat
        assert np.abs(back - a).max() < 1e-10

    def test_sqrt(self):
        out = spectral_fn(np.diag([4.0, 9.0]), np.sqrt)
        assert np.allclose(out.mat, np.diag([2.0, 3.0]))

    def test_identity_function_returns_input(self, rng):
        a = HermitianOperator(rng.standard_normal((6, 6)))
        out = spectral_fn(a, lambda w: w)
        assert np.abs(out.mat - a.mat).max() < 1e-12

    def test_log_of_singular_is_domain_error(self):
        with pytest.raises(DomainError):
            spectral_fn(np.diag([1.0, 0.0]), np.log)

    def test_complex_valued_function_is_domain_error(self):
        with pytest.raises(DomainError, match="not real at eigenvalue"):
            spectral_fn(np.eye(2), lambda w: w + 1j)

    def test_complex_dtype_with_zero_imaginary_part_is_real(self):
        a = np.diag([1.0, 4.0])
        out = spectral_fn(a, lambda w: np.sqrt(w) + 0j)
        assert out.mat.tolist() == spectral_fn(a, np.sqrt).mat.tolist()


class TestSupport:
    def test_rank_two_diagonal(self):
        p = support_of(np.diag([0.5, 0.5, 0.0]))
        assert p.rank == 2
        span = p.basis @ p.basis.conj().T
        assert np.allclose(span, np.diag([1.0, 1.0, 0.0]))

    def test_full_rank(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert support_of(g @ g.conj().T).rank == 4

    def test_rank_one_projector(self, rng):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        p = support_of(np.outer(psi, psi.conj()))
        assert p.rank == 1
        overlap = abs(np.vdot(p.basis[:, 0], psi))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_zero_operator_has_rank_zero(self):
        assert support_of(np.zeros((3, 3))).rank == 0

    def test_restrict_diagonal(self):
        p = support_of(np.diag([1.0, 1.0, 0.0]))
        out = restrict(np.diag([4.0, 5.0, 6.0]), p)
        assert np.allclose(sorted(np.linalg.eigvalsh(out.mat)), [4.0, 5.0])

    def test_restrict_full_rank_preserves_spectrum(self, rng):
        a = HermitianOperator(rng.standard_normal((4, 4)))
        base = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = support_of(base @ base.conj().T)
        out = restrict(a, p)
        assert np.allclose(
            np.linalg.eigvalsh(out.mat), np.linalg.eigvalsh(a.mat), atol=1e-10
        )

    def test_restrict_identity(self):
        p = support_of(np.diag([1.0, 1.0, 0.0]))
        out = restrict(np.eye(3), p)
        assert np.allclose(out.mat, np.eye(2), atol=1e-12)


class TestNorms:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_diag(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)
        assert operator_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0)
        assert operator_norm(np.eye(4)) == pytest.approx(1.0)

    def test_matches_singular_values(self, rng):
        # independent oracle: trace norm equals the sum of singular values
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        x = HermitianOperator(g)
        assert trace_norm(x) == pytest.approx(
            np.linalg.svd(x.mat, compute_uv=False).sum(), abs=1e-12
        )

    def test_rank_one_operator_norm_equals_trace_norm(self, rng):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = 1.7 * np.outer(psi, psi.conj())
        assert operator_norm(x) == pytest.approx(trace_norm(x), abs=1e-12)

    def test_norm_axioms(self, rng):
        for _ in range(50):
            x = HermitianOperator(rng.standard_normal((4, 4)))
            y = HermitianOperator(rng.standard_normal((4, 4)))
            c = rng.uniform(-3, 3)
            assert trace_norm(x + y) <= trace_norm(x) + trace_norm(y) + 1e-10
            assert abs(trace_norm(c * x) - abs(c) * trace_norm(x)) <= 1e-10


class TestDensityMatrix:
    def test_normalization_and_clipping(self):
        dm = DensityMatrix.from_matrix(np.diag([2.0, 1.0, -5e-11]))
        w = np.linalg.eigvalsh(dm.mat)
        assert w.min() >= 0.0
        assert dm.trace() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_genuinely_negative(self):
        with pytest.raises(DomainError):
            DensityMatrix.from_matrix(np.diag([1.0, -1e-3]))

    def test_positive_operator_keeps_trace(self):
        dm = DensityMatrix.positive_operator(np.diag([2.0, 1.0]))
        assert dm.trace() == pytest.approx(3.0)
        assert not dm.is_normalized

    def test_is_a_hermitian_operator(self):
        dm = DensityMatrix(np.diag([0.25, 0.75]))
        assert isinstance(dm, HermitianOperator)

    # Adversarial spectra: eigenvalues of order 1e-14, negatives inside
    # (-PSD_TOL, 0) that construction clips, exact zeros (rank deficiency),
    # plus one positive eigenvalue so the trace can be normalized.
    @given(
        head=st.floats(min_value=1e-14, max_value=1.0),
        rest=st.lists(
            st.one_of(
                st.floats(min_value=1e-15, max_value=1e-13),
                st.floats(min_value=-0.99 * PSD_TOL, max_value=0.0),
                st.just(0.0),
                st.floats(min_value=1e-3, max_value=1.0),
            ),
            max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_adversarial_spectra(self, head, rest, seed):
        w = np.array([head, *rest])
        u = random_unitary(w.size, np.random.default_rng(seed))
        mat = (u * w) @ u.conj().T
        dm = DensityMatrix(mat)
        assert np.array_equal(dm.mat, dm.mat.conj().T)
        assert abs(dm.trace() - 1.0) <= 4 * w.size * EPS
        assert np.array_equal(DensityMatrix(dm).mat, dm.mat)
        op = DensityMatrix.positive_operator(mat)
        assert np.array_equal(op.mat, op.mat.conj().T)


class TestRandomGeneration:
    def test_random_state_invariants_bulk(self, rng):
        # construction already enforces the invariants; sample 10^4 draws
        worst_trace = 0.0
        worst_eig = 0.0
        for k in range(10_000):
            dim = 1 + k % 6
            s = random_state(dim, rng)
            worst_trace = max(worst_trace, abs(s.trace() - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(s.mat).min()))
        assert worst_trace <= 1e-12
        assert worst_eig >= -1e-10

    def test_random_state_deterministic(self):
        a = random_state(3, np.random.default_rng(99))
        b = random_state(3, np.random.default_rng(99))
        assert np.array_equal(a.mat, b.mat)

    def test_random_state_dim_one(self, rng):
        s = random_state(1, rng)
        assert s.mat.shape == (1, 1)
        assert s.mat[0, 0] == pytest.approx(1.0)

    def test_random_hamiltonian(self, rng):
        h = random_hamiltonian(5, rng)
        assert np.array_equal(h.mat, h.mat.conj().T)
        assert operator_norm(h) == pytest.approx(1.0, abs=1e-12)

    def test_random_hamiltonian_deterministic_and_dim_one(self):
        a = random_hamiltonian(4, np.random.default_rng(5))
        b = random_hamiltonian(4, np.random.default_rng(5))
        assert np.array_equal(a.mat, b.mat)
        h1 = random_hamiltonian(1, np.random.default_rng(5))
        assert abs(h1.mat[0, 0]) == pytest.approx(1.0)

    def test_random_cptp_completeness(self, rng):
        for env in (1, 2, 3):
            kraus = random_cptp(4, env, rng)
            assert len(kraus) == env
            total = sum(k.conj().T @ k for k in kraus)
            assert np.abs(total - np.eye(4)).max() <= 1e-10

    def test_random_cptp_single_env_is_unitary(self, rng):
        (k,) = random_cptp(3, 1, rng)
        assert np.abs(k @ k.conj().T - np.eye(3)).max() <= 1e-10

    def test_random_cptp_preserves_states(self, rng):
        kraus = random_cptp(3, 2, rng)
        rho = random_state(3, rng)
        out = sum(k @ rho.mat @ k.conj().T for k in kraus)
        assert abs(np.trace(out).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(out).min() >= -1e-10
