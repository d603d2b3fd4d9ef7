import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsd import (
    DividedDifferenceTable,
    DomainError,
    QuadratureScheme,
    chi2_log,
    differential_skew_divergence,
    frechet_log,
    frechet_log_central_diff,
    frechet_log_quadrature,
    metric_M,
    metric_epsilon_limit_check,
    random_state,
    random_unitary,
    scalar_differential_sd,
    sd_by_averaging,
    second_frechet_log,
    second_frechet_log_central_diff,
    second_frechet_log_quadrature,
    skew_divergence,
    trace_distance,
)
from qsd import frechet as fr
from qsd.divergences import _skewed_relative_entropy
from qsd.linalg import default_support_threshold


def rand_pd(rng, dim, floor=0.1):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T / dim + floor * np.eye(dim)


def rand_psd(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T / dim


def rand_herm(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


class TestDividedDifferenceTable:
    def test_first_dd(self, rng):
        w = np.sort(rng.uniform(0.1, 3.0, 5))
        table = DividedDifferenceTable(w)
        assert np.allclose(np.diag(table.first_dd), 1.0 / w)
        assert np.allclose(table.first_dd, table.first_dd.T)
        assert np.allclose(
            table.first_dd[0, 1], (math.log(w[0]) - math.log(w[1])) / (w[0] - w[1])
        )

    def test_second_dd_symmetry_and_diagonal(self, rng):
        w = rng.uniform(0.1, 2.0, 4)
        table = DividedDifferenceTable(w)
        t = table.second_dd
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.allclose(t, np.transpose(t, perm))
        for i, wi in enumerate(w):
            assert t[i, i, i] == pytest.approx(-1.0 / (2.0 * wi * wi), rel=1e-12)

    def test_confluent_branch_is_continuous(self):
        # values straddling the branch threshold agree with the log1p-based
        # high-precision evaluation of the same divided difference
        x = 1.3
        for gap in (1e-6, 1e-7, 1e-8):
            y = x * (1 + gap)
            accurate = math.log1p((y - x) / x) / (y - x)
            table = DividedDifferenceTable([x, y])
            assert table.first_dd[0, 1] == pytest.approx(accurate, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            DividedDifferenceTable([1.0, 0.0])


class TestFrechetLog:
    def test_t_of_base_is_identity(self, rng):
        a = rand_pd(rng, 5)
        out = frechet_log(a, a).mat
        assert np.abs(out - np.eye(5)).max() < 1e-12

    def test_scalar_case(self):
        out = frechet_log(np.array([[2.0]]), np.array([[0.6]]))
        assert out.mat[0, 0] == pytest.approx(0.3)

    def test_scaling_lemma(self, rng):
        a = rand_pd(rng, 4)
        d = rand_herm(rng, 4)
        s, delta = 1.7, -0.8
        lhs = frechet_log(s * a, delta * d).mat
        rhs = (delta / s) * frechet_log(a, d).mat
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_order_preservation(self, rng):
        for _ in range(20):
            a = rand_pd(rng, 4)
            d = rand_psd(rng, 4)
            assert np.linalg.eigvalsh(frechet_log(a, d).mat).min() >= -1e-9

    def test_sum_bound(self, rng):
        for _ in range(20):
            a, b = rand_psd(rng, 4), rand_psd(rng, 4)
            assert np.linalg.eigvalsh(frechet_log(a + b, a).mat).max() <= 1 + 1e-9

    def test_rejects_singular_base(self):
        with pytest.raises(DomainError):
            frechet_log(np.diag([1.0, 0.0]), np.eye(2))


class TestMetric:
    def test_base_against_itself_gives_trace(self, rng):
        a = rand_pd(rng, 4)
        assert metric_M(a, a, a).real == pytest.approx(np.trace(a).real, abs=1e-10)
        assert abs(metric_M(a, a, a).imag) < 1e-12

    def test_positive_and_definite(self, rng):
        a = rand_pd(rng, 4)
        b = rand_herm(rng, 4)
        assert metric_M(a, b, b).real >= 0.0
        assert metric_M(a, np.zeros((4, 4)), np.zeros((4, 4))) == 0.0

    def test_self_adjoint(self, rng):
        a = rand_pd(rng, 4)
        b, c = rand_herm(rng, 4), rand_herm(rng, 4)
        assert metric_M(a, b, c) == pytest.approx(metric_M(a, c, b).conjugate(), abs=1e-12)

    def test_difference_bound(self, rng):
        for _ in range(30):
            a, b, c = rand_psd(rng, 4), rand_psd(rng, 4), rand_psd(rng, 4)
            diff = metric_M(a + b, a, a).real - metric_M(a + b + c, a, a).real
            ta, tc = np.trace(a).real, np.trace(c).real
            assert -1e-8 <= diff <= ta - ta * ta / (ta + tc) + 1e-8


class TestSecondFrechetLog:
    def test_reduces_to_first_derivative(self, rng):
        a = rand_pd(rng, 5)
        d = rand_herm(rng, 5)
        lhs = second_frechet_log(a, a, d).mat
        rhs = frechet_log(a, d).mat
        assert np.linalg.norm(lhs - rhs) < 1e-8

    def test_base_pair_gives_identity(self, rng):
        a = rand_pd(rng, 4)
        assert np.abs(second_frechet_log(a, a, a).mat - np.eye(4)).max() < 1e-10

    def test_scalar_case(self):
        out = second_frechet_log(np.array([[2.0]]), np.array([[0.5]]))
        assert out.mat[0, 0] == pytest.approx(0.0625)

    def test_symmetric_in_perturbations(self, rng):
        a = rand_pd(rng, 4)
        d1, d2 = rand_herm(rng, 4), rand_herm(rng, 4)
        assert np.allclose(
            second_frechet_log(a, d1, d2).mat, second_frechet_log(a, d2, d1).mat
        )

    def test_trace_symmetry(self, rng):
        a = rand_pd(rng, 4)
        d0, d1, d2 = (rand_herm(rng, 4) for _ in range(3))
        lhs = np.trace(d0 @ second_frechet_log(a, d1, d2).mat)
        rhs = np.trace(d2 @ second_frechet_log(a, d0, d1).mat)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_sum_bound(self, rng):
        for _ in range(20):
            a, b = rand_psd(rng, 4), rand_psd(rng, 4)
            top = np.linalg.eigvalsh(second_frechet_log(a + b, a).mat).max()
            assert top <= 1 + 1e-9

    def test_finite_difference_oracle(self, rng):
        a = rand_pd(rng, 4, floor=0.3)
        d = rand_herm(rng, 4)
        lam_min = np.linalg.eigvalsh(a).min()
        fd = second_frechet_log_central_diff(a, d, h=1e-3 * lam_min, order=4).mat
        assert np.linalg.norm(fd - second_frechet_log(a, d).mat) <= 1e-5 * max(
            1.0, np.linalg.norm(second_frechet_log(a, d).mat)
        )


class TestQuadratureOracles:
    def test_scheme_validation(self):
        with pytest.raises(DomainError):
            QuadratureScheme(panels=2, nodes_per_panel=16)  # fewer than 64 nodes

    def test_weights_positive(self):
        x, w = np.polynomial.legendre.leggauss(16)
        assert w.min() > 0.0

    def test_first_derivative_well_conditioned(self, rng):
        a = rand_pd(rng, 5)
        d = rand_herm(rng, 5)
        dd = frechet_log(a, d).mat
        q = frechet_log_quadrature(a, d).mat
        assert np.linalg.norm(q - dd) <= 1e-6 * max(1.0, np.linalg.norm(dd))

    def test_first_derivative_ill_conditioned(self, rng):
        v = random_unitary(6, rng)
        lam = np.array([1e-6, 1e-6, 1e-4, 1e-2, 0.5, 1.0])  # repeated smallest pair
        a = (v * lam) @ v.conj().T
        d = rand_herm(rng, 6)
        dd = frechet_log(a, d).mat
        q = frechet_log_quadrature(a, d).mat
        assert np.linalg.norm(q - dd) <= 1e-6 * max(1.0, np.linalg.norm(dd))

    def test_second_derivative(self, rng):
        a = rand_pd(rng, 4)
        d = rand_herm(rng, 4)
        rr = second_frechet_log(a, d).mat
        q = second_frechet_log_quadrature(a, d).mat
        assert np.linalg.norm(q - rr) <= 1e-6 * max(1.0, np.linalg.norm(rr))

    def test_finite_difference_route(self, rng):
        a = rand_pd(rng, 5, floor=0.2)
        d = rand_herm(rng, 5)
        dd = frechet_log(a, d).mat
        fd = frechet_log_central_diff(a, d, h=1e-5, order=2).mat
        assert np.linalg.norm(fd - dd) <= 1e-6 * max(1.0, np.linalg.norm(dd))


class TestDifferentialSkewDivergence:
    def test_endpoints_are_exactly_zero(self, rng):
        a, b = rand_psd(rng, 3), rand_psd(rng, 3)
        assert differential_skew_divergence(a, b, 0.0) == 0.0
        assert differential_skew_divergence(a, b, 1.0) == 0.0

    def test_self_is_zero(self, rng):
        rho = random_state(4, rng)
        assert differential_skew_divergence(rho.mat, rho.mat, 0.4) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_scalar_limits(self):
        for alpha in (0.2, 0.5, 0.8):
            assert differential_skew_divergence(
                np.array([[1.0]]), np.array([[0.0]]), alpha
            ) == pytest.approx(1.0 - alpha, abs=1e-12)
            assert differential_skew_divergence(
                np.array([[0.0]]), np.array([[1.0]]), alpha
            ) == pytest.approx(alpha, abs=1e-12)

    def test_explicit_formula_cross_check(self, rng):
        # alternate form a/(1-a) M_tau(A,A) - a/(1-a) tr A - a tr(A - B)
        for _ in range(20):
            a, b = rand_pd(rng, 4, floor=0.05), rand_pd(rng, 4, floor=0.05)
            alpha = rng.uniform(0.05, 0.95)
            tau = alpha * a + (1 - alpha) * b
            expl3 = (
                alpha / (1 - alpha) * metric_M(tau, a, a).real
                - alpha / (1 - alpha) * np.trace(a).real
                - alpha * np.trace(a - b).real
            )
            assert differential_skew_divergence(a, b, alpha) == pytest.approx(
                expl3, abs=1e-9
            )

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = rand_psd(rng, 4), rand_psd(rng, 4)
            alpha = rng.uniform(0.02, 0.98)
            assert differential_skew_divergence(a, b, alpha) == pytest.approx(
                differential_skew_divergence(b, a, 1 - alpha), abs=1e-10
            )

    def test_derivative_identity(self, rng):
        for _ in range(10):
            a = 0.95 * random_state(4, rng).mat + 0.05 * np.eye(4) / 4
            b = 0.95 * random_state(4, rng).mat + 0.05 * np.eye(4) / 4
            alpha = rng.uniform(0.1, 0.9)
            h = 1e-5
            fd = (
                -alpha
                * (
                    _skewed_relative_entropy(a, b, alpha + h)
                    - _skewed_relative_entropy(a, b, alpha - h)
                )
                / (2 * h)
            )
            assert differential_skew_divergence(a, b, alpha) == pytest.approx(
                fd, abs=1e-6
            )

    def test_trace_distance_bounds(self, rng):
        for _ in range(30):
            rho, sig = random_state(4, rng), random_state(4, rng)
            alpha = rng.uniform(0.02, 0.98)
            t = trace_distance(rho, sig)
            v = differential_skew_divergence(rho.mat, sig.mat, alpha)
            assert v >= 4 * alpha * (1 - alpha) * t * t - 1e-8
            assert v <= t + 1e-8

    def test_rejects_alpha_outside_interval(self, rng):
        a, b = rand_psd(rng, 2), rand_psd(rng, 2)
        with pytest.raises(DomainError):
            differential_skew_divergence(a, b, 1.5)


class TestScalarDifferentialSd:
    def test_identical(self):
        assert scalar_differential_sd(0.7, 0.7, 0.3) == 0.0

    def test_frozen(self):
        assert scalar_differential_sd(1.0, 0.0, 0.5) == pytest.approx(0.5)

    @given(
        b=st.floats(min_value=1e-3, max_value=10),
        c=st.floats(min_value=1e-3, max_value=10),
        a=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_two_displayed_forms_agree(self, b, c, a):
        direct = scalar_differential_sd(b, c, a)
        alternate = a / (1 - a) * (b * b / (a * b + (1 - a) * c) - b) - a * (b - c)
        assert direct == pytest.approx(alternate, abs=1e-12 * max(1.0, abs(direct)))

    def test_rejects_double_zero(self):
        with pytest.raises(DomainError):
            scalar_differential_sd(0.0, 0.0, 0.5)


class TestChi2Log:
    def test_self_is_zero(self, rng):
        rho = random_state(4, rng)
        assert chi2_log(rho.mat, rho.mat) == pytest.approx(0.0, abs=1e-12)

    def test_lower_bound_by_trace_norm(self, rng):
        for _ in range(30):
            rho, sig = random_state(4, rng), random_state(4, rng)
            tn = 2 * trace_distance(rho, sig)
            assert chi2_log(rho.mat, sig.mat) >= tn * tn - 1e-8

    def test_relation_to_differential_sd(self, rng):
        for _ in range(20):
            rho, sig = random_state(3, rng), random_state(3, rng)
            alpha = rng.uniform(0.05, 0.95)
            tau = alpha * rho.mat + (1 - alpha) * sig.mat
            assert differential_skew_divergence(rho.mat, sig.mat, alpha) == pytest.approx(
                alpha / (1 - alpha) * chi2_log(rho.mat, tau), abs=1e-9
            )

    def test_rejects_support_leak(self, rng):
        with pytest.raises(DomainError):
            chi2_log(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))


class TestAveraging:
    def test_equal_arguments(self, rng):
        rho = random_state(3, rng)
        assert sd_by_averaging(rho, rho, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_matches_closed_form(self, rng):
        for _ in range(10):
            rho, sig = random_state(4, rng), random_state(4, rng)
            alpha = rng.uniform(0.05, 0.95)
            assert sd_by_averaging(rho, sig, alpha) == pytest.approx(
                skew_divergence(rho, sig, alpha), abs=1e-6
            )

    def test_orthogonal_pure_states(self, rng):
        u = random_unitary(3, rng)
        rho = np.outer(u[:, 0], u[:, 0].conj())
        sig = np.outer(u[:, 1], u[:, 1].conj())
        assert sd_by_averaging(rho, sig, 0.3) == pytest.approx(1.0, abs=1e-6)

    def test_explicit_scheme(self, rng):
        rho, sig = random_state(3, rng), random_state(3, rng)
        v = sd_by_averaging(rho, sig, 0.4, quad=QuadratureScheme(8, 16))
        assert v == pytest.approx(skew_divergence(rho, sig, 0.4), abs=1e-6)


class TestMetricEpsilonLimit:
    def test_full_rank_base_is_flat(self, rng):
        a = rand_psd(rng, 3)
        b = rand_pd(rng, 3)
        zero = np.zeros((3, 3))
        rec = metric_epsilon_limit_check(a, b, zero)
        assert rec.monotone
        spread = max(rec.values) - min(rec.values)
        assert spread <= 1e-10
        assert rec.values[-1] == pytest.approx(rec.limit, abs=1e-10)
        assert rec.limit == pytest.approx(metric_M(b, a, a).real, abs=1e-10)

    def test_rank_deficient_gap(self, rng):
        u = random_unitary(5, rng)
        wb = rng.uniform(0.3, 1.0, 3)
        b = (u[:, :3] * wb) @ u[:, :3].conj().T
        wa = rng.uniform(0.1, 1.0, 3)
        a = (u[:, :3] * wa) @ u[:, :3].conj().T
        c = u[:, 3:] @ u[:, 3:].conj().T
        rec = metric_epsilon_limit_check(a, b, c)
        assert rec.monotone
        assert rec.epsilons[-1] == pytest.approx(1e-8)
        assert abs(rec.final_gap) <= 1e-6

    def test_rejects_support_violation(self, rng):
        a = np.eye(3) / 3
        b = np.diag([1.0, 1.0, 0.0]) / 2
        c = np.eye(3)
        with pytest.raises(DomainError):
            metric_epsilon_limit_check(a, b, c)

    def test_rejects_nondecreasing_sequence(self, rng):
        a = rand_psd(rng, 2)
        b = rand_pd(rng, 2)
        with pytest.raises(DomainError):
            metric_epsilon_limit_check(a, b, b, eps_sequence=[1e-3, 1e-2])


# ---------------------------------------------------------------------------
# Batched oracle kernels against plain per-node loops
# ---------------------------------------------------------------------------


def loop_integral_pass(mat, dmat, u_edges, nodes_per_panel, second):
    """Reference for ``_integral_pass``: one pair of solves per node."""
    eye = np.eye(mat.shape[0])
    u, wts = fr._composite_gl(u_edges, nodes_per_panel)
    total = np.zeros_like(mat)
    for ui, wi in zip(u, wts):
        shifted = mat + (ui / (1.0 - ui)) * eye
        left = np.linalg.solve(shifted, dmat)
        rhs = left @ left if second else left
        core = np.linalg.solve(shifted, rhs.conj().T).conj().T
        total += ((2.0 if second else 1.0) * wi / (1.0 - ui) ** 2) * core
    return total


def loop_dsd(amat, bmat, alpha):
    """Reference for one alpha of ``_dsd_kernel``: compress onto the kept
    eigenvectors of the mixture, then sum the divided-difference form."""
    tau = alpha * amat + (1.0 - alpha) * bmat
    w, v = np.linalg.eigh(tau)
    keep = w > default_support_threshold(tau.shape[0], float(w[-1]))
    basis = v[:, keep]
    dtil = basis.conj().T @ (amat - bmat) @ basis
    f1 = fr._log_dd1(w[keep][:, None], w[keep][None, :])
    return alpha * (1.0 - alpha) * float(np.sum(f1 * np.abs(dtil) ** 2))


def loop_dsd_kernel(amat, bmat, alphas):
    return np.array([loop_dsd(amat, bmat, float(x)) for x in alphas])


def assert_rel_close(value, reference, rtol=1e-13):
    err = np.linalg.norm(np.asarray(value) - np.asarray(reference))
    assert err <= rtol * np.linalg.norm(reference), (err, np.linalg.norm(reference))


def conditioned_pd(rng, dim, cond):
    v = random_unitary(dim, rng)
    lam = np.exp(rng.uniform(-math.log(cond), 0.0, dim))
    return (v * lam) @ v.conj().T


def support_pair(rng, dim, kind):
    """Pair of PSD operators whose supports are full, nested or orthogonal."""
    if kind == "full":
        return random_state(dim, rng).mat, random_state(dim, rng).mat
    u = random_unitary(dim, rng)
    k = dim // 2
    left = (u[:, :k] * rng.uniform(0.1, 1.0, k)) @ u[:, :k].conj().T
    if kind == "nested":
        wider = (u[:, : k + 1] * rng.uniform(0.1, 1.0, k + 1)) @ u[:, : k + 1].conj().T
        return left, wider
    right = (u[:, k:] * rng.uniform(0.1, 1.0, dim - k)) @ u[:, k:].conj().T
    return left, right


QUADRATURE_ORACLES = (frechet_log_quadrature, second_frechet_log_quadrature)


class TestBatchedOracles:
    @pytest.mark.parametrize("dim", [1, 2, 3, 6, 64])
    @pytest.mark.parametrize("scheme", [None, QuadratureScheme(8, 16)])
    @pytest.mark.parametrize("oracle", QUADRATURE_ORACLES)
    def test_quadrature_matches_node_loop(self, rng, monkeypatch, dim, scheme, oracle):
        a = conditioned_pd(rng, dim, 1e3)
        d = rand_herm(rng, dim)
        batched = oracle(a, d, scheme).mat
        monkeypatch.setattr(fr, "_integral_pass", loop_integral_pass)
        assert_rel_close(batched, oracle(a, d, scheme).mat)

    @pytest.mark.parametrize("oracle", QUADRATURE_ORACLES)
    def test_partial_last_block(self, rng, monkeypatch, oracle):
        # 7 nodes per block at d=3; no node count of the rules is a multiple of 7
        monkeypatch.setattr(fr, "_NODE_BLOCK_ELEMS", 7 * 9)
        a = conditioned_pd(rng, 3, 1e2)
        d = rand_herm(rng, 3)
        batched = oracle(a, d).mat
        monkeypatch.setattr(fr, "_integral_pass", loop_integral_pass)
        assert_rel_close(batched, oracle(a, d).mat)

    def test_node_blocks_cover_every_node_once(self):
        for n_nodes, dim in ((160, 4), (4096, 6), (96, 64), (5, 300)):
            blocks = fr._node_blocks(n_nodes, dim)
            covered = np.concatenate([np.arange(n_nodes)[b] for b in blocks])
            assert np.array_equal(covered, np.arange(n_nodes))
            assert all(
                (b.stop - b.start) * dim * dim <= max(fr._NODE_BLOCK_ELEMS, dim * dim)
                for b in blocks
            )

    @pytest.mark.parametrize("kind", ["full", "nested", "orthogonal"])
    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_averaging_matches_node_loop(self, rng, monkeypatch, kind, dim):
        a, b = support_pair(rng, dim, kind)
        alpha = 0.35
        batched = [
            sd_by_averaging(a, b, alpha),
            sd_by_averaging(a, b, alpha, quad=QuadratureScheme(8, 16)),
            differential_skew_divergence(a, b, alpha),
        ]
        monkeypatch.setattr(fr, "_dsd_kernel", loop_dsd_kernel)
        reference = [
            sd_by_averaging(a, b, alpha),
            sd_by_averaging(a, b, alpha, quad=QuadratureScheme(8, 16)),
            differential_skew_divergence(a, b, alpha),
        ]
        for value, ref in zip(batched, reference):
            assert_rel_close(value, ref)

    def test_averaging_partial_last_block(self, rng, monkeypatch):
        monkeypatch.setattr(fr, "_NODE_BLOCK_ELEMS", 7 * 16)  # 7 mixtures per block at d=4
        a, b = support_pair(rng, 4, "nested")
        batched = sd_by_averaging(a, b, 0.6, quad=QuadratureScheme(8, 16))
        monkeypatch.setattr(fr, "_dsd_kernel", loop_dsd_kernel)
        assert_rel_close(batched, sd_by_averaging(a, b, 0.6, quad=QuadratureScheme(8, 16)))


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; return the list of the positional
    arguments of every call it receives."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestOracleKernelCalls:
    """The oracles stay batched: LAPACK calls scale with blocks, not nodes."""

    @pytest.mark.parametrize("oracle", QUADRATURE_ORACLES)
    def test_quadrature_uses_no_eigenvectors(self, rng, monkeypatch, oracle):
        def no_eigh(*args, **kwargs):
            raise AssertionError("the quadrature oracle must not call eigh")

        a = conditioned_pd(rng, 4, 1e3)
        d = rand_herm(rng, 4)
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert np.all(np.isfinite(oracle(a, d).mat))

    def test_solves_per_quadrature_are_per_block(self, rng, monkeypatch):
        a = conditioned_pd(rng, 4, 1e3)
        d = rand_herm(rng, 4)
        passes = counting(monkeypatch, fr, "_composite_gl")
        solves = counting(monkeypatch, np.linalg, "solve")
        frechet_log_quadrature(a, d)
        block = fr._NODE_BLOCK_ELEMS // 16
        max_nodes = max(len(edges) - 1 for edges, _ in passes) * 16
        assert len(passes) >= 2  # the adaptive default refines at least once
        assert len(solves) <= 2 * len(passes) * math.ceil(max_nodes / block)

    def test_averaging_eigh_calls(self, rng, monkeypatch):
        rho, sig = random_state(4, rng), random_state(4, rng)
        eighs = counting(monkeypatch, np.linalg, "eigh")
        sd_by_averaging(rho, sig, 0.4, quad=QuadratureScheme(8, 16))
        # one for the support of A+B, one for the stack of all 160 mixtures
        assert len(eighs) == 2
