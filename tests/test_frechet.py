import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsd import (
    DomainError,
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
        first = fr._log_dd1(w[:, None], w[None, :])
        assert np.allclose(np.diag(first), 1.0 / w)
        assert np.allclose(first, first.T)
        assert np.allclose(
            first[0, 1], (math.log(w[0]) - math.log(w[1])) / (w[0] - w[1])
        )

    def test_second_dd_symmetry_and_diagonal(self, rng):
        w = rng.uniform(0.1, 2.0, 4)
        t = fr._log_dd2(w[:, None, None], w[None, :, None], w[None, None, :])
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
            first = fr._log_dd1(np.array([x]), np.array([y]))
            assert first[0] == pytest.approx(accurate, rel=1e-9)

    @given(
        base=st.floats(min_value=-14.0, max_value=3.0),
        spread=st.floats(min_value=-17.0, max_value=3.0),
        inner=st.floats(min_value=0.0, max_value=1.0),
        order=st.permutations(range(3)),
    )
    def test_second_dd_matches_decimal_reference(self, base, spread, inner, order):
        lo = 10.0**base
        hi = lo * (1.0 + 10.0**spread)
        triple = np.array([lo, lo + inner * (hi - lo), hi])[order]
        got = fr._log_dd2(*(triple[i : i + 1] for i in range(3)))[0]
        ref = log_dd2_decimal(*triple)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    @given(
        base=st.floats(min_value=-14.0, max_value=3.0),
        spread=st.floats(min_value=-17.0, max_value=17.0),
        swap=st.booleans(),
    )
    def test_first_dd_matches_decimal_reference(self, base, spread, swap):
        # relative gaps from 1e-17 to 1e17: the close branch, the switch, and
        # eigenvalue ratios where 2/(x+y) atanh(z)/z loses its digits
        lo = 10.0**base
        hi = lo * (1.0 + 10.0**spread)
        x, y = (hi, lo) if swap else (lo, hi)
        got = fr._log_dd1(np.array([x]), np.array([y]))[0]
        ref = log_dd1_decimal(x, y)
        assert abs(got - ref) <= 1e-14 * abs(ref)


def dd1_decimal(p, q):
    """``log[p, q]`` of two positive decimals, at the context's precision."""
    return 1 / p if p == q else (p.ln() - q.ln()) / (p - q)


def log_dd1_decimal(x, y):
    """``log[x, y]`` at 60 digits from the exact values of two floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(dd1_decimal(decimal.Decimal(float(x)), decimal.Decimal(float(y))))


def log_dd2_decimal(x, y, z):
    """``log[x, y, z]`` at 60 digits from the exact values of three floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lo, mid, hi = sorted(decimal.Decimal(float(t)) for t in (x, y, z))
        if lo == hi:
            return float(-1 / (2 * lo * lo))
        return float((dd1_decimal(lo, mid) - dd1_decimal(mid, hi)) / (lo - hi))


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

    def test_repeated_argument_is_the_copied_one(self, rng):
        # M_A(X, X) changes basis once: the same bits as two equal changes,
        # and an exactly real value
        a, x = rand_pd(rng, 6), rand_herm(rng, 6)
        stack_a, stack_x = np.stack([a, rand_pd(rng, 6)]), np.stack([x, rand_herm(rng, 6)])
        for base, arg in ((a, x), (stack_a, stack_x)):
            once = np.asarray(metric_M(base, arg, arg))
            assert once.tobytes() == np.asarray(metric_M(base, arg, arg.copy())).tobytes()
            assert not once.imag.any()


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

    def test_quadratic_form_runs_the_core_once(self, rng, monkeypatch):
        cores = counting(monkeypatch, fr, "_second_core")
        a, d = rand_pd(rng, 4), rand_herm(rng, 4)
        second_frechet_log(a, d)
        assert len(cores) == 1
        second_frechet_log(a, d, rand_herm(rng, 4))  # the swapped term is the adjoint
        assert len(cores) == 2

    def test_memory_stays_quadratic(self, rng):
        # the d^3 table of log[w_i, w_k, w_j] alone would take 16 MiB at d=128
        a, d = rand_pd(rng, 128), rand_herm(rng, 128)
        tracemalloc.start()
        try:
            second_frechet_log(a, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("dim", [1, 4, 9])
    def test_default_second_perturbation_is_bit_identical(self, rng, dim):
        a, d = rand_pd(rng, dim), rand_herm(rng, dim)
        assert np.array_equal(second_frechet_log(a, d).mat, second_frechet_log(a, d, d).mat)

    def test_finite_difference_oracle(self, rng):
        a = rand_pd(rng, 4, floor=0.3)
        d = rand_herm(rng, 4)
        lam_min = np.linalg.eigvalsh(a).min()
        fd = second_frechet_log_central_diff(a, d, h=1e-3 * lam_min, order=4).mat
        assert np.linalg.norm(fd - second_frechet_log(a, d).mat) <= 1e-5 * max(
            1.0, np.linalg.norm(second_frechet_log(a, d).mat)
        )


class TestQuadratureOracles:
    def test_weights_positive(self):
        x, w = np.polynomial.legendre.leggauss(16)
        assert w.min() > 0.0

    def test_rule_is_built_once(self, rng, monkeypatch):
        calls = []
        real = np.polynomial.legendre.leggauss
        monkeypatch.setattr(
            np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or real(n)
        )
        fr._gauss_legendre.cache_clear()
        a, d = rand_pd(rng, 3), rand_herm(rng, 3)
        frechet_log_quadrature(a, d)
        sd_by_averaging(random_state(3, rng), random_state(3, rng), 0.4)
        assert calls == [16]
        x, w = fr._gauss_legendre()
        assert not (x.flags.writeable or w.flags.writeable)

    def test_cached_rule_gives_bit_identical_oracles(self, rng, monkeypatch):
        a, d = rand_pd(rng, 4), rand_herm(rng, 4)
        rho, sig = random_state(4, rng), random_state(4, rng)

        def oracles():
            return frechet_log_quadrature(a, d).mat, sd_by_averaging(rho, sig, 0.3)

        cached = oracles()
        monkeypatch.setattr(fr, "_gauss_legendre", lambda: np.polynomial.legendre.leggauss(16))
        fresh = oracles()
        assert np.array_equal(cached[0], fresh[0]) and cached[1] == fresh[1]

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

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4])
    def test_any_scale_of_the_spectrum(self, rng, scale):
        # the tail panels scale with the spectrum, as the log panels do
        a, d = scale * rand_pd(rng, 4), rand_herm(rng, 4)
        for oracle, closed in (
            (frechet_log_quadrature, frechet_log),
            (second_frechet_log_quadrature, second_frechet_log),
        ):
            ref = closed(a, d).mat
            assert np.linalg.norm(oracle(a, d).mat - ref) <= 3e-13 * np.linalg.norm(ref)

    def test_finite_difference_route(self, rng):
        a = rand_pd(rng, 5, floor=0.2)
        d = rand_herm(rng, 5)
        dd = frechet_log(a, d).mat
        fd = frechet_log_central_diff(a, d, h=1e-5, order=2).mat
        assert np.linalg.norm(fd - dd) <= 1e-6 * max(1.0, np.linalg.norm(dd))

    @pytest.mark.parametrize("oracle", [frechet_log_central_diff, second_frechet_log_central_diff])
    @pytest.mark.parametrize("h", [0.0, math.nan, math.inf, -math.inf])
    def test_finite_difference_rejects_a_degenerate_step(self, rng, oracle, h):
        # a divide warning would fail the test before the domain error
        with pytest.raises(DomainError, match="step h"):
            oracle(rand_pd(rng, 3, floor=0.2), rand_herm(rng, 3), h=h)


class TestStraddlingSpectra:
    """Spectra with a pair just around the confluent switch ``DD_CLOSE_RTOL``:
    the divided-difference routes must keep full accuracy on both sides of it.
    """

    @given(
        base=st.floats(min_value=1e-3, max_value=10.0),
        factor=st.floats(min_value=0.5, max_value=20.0),
        third=st.floats(min_value=1e-3, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # each example runs two quadrature oracles, whose time a loaded host can
    # stretch past the default deadline; the 1e-7 bound is what this test pins
    @settings(deadline=None)
    def test_derivatives_match_quadrature(self, base, factor, third, seed):
        rng = np.random.default_rng(seed)
        lam = np.array([base, base * (1.0 + factor * fr.DD_CLOSE_RTOL), third])
        u = random_unitary(3, rng)
        a = (u * lam) @ u.conj().T
        d = rand_herm(rng, 3)
        for closed, oracle in (
            (frechet_log, frechet_log_quadrature),
            (second_frechet_log, second_frechet_log_quadrature),
        ):
            ref = oracle(a, d).mat
            err = np.linalg.norm(closed(a, d).mat - ref)
            assert err <= 1e-7 * np.linalg.norm(ref)


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

    def test_single_pass(self, rng):
        rho, sig = random_state(3, rng), random_state(3, rng)
        v = sd_by_averaging(rho, sig, 0.4, refine=False)
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

    def test_rejects_singular_base(self):
        # every B + eps C equals the rank-2 B, which is not positive-definite
        a = np.diag([1.0, 1.0, 0.0]) / 2
        b = np.diag([1.0, 2.0, 0.0]) / 3
        with pytest.raises(DomainError):
            metric_epsilon_limit_check(a, b, np.zeros((3, 3)))

    def test_two_eigh_calls(self, rng, monkeypatch):
        a, b = support_pair(rng, 4, "nested")
        eighs = counting(monkeypatch, np.linalg, "eigh")
        metric_epsilon_limit_check(a, b, np.eye(4))
        # one for the support of B, one for the stack of the 8 bases B + eps C
        assert len(eighs) == 2


# ---------------------------------------------------------------------------
# Batched oracle kernels against plain per-node loops
# ---------------------------------------------------------------------------


def loop_integral_pass(mat, dmat, s, coef, second):
    """Reference for ``_integral_pass``: one pair of solves per node."""
    eye = np.eye(mat.shape[0])
    total = np.zeros_like(dmat)  # mat is the real band, dmat complex
    for si, ci in zip(s, coef):
        shifted = mat + si * eye
        left = np.linalg.solve(shifted, dmat)
        rhs = left @ left if second else left
        core = np.linalg.solve(shifted, rhs.conj().T).conj().T
        total += ((2.0 if second else 1.0) * ci) * core
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
    return np.array([loop_dsd(a, b, float(x)) for a, b, x in zip(amat, bmat, alphas)])


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
    @pytest.mark.parametrize("refine", [True, False])
    @pytest.mark.parametrize("oracle", QUADRATURE_ORACLES)
    def test_quadrature_matches_node_loop(self, rng, monkeypatch, dim, refine, oracle):
        if not refine:
            monkeypatch.setattr(fr, "_MAX_QUAD_NODES", 0)  # first pass only
        a = conditioned_pd(rng, dim, 1e3)
        d = rand_herm(rng, dim)
        batched = oracle(a, d).mat
        monkeypatch.setattr(fr, "_integral_pass", loop_integral_pass)
        assert_rel_close(batched, oracle(a, d).mat)

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
            sd_by_averaging(a, b, alpha, refine=False),
            differential_skew_divergence(a, b, alpha),
        ]
        monkeypatch.setattr(fr, "_dsd_kernel", loop_dsd_kernel)
        reference = [
            sd_by_averaging(a, b, alpha),
            sd_by_averaging(a, b, alpha, refine=False),
            differential_skew_divergence(a, b, alpha),
        ]
        for value, ref in zip(batched, reference):
            assert_rel_close(value, ref)

    def test_averaging_partial_last_block(self, rng, monkeypatch):
        monkeypatch.setattr(fr, "_NODE_BLOCK_ELEMS", 7 * 16)  # 7 mixtures per block at d=4
        a, b = support_pair(rng, 4, "nested")
        batched = sd_by_averaging(a, b, 0.6, refine=False)
        monkeypatch.setattr(fr, "_dsd_kernel", loop_dsd_kernel)
        assert_rel_close(batched, sd_by_averaging(a, b, 0.6, refine=False))


class TestRefinement:
    """``_refine`` doubles the mesh density of both oracle families."""

    def test_no_pass_exceeds_node_cap(self, rng, monkeypatch):
        # integrals that never settle, so only the node cap stops refinement
        nodes = []

        def quad_pass(mat, dmat, s, coef, second):
            nodes.append(s.size)
            return np.full_like(mat, len(nodes))

        def dsd_kernel(amat, bmat, alphas):
            nodes.append(alphas.size)
            return np.full(alphas.size, float(len(nodes)))

        monkeypatch.setattr(fr, "_integral_pass", quad_pass)
        monkeypatch.setattr(fr, "_dsd_kernel", dsd_kernel)
        a, d = conditioned_pd(rng, 3, 1e3), rand_herm(rng, 3)
        rho, sig = random_state(3, rng), random_state(3, rng)
        for run in (
            lambda: frechet_log_quadrature(a, d),
            lambda: second_frechet_log_quadrature(a, d),
            lambda: sd_by_averaging(rho, sig, 0.4),
        ):
            nodes.clear()
            run()
            assert len(nodes) >= 2
            assert max(nodes) <= fr._MAX_QUAD_NODES < 2 * nodes[-1]

    def test_log_panels_per_two_decades(self, rng, monkeypatch):
        # 2.5 + 6 padded decades: 5 log panels, then 9, each with the two
        # tail panels
        v = random_unitary(64, rng)
        a = (v * np.geomspace(10.0**-2.5, 1.0, 64)) @ v.conj().T
        passes = counting(monkeypatch, fr, "_integral_pass")
        frechet_log_quadrature(a, rand_herm(rng, 64))
        assert [args[2].size for args in passes] == [112, 176]

    def test_single_pass_is_first_pass(self, rng, monkeypatch):
        # 1e-9 b to 1/a - 1 spans 9.29 decades at b = -log 0.3: 5 log panels,
        # then 10, each with the head panel
        rho, sig = random_state(4, rng), random_state(4, rng)
        passes = counting(monkeypatch, fr, "_dsd_kernel")
        refined = sd_by_averaging(rho, sig, 0.3)
        assert [args[2].size for args in passes] == [96, 176]
        single = sd_by_averaging(rho, sig, 0.3, refine=False)
        monkeypatch.setattr(fr, "_MAX_QUAD_NODES", 0)  # the default route stops at once
        assert single == sd_by_averaging(rho, sig, 0.3)
        assert single != refined

    @pytest.mark.parametrize("scale", [1.0, 0.37, 1e-6])
    def test_second_pass_refines_a_scalar_base(self, rng, monkeypatch, scale):
        # the padding alone spans 6 decades: 3 log panels (4 if the span
        # rounds up), then twice as many less at most one
        passes = counting(monkeypatch, fr, "_integral_pass")
        frechet_log_quadrature(scale * np.eye(4), rand_herm(rng, 4))
        first, second = (args[2].size // fr._NODES_PER_PANEL - 2 for args in passes)
        assert 3 <= first <= 4 and second >= 2 * first - 1

    @pytest.mark.parametrize("density", [1, 2])
    @pytest.mark.parametrize(
        "rule, lo, hi",
        [("quadrature", 1e-4, 1.0), ("quadrature", 1e-12, 1e-8), ("quadrature", 1e4, 1e10)]
        + [("averaging", -1e-9 * math.log(a), 1.0 / a - 1.0) for a in (0.05, 0.5, 0.95)],
    )
    def test_nodes_integrate_the_resolvent(self, density, rule, lo, hi):
        # int (w + x)^-2 dx, for w inside and just outside the range: 1/w over
        # [0, inf) for the quadrature oracle's spectrum [lo, hi], and
        # 1/w - 1/(w + hi) over the averaging oracle's [0, 1/a - 1]
        if rule == "quadrature":
            x, coef = fr._quadrature_nodes(lo, hi, density)
            w = np.geomspace(lo / 10, hi * 10, 25)
            exact, rtol = 1.0 / w, 1e-13 if density == 1 else 1e-14
        else:
            x, coef = fr._log_panels(lo, hi, density)
            w = np.geomspace(lo, 10 * hi, 25)
            exact, rtol = hi / (w * (w + hi)), 1e-14
        assert (np.diff(x) > 0.0).all() and (coef > 0.0).all()
        got = coef @ (1.0 / (w[None, :] + x[:, None]) ** 2)
        assert np.abs(got / exact - 1.0).max() <= rtol


def check_tridiagonal(a):
    """``_tridiagonal(a)`` gives a unitary ``q`` and a real symmetric
    tridiagonal ``t`` with a nonnegative band and ``q t q* = a``; returns them."""
    q, t = fr._tridiagonal(a)
    dim = a.shape[0]
    assert np.linalg.norm(q.conj().T @ q - np.eye(dim)) <= 1e-14 * math.sqrt(dim)
    assert t.dtype == np.float64 and np.array_equal(t, t.T)
    assert (t.diagonal(-1) >= 0.0).all()
    assert not np.triu(t, 2).any() and not np.tril(t, -2).any()
    assert_rel_close(q @ t @ q.conj().T, a, rtol=1e-14)
    return q, t


def block_diagonal_pd(rng, sizes=(3, 3)):
    """Positive definite matrix of independent diagonal blocks."""
    a = np.zeros((sum(sizes),) * 2, dtype=complex)
    lo = 0
    for size in sizes:
        a[lo : lo + size, lo : lo + size] = conditioned_pd(rng, size, 1e2)
        lo += size
    return (a + a.conj().T) / 2


class TestTridiagonal:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_random_hermitian(self, rng, dim):
        check_tridiagonal(rand_herm(rng, dim))

    def test_diagonal_skips_every_reflector(self, rng):
        a = np.diag(rng.uniform(-1.0, 1.0, 5)).astype(complex)
        q, t = check_tridiagonal(a)
        assert np.array_equal(q, np.eye(5)) and np.array_equal(t, a)

    def test_block_diagonal_splits_the_band(self, rng):
        _, t = check_tridiagonal(block_diagonal_pd(rng))
        assert t[3, 2] == 0.0

    def test_zero_leading_entry(self, rng):
        a = rand_herm(rng, 5)
        a[1, 0] = a[0, 1] = 0.0
        check_tridiagonal(a)

    @pytest.mark.parametrize("oracle", QUADRATURE_ORACLES)
    def test_split_band_matches_node_loop(self, rng, monkeypatch, oracle):
        a = block_diagonal_pd(rng)
        d = rand_herm(rng, 6)
        banded = oracle(a, d).mat
        monkeypatch.setattr(fr, "_integral_pass", loop_integral_pass)
        assert_rel_close(banded, oracle(a, d).mat)


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

    @pytest.mark.parametrize("oracle", QUADRATURE_ORACLES)
    def test_quadrature_reduces_once_and_never_solves(self, rng, monkeypatch, oracle):
        a = conditioned_pd(rng, 4, 1e3)
        d = rand_herm(rng, 4)
        passes = counting(monkeypatch, fr, "_integral_pass")
        reductions = counting(monkeypatch, fr, "_tridiagonal")
        solves = counting(monkeypatch, np.linalg, "solve")
        eighs = counting(monkeypatch, np.linalg, "eigh")
        oracle(a, d)
        assert len(passes) >= 2  # the adaptive default refines at least once
        # one reduction serves every pass; each node is a banded sweep
        assert (len(reductions), len(solves), len(eighs)) == (1, 0, 0)

    def test_averaging_eigh_calls(self, rng, monkeypatch):
        rho, sig = random_state(4, rng), random_state(4, rng)
        eighs = counting(monkeypatch, np.linalg, "eigh")
        sd_by_averaging(rho, sig, 0.4, refine=False)
        # one for the stack of all 96 mixtures; their support masks drop
        # every direction outside supp(A+B), so no separate support call
        assert len(eighs) == 1


# ---------------------------------------------------------------------------
# The second-derivative kernel against the d^3 einsum
# ---------------------------------------------------------------------------


def einsum_second_frechet_log(a, d1, d2):
    """Reference for ``second_frechet_log``: the full d^3 table of
    ``log[w_i, w_k, w_j]`` contracted by one einsum per term."""
    w, v = np.linalg.eigh(a)
    f2 = fr._log_dd2(w[:, None, None], w[None, :, None], w[None, None, :])
    x = v.conj().T @ d1 @ v
    y = v.conj().T @ d2 @ v
    core = np.einsum("ik,ikj,kj->ij", x, f2, y) + np.einsum("ik,ikj,kj->ij", y, f2, x)
    return -(v @ core @ v.conj().T)


def spectrum_of_kind(rng, dim, kind):
    """Eigenvalues, largest 1, of one of the kinds the kernel splits on."""
    if kind.startswith("gap"):  # neighbours at a relative gap of factor * tau
        ratio = 1.0 - float(kind[3:]) * fr._SPLIT_RTOL
        return ratio ** np.arange(dim)
    if kind == "cluster":
        return 1.0 - 0.05 * rng.uniform(0.0, 1.0, dim)
    if kind == "tiny":  # half the spectrum near 1e-14, above the support floor
        lam = rng.uniform(0.1, 1.0, dim)
        lam[: dim // 2] = 1e-14 * rng.uniform(2.0, 4.0, dim // 2)
        return lam
    return np.geomspace(1e-12, 1.0, dim)  # condition number 1e12


SPECTRA = ("gap0.5", "gap1", "gap2", "cluster", "tiny", "kappa")


class TestSecondCore:
    @pytest.mark.parametrize("kind", SPECTRA)
    @pytest.mark.parametrize("dim", [1, 2, 5, 33, 64])
    @pytest.mark.parametrize("second", [False, True])
    def test_matches_einsum(self, rng, dim, kind, second):
        u = random_unitary(dim, rng)
        a = (u * spectrum_of_kind(rng, dim, kind)) @ u.conj().T
        a = (a + a.conj().T) / 2
        d1 = rand_herm(rng, dim)
        d2 = rand_herm(rng, dim) if second else d1
        got = second_frechet_log(a, d1, d2 if second else None).mat
        assert_rel_close(got, einsum_second_frechet_log(a, d1, d2))

    @pytest.mark.parametrize("pairs_per_block", [None, 1500])
    def test_all_close_pairs_span_blocks(self, rng, monkeypatch, pairs_per_block):
        # every pair of this spectrum is within _SPLIT_RTOL = 0.01 (spread
        # 0.005 of the largest), so all are close: the 2080 pairs with i <= j
        # fill 2 blocks of 1024 and a last one of 32 at the default size, or
        # one of 1500 and a last one of 580
        if pairs_per_block:
            monkeypatch.setattr(fr, "_NODE_BLOCK_ELEMS", pairs_per_block * 64)
        u = random_unitary(64, rng)
        a = (u * rng.uniform(1.0, 1.005, 64)) @ u.conj().T
        a = (a + a.conj().T) / 2
        d = rand_herm(rng, 64)
        blocks = counting(monkeypatch, fr, "_log_dd2_ordered")
        got = second_frechet_log(a, d).mat
        assert [len(args[0]) for args in blocks] == (
            [1024, 1024, 32] if pairs_per_block is None else [1500, 580]
        )
        assert_rel_close(got, einsum_second_frechet_log(a, d, d))
