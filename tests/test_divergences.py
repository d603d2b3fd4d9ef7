import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsd import (
    DimensionMismatchError,
    DomainError,
    apply_channel,
    fidelity,
    random_cptp,
    random_state,
    random_unitary,
    relative_entropy,
    scalar_differential_sd,
    scalar_relative_entropy,
    scalar_skew_divergence,
    sd_by_averaging,
    shannon_entropy,
    skew_divergence,
    trace_distance,
    von_neumann_entropy,
)

LOG2 = 0.6931471805599453

positive = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
alphas = st.floats(min_value=0.01, max_value=0.99)


class TestSkewParameter:
    SKEWED = {
        "skew_divergence": lambda a: skew_divergence(np.eye(2) / 2, np.diag([0.3, 0.7]), a),
        "scalar_skew_divergence": lambda a: scalar_skew_divergence(0.5, 0.3, a),
        "sd_by_averaging": lambda a: sd_by_averaging(np.eye(2) / 2, np.diag([0.3, 0.7]), a),
    }

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, 1e-13, 1.0 - 1e-13, math.nan])
    @pytest.mark.parametrize("name", SKEWED)
    def test_range_is_checked_by_every_skewed_function(self, name, bad):
        fn = self.SKEWED[name]
        assert math.isfinite(fn(0.5))
        with pytest.raises(DomainError, match=r"^skew parameter must lie in \[1e-12, 1-1e-12\], got "):
            fn(bad)


class TestVonNeumannEntropy:
    def test_pure_state(self, rng):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        assert von_neumann_entropy(np.outer(psi, psi.conj())) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(math.log(d))

    def test_zero_log_zero_convention(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5, 0.0])) == pytest.approx(LOG2)

    def test_range(self, rng):
        for _ in range(50):
            s = von_neumann_entropy(random_state(4, rng))
            assert -1e-12 <= s <= math.log(4) + 1e-12


class TestScalarRelativeEntropy:
    def test_trivial_and_frozen(self):
        assert scalar_relative_entropy(1.0, 1.0) == 0.0
        # direct formula: 1 (log 1 - log e) - (1 - e) = e - 2
        assert scalar_relative_entropy(1.0, math.e) == pytest.approx(
            0.7182818284590451, abs=1e-15
        )
        assert scalar_relative_entropy(0.0, 0.7) == 0.7
        assert math.isinf(scalar_relative_entropy(0.3, 0.0))

    @given(a=positive, b=positive)
    def test_nonnegative(self, a, b):
        assert scalar_relative_entropy(a, b) >= -1e-12


class TestScalarFormulasOnArrays:
    """Each scalar formula takes arrays entrywise: an entry gets the value of
    its float call, limits included, and floats still give floats."""

    # (formula, takes a skew parameter); (0, 0) is skipped where undefined
    FORMULAS = [
        (scalar_relative_entropy, False),
        (scalar_skew_divergence, True),
        (scalar_differential_sd, True),
    ]

    @pytest.mark.parametrize("fn, skewed", FORMULAS)
    def test_entries_match_float_calls(self, rng, fn, skewed):
        b = np.concatenate([rng.uniform(0.0, 2.0, 20), [0.0, 0.0, 1.0, 0.5]])
        c = np.concatenate([rng.uniform(0.0, 2.0, 20), [1.0, 0.7, 0.0, 0.5]])
        alpha = rng.uniform(0.02, 0.98, b.size)
        args = (b, c, alpha) if skewed else (b, c)
        values = fn(*args)
        assert isinstance(values, np.ndarray) and values.shape == b.shape
        for i, value in enumerate(values):
            one = fn(*(float(x[i]) for x in args))
            assert type(one) is float
            assert value == one

    def test_limits_on_arrays(self):
        assert list(scalar_relative_entropy([0.0, 0.3], [0.7, 0.0])) == [0.7, math.inf]
        assert list(scalar_differential_sd([1.0, 1.0], [0.0, 0.0], [0.0, 1.0])) == [0.0, 0.0]
        assert scalar_differential_sd(1.0, 0.0, 0.0) == 0.0

    def test_alpha_broadcasts_against_scalars(self):
        alpha = np.array([0.25, 0.5, 0.9])
        expected = [scalar_skew_divergence(1.0, 0.0, float(a)) for a in alpha]
        assert list(scalar_skew_divergence(1.0, 0.0, alpha)) == expected

    @pytest.mark.parametrize(
        "call",
        [
            lambda: scalar_relative_entropy([0.5, -0.1], 1.0),
            lambda: scalar_skew_divergence([0.5, 0.0], [0.5, 0.0], 0.5),
            lambda: scalar_skew_divergence(1.0, [0.5, -1.0], 0.5),
            lambda: scalar_skew_divergence(1.0, 0.5, [0.5, 1.0]),
            lambda: scalar_skew_divergence(1.0, 0.5, [0.5, math.nan]),
            lambda: scalar_differential_sd([0.5, 0.0], [0.5, 0.0], 0.5),
            lambda: scalar_differential_sd(1.0, 0.5, [0.5, 1.5]),
            lambda: scalar_differential_sd(1.0, 0.5, math.nan),
        ],
    )
    def test_one_bad_entry_raises(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize(
        "fn, args, name",
        [
            (scalar_relative_entropy, (math.nan, 0.5), "scalar relative entropy"),
            (scalar_relative_entropy, (0.5, [1.0, math.nan]), "scalar relative entropy"),
            (scalar_skew_divergence, (0.5, math.nan, 0.5), "scalar skew divergence"),
            (scalar_differential_sd, (math.nan, 0.5, 0.3), "scalar differential skew divergence"),
        ],
    )
    def test_nan_argument_raises_naming_the_formula(self, fn, args, name):
        with pytest.raises(DomainError, match=name):
            fn(*args)


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, 1.0], [0.5, -math.inf]])
def test_shannon_entropy_rejects_non_finite_weights(weights):
    with pytest.raises(DomainError, match="Shannon entropy"):
        shannon_entropy(weights)


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_state(4, rng)
        assert float(relative_entropy(rho, rho)) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_mixed_frozen(self):
        v = relative_entropy(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
        assert type(v) is float
        assert v == pytest.approx(LOG2, abs=1e-12)

    def test_infinite_with_support_defect(self):
        assert relative_entropy(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])) == math.inf

    def test_nonnormalized_correction(self, rng):
        # S(A||B) >= 0 with equality iff A == B, also off normalization
        a = 1.7 * random_state(3, rng).mat
        b = 0.6 * random_state(3, rng).mat
        assert float(relative_entropy(a, b)) >= -1e-10
        assert float(relative_entropy(a, a)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_operator(self):
        with pytest.raises(DomainError):
            relative_entropy(np.diag([1.0, -0.5]), np.eye(2))

    def test_overflow_is_a_named_domain_error(self):
        # finite operands, no leak, but trace A log A overflows
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="overflows"):
            relative_entropy(np.diag([8.9e307, 8.9e307]), np.diag([0.5, 0.5]))

    def test_singular_but_nested_supports(self, rng):
        u = random_unitary(4, rng)
        b = (u[:, :3] * np.array([0.5, 0.3, 0.2])) @ u[:, :3].conj().T
        a = (u[:, :2] * np.array([0.6, 0.4])) @ u[:, :2].conj().T
        v = relative_entropy(a, b)
        assert math.isfinite(v)
        assert v >= -1e-10


class TestScalarSkewDivergence:
    def test_identical_arguments(self):
        assert scalar_skew_divergence(1.0, 1.0, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_values(self):
        # direct substitution into the scalar formula
        assert scalar_skew_divergence(0.0, 1.0, 0.5) == pytest.approx(
            0.7213475204444817, abs=1e-15
        )
        assert scalar_skew_divergence(1.0, 0.0, 0.5) == pytest.approx(
            0.27865247955551825, abs=1e-15
        )
        assert scalar_skew_divergence(1.0, 0.0, 0.25) == pytest.approx(
            0.45898935966663873, abs=1e-15
        )
        assert scalar_skew_divergence(1.0, 0.0, 0.9) == pytest.approx(
            0.05087784189700973, abs=1e-15
        )

    def test_rejects_double_zero(self):
        with pytest.raises(DomainError):
            scalar_skew_divergence(0.0, 0.0, 0.5)

    def test_validates_its_arguments_once(self, monkeypatch):
        from qsd import divergences

        calls = []
        validate = divergences._nonnegative_pair
        monkeypatch.setattr(
            divergences, "_nonnegative_pair", lambda *a, **k: calls.append(a) or validate(*a, **k)
        )
        b, c, alpha = np.array([0.0, 0.4, 2.0]), np.array([1.0, 0.4, 0.0]), 0.3
        value = scalar_skew_divergence(b, c, alpha)
        assert len(calls) == 1
        # the shared arithmetic is the relative entropy against the mixture
        mix = alpha * b + (1.0 - alpha) * c
        expected = [scalar_relative_entropy(x, y) / -np.log(alpha) for x, y in zip(b, mix)]
        assert value.tolist() == expected

    @given(b=positive, c=positive, a=alphas)
    def test_nonnegative_and_finite(self, b, c, a):
        v = scalar_skew_divergence(b, c, a)
        assert math.isfinite(v)
        assert v >= -1e-12

    @given(x=positive, b=positive, c=positive, a=alphas)
    def test_matches_matrix_route_on_scalars(self, x, b, c, a):
        v_scalar = scalar_skew_divergence(b, c, a) * x
        v_matrix = skew_divergence(np.array([[b * x]]), np.array([[c * x]]), a)
        # the matrix route cancels two O(x log x) traces, so allow for that
        cancellation = 1e-13 * max(1.0, x * (b + c)) / (-math.log(a))
        assert v_matrix == pytest.approx(v_scalar, abs=1e-10 + cancellation)


class TestSkewDivergence:
    def test_self_is_zero(self, rng):
        rho = random_state(5, rng)
        for alpha in (0.01, 0.5, 0.99):
            assert skew_divergence(rho, rho, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states_give_one(self, rng):
        u = random_unitary(4, rng)
        rho = np.outer(u[:, 0], u[:, 0].conj())
        sig = np.outer(u[:, 1], u[:, 1].conj())
        for alpha in (0.01, 0.5, 0.99):
            assert skew_divergence(rho, sig, alpha) == pytest.approx(1.0, abs=1e-9)

    def test_diag_family_equals_t(self):
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            rho = np.diag([t, 0.0, 1.0 - t])
            sig = np.diag([0.0, t, 1.0 - t])
            for alpha in (0.1, 0.5, 0.9):
                assert skew_divergence(rho, sig, alpha) == pytest.approx(t, abs=1e-9)

    def test_range_on_random_states(self, rng):
        for _ in range(200):
            rho, sig = random_state(4, rng), random_state(4, rng)
            v = skew_divergence(rho, sig, rng.uniform(0.05, 0.95))
            assert -1e-9 <= v <= 1.0 + 1e-9

    def test_never_infinite_for_singular_inputs(self, rng):
        u = random_unitary(4, rng)
        rho = np.outer(u[:, 0], u[:, 0].conj())
        sig = np.outer(u[:, 1], u[:, 1].conj())
        v = skew_divergence(rho, sig, 0.5)
        assert math.isfinite(v)

    def test_scaling_identities(self, rng):
        for _ in range(30):
            x = random_state(3, rng).mat * rng.uniform(0.1, 2.0)
            y = random_state(3, rng).mat * rng.uniform(0.1, 2.0)
            b, c = rng.uniform(0.05, 2.0, 2)
            alpha = rng.uniform(0.05, 0.95)
            assert skew_divergence(b * x, b * y, alpha) == pytest.approx(
                b * skew_divergence(x, y, alpha), abs=1e-9
            )
            assert skew_divergence(b * x, c * x, alpha) == pytest.approx(
                scalar_skew_divergence(b, c, alpha) * np.trace(x).real, abs=1e-9
            )

    def test_unitary_invariance(self, rng):
        rho, sig = random_state(4, rng), random_state(4, rng)
        u = random_unitary(4, rng)
        assert skew_divergence(
            u @ rho.mat @ u.conj().T, u @ sig.mat @ u.conj().T, 0.3
        ) == pytest.approx(skew_divergence(rho, sig, 0.3), abs=1e-9)

    def test_contractivity(self, rng):
        for _ in range(20):
            rho, sig = random_state(3, rng), random_state(3, rng)
            kraus = random_cptp(3, 2, rng)
            alpha = rng.uniform(0.05, 0.95)
            assert skew_divergence(
                apply_channel(kraus, rho), apply_channel(kraus, sig), alpha
            ) <= skew_divergence(rho, sig, alpha) + 1e-8

    def test_skewed_entropy_bounded_by_minus_log_alpha(self, rng):
        for alpha in (0.01, 0.5, 0.99):
            rho, sig = random_state(4, rng), random_state(4, rng)
            tau = alpha * rho.mat + (1 - alpha) * sig.mat
            assert float(relative_entropy(rho, tau)) <= -math.log(alpha) + 1e-9

    def test_zero_pair_is_domain_error(self):
        with pytest.raises(DomainError):
            skew_divergence(np.zeros((2, 2)), np.zeros((2, 2)), 0.5)


class TestTraceDistance:
    def test_basics(self, rng):
        rho = random_state(3, rng)
        assert trace_distance(rho, rho) == 0.0
        u = random_unitary(3, rng)
        p0 = np.outer(u[:, 0], u[:, 0].conj())
        p1 = np.outer(u[:, 1], u[:, 1].conj())
        assert trace_distance(p0, p1) == pytest.approx(1.0, abs=1e-12)

    def test_diag_family(self):
        for t in (0.1, 0.4, 0.8):
            rho = np.diag([t, 0.0, 1.0 - t])
            sig = np.diag([0.0, t, 1.0 - t])
            assert trace_distance(rho, sig) == pytest.approx(t, abs=1e-12)

    def test_representable_distance_near_the_float_limit(self):
        big = np.diag([8.9e307, 8.9e307])
        assert trace_distance(big, -big) == 1.7799999999999998e308

    def test_equals_positive_part_trace(self, rng):
        rho, sig = random_state(5, rng), random_state(5, rng)
        w = np.linalg.eigvalsh(rho.mat - sig.mat)
        assert trace_distance(rho, sig) == pytest.approx(
            w[w > 0].sum(), abs=1e-12
        )


class TestFidelity:
    def test_self(self, rng):
        rho = random_state(4, rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal(self, rng):
        u = random_unitary(3, rng)
        p0 = np.outer(u[:, 0], u[:, 0].conj())
        p1 = np.outer(u[:, 1], u[:, 1].conj())
        assert fidelity(p0, p1) == pytest.approx(0.0, abs=1e-8)

    def test_pure_state_overlap(self, rng):
        # oracle: F(|psi>,|phi>) = |<psi|phi>|
        for _ in range(10):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            f = fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
            assert f == pytest.approx(abs(np.vdot(psi, phi)), abs=1e-10)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_pure_pairs_at_small_overlap(self, dim):
        # the zero eigenvalues of sqrt(rho) sigma sqrt(rho) carry rounding
        # noise of order ||rho|| ||sigma||, far above the one nonzero
        # eigenvalue |<psi|phi>|^2 when the overlap is small: a threshold on
        # that eigenvalue's scale lets the noise into the root (3e-9 off)
        rng = np.random.default_rng([20240817, dim])
        psi, phi = (rng.standard_normal((500, dim)) + 1j * rng.standard_normal((500, dim)) for _ in range(2))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        pure = lambda v: v[:, :, None] * v[:, None, :].conj()
        exact = np.abs((psi.conj() * phi).sum(axis=1))
        np.testing.assert_allclose(fidelity(pure(psi), pure(phi)), exact, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("c", [0.3, 2.0])
    def test_homogeneous_on_positive_operators(self, rng, c):
        # the clamp is sqrt(trace rho trace sigma), not 1
        rho, sig = random_state(3, rng), random_state(3, rng)
        scaled = fidelity(c * rho.mat, c * sig.mat)
        assert scaled == pytest.approx(c * fidelity(rho, sig), rel=1e-12)

    def test_fuchs_van_de_graaf(self, rng):
        for _ in range(30):
            rho, sig = random_state(4, rng), random_state(4, rng)
            f = fidelity(rho, sig)
            assert trace_distance(rho, sig) <= math.sqrt(1 - f * f) + 1e-8


class TestApplyChannel:
    def test_unitary_channel(self, rng):
        rho = random_state(3, rng)
        (u,) = random_cptp(3, 1, rng)
        out = apply_channel([u], rho)
        assert np.allclose(out.mat, u @ rho.mat @ u.conj().T, atol=1e-12)

    def test_depolarizing_channel(self, rng):
        # explicit Kraus construction: K_ij = |i><j| / sqrt(d) fully depolarizes
        d = 3
        kraus = [
            np.outer(np.eye(d)[i], np.eye(d)[j]) / math.sqrt(d)
            for i in range(d)
            for j in range(d)
        ]
        rho = random_state(d, rng)
        out = apply_channel(kraus, rho)
        assert np.allclose(out.mat, np.eye(d) / d, atol=1e-10)

    def test_trace_preserved(self, rng):
        kraus = random_cptp(4, 3, rng)
        rho = random_state(4, rng)
        assert apply_channel(kraus, rho).trace() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("env", [1, 2, 3])
    def test_stacked_kraus_blocks_equal_the_list(self, rng, env):
        kraus = random_cptp(2, env, rng)
        rho = random_state(2, rng)
        assert np.array_equal(apply_channel(np.stack(kraus), rho).mat, apply_channel(kraus, rho).mat)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_stack_of_kraus_sets_maps_each_item_as_its_single_call(self, rng, dim):
        # 1 to 3 blocks per set, zero blocks padding each to 3
        sets = [random_cptp(dim, env, rng) for env in (1, 3, 2, 1)]
        kraus = np.zeros((4, 3, dim, dim), dtype=complex)
        for k, blocks in enumerate(sets):
            kraus[k, : len(blocks)] = blocks
        rho = [random_state(dim, rng), 2.0 * random_state(dim, rng).mat, random_state(dim, rng), random_state(dim, rng)]
        out = apply_channel(kraus, np.stack([getattr(r, "mat", r) for r in rho]))
        assert out.shape == (4, dim, dim) and not out.flags.writeable
        for k in range(4):
            one = apply_channel(kraus[k], rho[k])
            assert np.array_equal(out[k], one.mat) and one.is_normalized == (k != 1)
            assert np.array_equal(one.mat, apply_channel(sets[k], rho[k]).mat)

    def test_a_stack_of_kraus_sets_takes_a_stack_of_states(self, rng):
        kraus = np.stack([np.stack(random_cptp(2, 2, rng)) for _ in range(3)])
        with pytest.raises(DimensionMismatchError):
            apply_channel(kraus, random_state(2, rng))
        with pytest.raises(DimensionMismatchError):
            apply_channel(kraus, np.stack([random_state(2, rng).mat] * 2))
        incomplete = kraus.copy()
        incomplete[1, 1] = 0.0
        with pytest.raises(DomainError, match=r"sum K\*K = id"):
            apply_channel(incomplete, np.stack([random_state(2, rng).mat] * 3))

    def test_empty_kraus_stack_rejected(self, rng):
        with pytest.raises(DomainError, match="empty Kraus set"):
            apply_channel(np.empty((0, 3, 3)), random_state(3, rng))

    def test_incomplete_kraus_rejected(self, rng):
        with pytest.raises(DomainError):
            apply_channel([0.5 * np.eye(2)], random_state(2, rng))

    def test_set_complete_within_1e_9_is_accepted(self, rng):
        # completeness error 5e-10 moves the trace of a trace-2 positive
        # operator, which is no state and so keeps it, by 5e-10 of it,
        # within dim * 1e-9
        kraus = [math.sqrt(1.0 + 5e-10) * k for k in random_cptp(4, 2, np.random.default_rng(3))]
        rho = 2.0 * random_state(4, rng).mat
        out = apply_channel(kraus, rho)
        assert not out.is_normalized
        assert out.trace() == pytest.approx(2.0 * (1.0 + 5e-10), abs=1e-14)

    def test_set_beyond_1e_9_is_rejected(self, rng):
        kraus = [math.sqrt(1.0 + 2e-9) * k for k in random_cptp(4, 2, np.random.default_rng(3))]
        with pytest.raises(DomainError, match=r"sum K\*K = id within 1e-9"):
            apply_channel(kraus, random_state(4, rng))
