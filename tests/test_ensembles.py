import math

import numpy as np
import pytest

from qsd import (
    DensityMatrix,
    DomainError,
    Ensemble,
    MixingExperiment,
    average_state,
    chi_continuity_bound,
    chi_upper_bounds,
    complementary_state,
    evolve,
    holevo_chi,
    holevo_chi_relative_entropy_form,
    holevo_chi_skew_divergence_form,
    mixing_rate,
    operator_norm,
    random_hamiltonian,
    random_state,
    random_unitary,
    shannon_entropy,
    sim_bound_check,
    skew_divergence,
    trace_distance,
    von_neumann_entropy,
)

LOG2 = 0.6931471805599453


def binary_orthogonal(rng, dim=2, p=0.5):
    u = random_unitary(dim, rng)
    rho = DensityMatrix.from_matrix(np.outer(u[:, 0], u[:, 0].conj()))
    sig = DensityMatrix.from_matrix(np.outer(u[:, 1], u[:, 1].conj()))
    return Ensemble((p, 1 - p), (rho, sig))


def random_ensemble(rng, dim, n):
    w = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    w /= w.sum()
    return Ensemble(w, [random_state(dim, rng) for _ in range(n)])


class TestEnsemble:
    def test_weight_validation(self, rng):
        states = [random_state(2, rng) for _ in range(2)]
        with pytest.raises(DomainError):
            Ensemble((0.6, 0.6), states)
        with pytest.raises(DomainError):
            Ensemble((-0.1, 1.1), states)
        with pytest.raises(DomainError):
            Ensemble((0.5,), states)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_is_rejected(self, rng, bad):
        # NaN passes both the sign and the sum test; each must be named
        states = [random_state(2, rng) for _ in range(3)]
        with pytest.raises(DomainError, match=f"non-finite weight {bad}"):
            Ensemble((0.5, bad, 0.5), states)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -1.0])
    def test_time_must_be_finite_and_nonnegative(self, rng, time):
        ens = Ensemble((0.5, 0.5), [random_state(2, rng) for _ in range(2)])
        h = random_hamiltonian(2, rng)
        with pytest.raises(DomainError, match=f"got {time}"):
            MixingExperiment(ens, h, h, time)

    def test_zero_weights_dropped(self, rng):
        states = [random_state(2, rng) for _ in range(3)]
        ens = Ensemble((0.5, 0.0, 0.5), states)
        assert ens.n == 2
        assert np.allclose(ens.weights, [0.5, 0.5])

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DomainError):
            Ensemble((0.5, 0.5), [random_state(2, rng), random_state(3, rng)])

    def test_requires_unit_trace_members(self):
        heavy = DensityMatrix.positive_operator(np.diag([1.0, 1.0]))
        with pytest.raises(DomainError):
            Ensemble((1.0,), [heavy])

    def test_trace_two_members_beside_states_are_rejected(self, rng):
        # every member's matrix is checked, whatever type carries it
        heavy = DensityMatrix.positive_operator(np.diag([1.0, 1.0]))
        for member in (heavy, heavy.mat):
            with pytest.raises(DomainError, match="unit trace"):
                Ensemble((0.5, 0.5), [random_state(2, rng), member])

    def test_raw_members_are_symmetrized_once(self, rng, monkeypatch):
        import qsd.linalg as la

        raw = [random_state(3, rng).mat.copy() for _ in range(3)]
        calls = [0]

        def counted(*args, _original=la._hermitian, **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(la, "_hermitian", counted)
        ens = Ensemble((0.2, 0.3, 0.5), raw)
        monkeypatch.undo()
        assert calls[0] == 3
        for member, mat in zip(ens.states, raw):
            assert np.array_equal(member.mat, DensityMatrix(mat).mat)

    def test_the_first_faulty_member_names_the_error(self, rng):
        heavy, broken = 2.0 * random_state(2, rng).mat, np.full((2, 2), np.nan)
        with pytest.raises(DomainError, match="unit trace"):
            Ensemble((0.5, 0.5), [heavy, broken])
        with pytest.raises(DomainError, match="non-finite"):
            Ensemble((0.5, 0.5), [broken, heavy])

    def test_unit_trace_positive_operator_becomes_a_state(self, rng):
        op = DensityMatrix.positive_operator(np.diag([0.5, 0.5]))
        (member,) = Ensemble((1.0,), [op]).states
        assert member.is_normalized
        assert np.array_equal(member.mat, op.mat)
        assert evolve(member, random_hamiltonian(2, rng), 0.3).is_normalized


class TestAverageAndComplementary:
    def test_single_state(self, rng):
        rho = random_state(3, rng)
        ens = Ensemble((1.0,), (rho,))
        assert np.allclose(average_state(ens).mat, rho.mat, atol=1e-12)

    def test_equal_mixture_of_same_state(self, rng):
        rho = random_state(3, rng)
        ens = Ensemble((0.5, 0.5), (rho, rho))
        assert np.allclose(average_state(ens).mat, rho.mat, atol=1e-12)

    def test_orthogonal_pure_average(self, rng):
        ens = binary_orthogonal(rng)
        avg = average_state(ens)
        assert np.allclose(sorted(np.linalg.eigvalsh(avg.mat)), [0.5, 0.5], atol=1e-12)

    def test_complementary_binary(self, rng):
        ens = random_ensemble(rng, 3, 2)
        assert np.allclose(
            complementary_state(ens, 0).mat, ens.states[1].mat, atol=1e-10
        )
        assert np.allclose(
            complementary_state(ens, 1).mat, ens.states[0].mat, atol=1e-10
        )

    def test_complementary_three_equal_weights(self, rng):
        states = [random_state(3, rng) for _ in range(3)]
        ens = Ensemble((1 / 3, 1 / 3, 1 / 3), states)
        expected = (states[1].mat + states[2].mat) / 2
        assert np.allclose(complementary_state(ens, 0).mat, expected, atol=1e-10)

    def test_complementary_unit_trace(self, rng):
        ens = random_ensemble(rng, 4, 4)
        for i in range(4):
            assert complementary_state(ens, i).trace() == pytest.approx(1.0, abs=1e-12)

    def test_complementary_needs_two_members(self, rng):
        ens = Ensemble((1.0,), (random_state(2, rng),))
        with pytest.raises(DomainError):
            complementary_state(ens, 0)

    @pytest.mark.parametrize("index", [True, 1.0, -1, 3, "1"])
    def test_complementary_index_must_be_an_integer_in_range(self, rng, index):
        ens = random_ensemble(rng, 3, 3)
        with pytest.raises(DomainError, match=f"got {index!r}"):
            complementary_state(ens, index)

    def test_complementary_index_may_be_a_numpy_integer(self, rng):
        ens = random_ensemble(rng, 3, 3)
        assert complementary_state(ens, np.int64(1)).mat.tolist() == (
            complementary_state(ens, 1).mat.tolist()
        )


class TestInternalMixtures:
    """The Holevo routes form their mixtures without building states; each
    must agree with the route through the public average and complementary
    states."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_agree_with_public_states(self, rng, n):
        ens = random_ensemble(rng, 3, n)
        other = Ensemble(ens.weights, [random_state(3, rng) for _ in range(n)])
        w, states = ens.weights, ens.states

        chi = von_neumann_entropy(average_state(ens)) - sum(
            p * von_neumann_entropy(s) for p, s in zip(w, states)
        )
        assert holevo_chi(ens) == pytest.approx(chi, abs=1e-14)

        comp_bound = sum(
            -w[i] * math.log(w[i]) * trace_distance(states[i], complementary_state(ens, i))
            for i in range(n)
        ) if n > 1 else 0.0
        assert chi_upper_bounds(ens).complementary_bound == pytest.approx(
            comp_bound, abs=1e-14
        )

        distances = chi_continuity_bound(ens, other).complementary_distances
        assert len(distances) == (n if n > 1 else 0)
        for i, value in enumerate(distances):
            expected = trace_distance(
                complementary_state(ens, i), complementary_state(other, i)
            )
            assert value == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("w0", [1e-9, 1e-5])
    def test_complement_of_a_heavy_member_keeps_its_digits(self, rng, w0):
        # for n = 2 the complement of member 1 is member 0, so its distance
        # equals the member distance; dividing by 1 - p_1 loses that
        weights = (w0, 1.0 - w0)
        ens = Ensemble(weights, [random_state(3, rng) for _ in range(2)])
        other = Ensemble(weights, [random_state(3, rng) for _ in range(2)])
        rec = chi_continuity_bound(ens, other)
        assert rec.complementary_distances[1] == pytest.approx(
            rec.member_distances[0], rel=1e-14, abs=0.0
        )


class TestHolevoChi:
    def test_identical_states(self, rng):
        rho = random_state(3, rng)
        ens = Ensemble((0.3, 0.7), (rho, rho))
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-12)

    def test_single_member(self, rng):
        ens = Ensemble((1.0,), (random_state(3, rng),))
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states_give_weight_entropy(self, rng):
        for p in (0.2, 0.5, 0.8):
            ens = binary_orthogonal(rng, p=p)
            assert holevo_chi(ens) == pytest.approx(
                shannon_entropy((p, 1 - p)), abs=1e-10
            )

    def test_three_forms_agree(self, rng):
        for n in (2, 3, 4):
            ens = random_ensemble(rng, 3, n)
            chi = holevo_chi(ens)
            assert chi == pytest.approx(
                holevo_chi_relative_entropy_form(ens), abs=1e-9
            )
            assert chi == pytest.approx(
                holevo_chi_skew_divergence_form(ens), abs=1e-9
            )

    @pytest.mark.parametrize(
        "weights", [(0.5, 0.5), (0.2, 0.3, 0.5), (1e-13, 0.4, 0.6 - 1e-13), (0.1,) * 10]
    )
    def test_three_forms_agree_tightly(self, rng, weights):
        # a weight below ALPHA_MIN is no skew parameter, but the SD form's
        # -p log p cancels the 1/(-log p), so its value is still defined
        ens = Ensemble(weights, [random_state(4, rng) for _ in weights])
        chi = holevo_chi(ens)
        assert holevo_chi_relative_entropy_form(ens) == pytest.approx(chi, abs=1e-12)
        assert holevo_chi_skew_divergence_form(ens) == pytest.approx(chi, abs=1e-12)


class TestChiUpperBounds:
    def test_identical_states(self, rng):
        rho = random_state(3, rng)
        rec = chi_upper_bounds(Ensemble((0.4, 0.6), (rho, rho)))
        assert rec.chi == pytest.approx(0.0, abs=1e-10)
        assert rec.entropy_times_t >= rec.chi - 1e-8
        assert rec.roga_bound >= rec.chi - 1e-8

    def test_binary_orthogonal_tightness(self, rng):
        rec = chi_upper_bounds(binary_orthogonal(rng, p=0.5))
        assert rec.chi == pytest.approx(LOG2, abs=1e-10)
        assert rec.max_pairwise_distance == pytest.approx(1.0, abs=1e-10)
        assert rec.entropy_times_t == pytest.approx(LOG2, abs=1e-10)
        assert rec.roga_bound == pytest.approx(LOG2, abs=1e-10)

    def test_chain_ordering(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            rec = chi_upper_bounds(random_ensemble(rng, 3, n))
            assert rec.chi <= rec.complementary_bound + 1e-8
            assert rec.complementary_bound <= rec.pairwise_bound + 1e-8
            assert rec.pairwise_bound <= rec.entropy_times_t + 1e-8

    @pytest.mark.parametrize("w0", [1e-9, 1e-5, 0.3])
    def test_binary_pairwise_bound_is_the_complementary_bound(self, rng, w0):
        # for n = 2 each complement is the other member, so the two bounds
        # coincide; dividing by 1 - p_i instead of the kept weights loses that
        ens = Ensemble((w0, 1.0 - w0), [random_state(3, rng) for _ in range(2)])
        rec = chi_upper_bounds(ens)
        assert rec.pairwise_bound == pytest.approx(rec.complementary_bound, rel=1e-14, abs=0.0)

    def test_roga_only_for_binary(self, rng):
        assert chi_upper_bounds(random_ensemble(rng, 2, 3)).roga_bound is None


class TestChiContinuity:
    def test_equal_ensembles(self, rng):
        ens = random_ensemble(rng, 3, 3)
        rec = chi_continuity_bound(ens, ens)
        assert rec.delta_chi == pytest.approx(0.0, abs=1e-12)
        assert rec.weighted_bound == 0.0
        assert rec.dimension_free_bound == 0.0

    def test_random_perturbations(self, rng):
        for _ in range(15):
            ens = random_ensemble(rng, 4, 3)
            mix = rng.uniform(0.05, 0.4)
            other = Ensemble(
                ens.weights,
                [
                    DensityMatrix.from_matrix(
                        (1 - mix) * s.mat + mix * random_state(4, rng).mat
                    )
                    for s in ens.states
                ],
            )
            rec = chi_continuity_bound(ens, other)
            assert rec.delta_chi <= rec.weighted_bound + 1e-8
            assert rec.weighted_bound <= rec.dimension_free_bound + 1e-8

    def test_complementary_distances_bounded(self, rng):
        ens = random_ensemble(rng, 3, 3)
        other = random_ensemble(rng, 3, 3)
        other = Ensemble(ens.weights, other.states)
        rec = chi_continuity_bound(ens, other)
        for i, tbar in enumerate(rec.complementary_distances):
            assert tbar <= max(
                tj for j, tj in enumerate(rec.member_distances) if j != i
            ) + 1e-12

    def test_weight_mismatch_rejected(self, rng):
        e1 = Ensemble((0.5, 0.5), [random_state(2, rng) for _ in range(2)])
        e2 = Ensemble((0.4, 0.6), [random_state(2, rng) for _ in range(2)])
        with pytest.raises(DomainError):
            chi_continuity_bound(e1, e2)


class TestEvolve:
    def test_time_zero(self, rng):
        rho = random_state(3, rng)
        h = random_hamiltonian(3, rng)
        assert np.allclose(evolve(rho, h, 0.0).mat, rho.mat, atol=1e-12)

    def test_commuting_case(self):
        rho = np.diag([0.2, 0.3, 0.5])
        h = np.diag([1.0, 2.0, 3.0])
        assert np.allclose(evolve(rho, h, 0.7).mat, rho, atol=1e-12)

    def test_trace_and_spectrum_preserved(self, rng):
        rho = random_state(4, rng)
        h = random_hamiltonian(4, rng)
        out = evolve(rho, h, 1.3)
        assert out.trace() == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(
            np.linalg.eigvalsh(out.mat), np.linalg.eigvalsh(rho.mat), atol=1e-10
        )

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_is_domain_error(self, rng, t):
        rho, h = random_state(2, rng), random_hamiltonian(2, rng)
        with pytest.raises(DomainError, match="evolution time t must be finite"):
            evolve(rho, h, t)

    def test_distance_bounded_by_t_norm(self, rng):
        for _ in range(20):
            rho = random_state(3, rng)
            h = random_hamiltonian(3, rng)
            t = rng.uniform(0, 2)
            assert trace_distance(evolve(rho, h, t), rho) <= t * operator_norm(h) + 1e-8


def random_experiment(rng, dim, conditioned=False, time=None):
    p = float(rng.uniform(0.1, 0.9))
    if conditioned:
        states = [
            DensityMatrix.from_matrix(
                0.9 * random_state(dim, rng).mat + 0.1 * np.eye(dim) / dim
            )
            for _ in range(2)
        ]
    else:
        states = [random_state(dim, rng) for _ in range(2)]
    return MixingExperiment(
        Ensemble((p, 1 - p), states),
        random_hamiltonian(dim, rng),
        random_hamiltonian(dim, rng),
        float(rng.uniform(0.1, 1.0)) if time is None else time,
    )


class TestMixingRate:
    def test_zero_hamiltonians(self, rng):
        from qsd import HermitianOperator

        zero = HermitianOperator(np.zeros((3, 3)))
        exp = MixingExperiment(
            Ensemble((0.5, 0.5), [random_state(3, rng) for _ in range(2)]),
            zero,
            zero,
            0.3,
        )
        assert mixing_rate(exp) == pytest.approx(0.0, abs=1e-12)

    def test_global_unitary_preserves_entropy(self, rng):
        rho = random_state(3, rng)
        h = random_hamiltonian(3, rng)
        exp = MixingExperiment(Ensemble((0.4, 0.6), (rho, rho)), h, h, 0.2)
        assert mixing_rate(exp) == pytest.approx(0.0, abs=1e-10)

    def test_finite_difference_oracle(self, rng):
        for _ in range(10):
            exp = random_experiment(rng, 3, conditioned=True)
            rate = mixing_rate(exp)
            h = 1e-5

            def entropy_at(t):
                acc = sum(
                    p * evolve(s, ham, t).mat
                    for p, s, ham in zip(
                        exp.ensemble.weights, exp.ensemble.states, (exp.h1, exp.h2)
                    )
                )
                return von_neumann_entropy(acc)

            fd = (entropy_at(exp.time + h) - entropy_at(exp.time - h)) / (2 * h)
            assert rate == pytest.approx(fd, abs=1e-5)

    def test_requires_binary(self, rng):
        states = [random_state(2, rng) for _ in range(3)]
        ens = Ensemble((0.3, 0.3, 0.4), states)
        h = random_hamiltonian(2, rng)
        with pytest.raises(DomainError):
            MixingExperiment(ens, h, h, 0.1)


class TestSimBound:
    def test_time_zero(self, rng):
        exp = random_experiment(rng, 3, time=0.0)
        rec = sim_bound_check(exp)
        assert rec.entropy_gain == pytest.approx(0.0, abs=1e-12)
        assert rec.sim_bound == 0.0
        assert rec.sd_representation_residual <= 1e-12

    def test_zero_hamiltonian(self, rng):
        from qsd import HermitianOperator

        zero = HermitianOperator(np.zeros((3, 3)))
        exp = MixingExperiment(
            Ensemble((0.5, 0.5), [random_state(3, rng) for _ in range(2)]),
            zero,
            zero,
            0.8,
        )
        rec = sim_bound_check(exp)
        assert rec.entropy_gain == pytest.approx(0.0, abs=1e-12)
        assert rec.hamiltonian_norm == 0.0

    def test_random_experiments(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            rec = sim_bound_check(random_experiment(rng, dim))
            assert rec.entropy_gain <= rec.sim_bound + 1e-8
            assert rec.sd_representation_residual <= 1e-8
            for lhs in rec.bravyi_lhs:
                assert lhs <= rec.bravyi_rhs + 1e-8

    def test_increments_match_public_skew_divergences(self, rng):
        # in the frame of member 1, member 2 moves under V = U_1* U_2
        exp = random_experiment(rng, 4)
        (p1, p2), (rho1, rho2) = exp.ensemble.weights, exp.ensemble.states
        h1, h2, t = exp.h1, exp.h2, exp.time
        rho2_t = evolve(evolve(rho2, h2, t), h1 * -1.0, t)
        rho1_back = evolve(evolve(rho1, h1, t), h2 * -1.0, t)
        expected = (
            skew_divergence(rho1, rho2_t, p1) - skew_divergence(rho1, rho2, p1),
            skew_divergence(rho2, rho1_back, p2) - skew_divergence(rho2, rho1, p2),
        )
        lhs = sim_bound_check(exp).bravyi_lhs
        assert lhs == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("commuting", [True, False])
    def test_gain_is_the_member_dynamics(self, rng, commuting):
        # each member evolves under its own Hamiltonian, as in mixing_rate
        for _ in range(10):
            exp = random_experiment(rng, int(rng.integers(2, 7)))
            h1, h2, t = (exp.h2 * 0.37 if commuting else exp.h1), exp.h2, exp.time
            commutator = np.linalg.norm(h1.mat @ h2.mat - h2.mat @ h1.mat)
            assert (commutator < 1e-12) if commuting else (commutator > 1e-3)
            exp = MixingExperiment(exp.ensemble, h1, h2, t)
            (p1, p2), (rho1, rho2) = exp.ensemble.weights, exp.ensemble.states
            moved = p1 * evolve(rho1, h1, t).mat + p2 * evolve(rho2, h2, t).mat
            gain = von_neumann_entropy(moved) - von_neumann_entropy(p1 * rho1.mat + p2 * rho2.mat)
            assert sim_bound_check(exp).entropy_gain == pytest.approx(gain, abs=1e-12)

    def test_gain_reconstruction_weights(self, rng):
        # the SD increments weighted by -p log p reproduce the entropy gain
        exp = random_experiment(rng, 4)
        rec = sim_bound_check(exp)
        p1, p2 = exp.ensemble.weights
        total = -p1 * math.log(p1) * rec.bravyi_lhs[0] - p2 * math.log(p2) * rec.bravyi_lhs[1]
        assert total == pytest.approx(rec.entropy_gain, abs=1e-9)
