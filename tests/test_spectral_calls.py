"""Spectral decompositions per public call: each operand is decomposed once,
and validation rides on the decomposition its owner already takes."""

import numpy as np
import pytest

import qsd

# name -> np.linalg.eigh + eigvalsh calls per call on d = 4 states; the
# ensembles have n = 3 members unless the name says n = 2
EXPECTED_CALLS = {
    "relative_entropy": 2,
    "chi2_log": 2,
    "metric_epsilon_limit_check": 4,
    "mixing_rate": 2,
    "sim_bound_check": 5,
    "average_state": 1,
    "complementary_state": 1,
    "holevo_chi": 2,
    "holevo_chi_relative_entropy_form": 2,
    "holevo_chi_skew_divergence_form": 2,
    "chi_upper_bounds n=2": 8,
    "chi_upper_bounds n=3": 4,
    "chi_continuity_bound": 6,
    "skew_divergence": 4,
    "frechet_log": 1,
    "metric_M": 1,
    "second_frechet_log": 1,
}


@pytest.fixture
def calls(rng):
    a, b, c, d, e, f = (qsd.random_state(4, rng) for _ in range(6))
    h1, h2 = qsd.random_hamiltonian(4, rng), qsd.random_hamiltonian(4, rng)
    binary = qsd.Ensemble((0.3, 0.7), (a, b))
    mixing = qsd.MixingExperiment(binary, h1, h2, 0.4)
    ens = qsd.Ensemble((0.2, 0.3, 0.5), (a, b, c))
    other = qsd.Ensemble((0.2, 0.3, 0.5), (d, e, f))
    return {
        "relative_entropy": lambda: qsd.relative_entropy(a, b),
        "chi2_log": lambda: qsd.chi2_log(a, b),
        "metric_epsilon_limit_check": lambda: qsd.metric_epsilon_limit_check(a, b, c),
        "mixing_rate": lambda: qsd.mixing_rate(mixing),
        "sim_bound_check": lambda: qsd.sim_bound_check(mixing),
        "average_state": lambda: qsd.average_state(ens),
        "complementary_state": lambda: qsd.complementary_state(ens, 1),
        "holevo_chi": lambda: qsd.holevo_chi(ens),
        "holevo_chi_relative_entropy_form": lambda: qsd.holevo_chi_relative_entropy_form(ens),
        "holevo_chi_skew_divergence_form": lambda: qsd.holevo_chi_skew_divergence_form(ens),
        "chi_upper_bounds n=2": lambda: qsd.chi_upper_bounds(binary),
        "chi_upper_bounds n=3": lambda: qsd.chi_upper_bounds(ens),
        "chi_continuity_bound": lambda: qsd.chi_continuity_bound(ens, other),
        "skew_divergence": lambda: qsd.skew_divergence(a, b, 0.5),
        "frechet_log": lambda: qsd.frechet_log(a, h1),
        "metric_M": lambda: qsd.metric_M(a, h1, h2),
        "second_frechet_log": lambda: qsd.second_frechet_log(a, h1),
    }


def count_eigen_calls(monkeypatch, call) -> int:
    count = [0]
    for kernel in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, kernel)

        def counted(*args, _original=original, **kwargs):
            count[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, kernel, counted)
    call()
    monkeypatch.undo()
    return count[0]


@pytest.mark.parametrize("name", EXPECTED_CALLS)
def test_eigen_calls_per_call(monkeypatch, calls, name):
    assert count_eigen_calls(monkeypatch, calls[name]) == EXPECTED_CALLS[name]


# public functions called on raw (n, d, d) stacks
STACKED = {
    "skew_divergence": lambda a, b: qsd.skew_divergence(a, b, np.full(a.shape[0], 0.5)),
    "relative_entropy": qsd.relative_entropy,
    "chi2_log": qsd.chi2_log,
}


@pytest.mark.parametrize("name", STACKED)
def test_a_stack_makes_the_calls_of_one_pair(monkeypatch, rng, name):
    # full-rank states: every item of the stack has full support
    a, b = (np.stack([qsd.random_state(4, rng).mat for _ in range(20)]) for _ in range(2))
    one = count_eigen_calls(monkeypatch, lambda: STACKED[name](a[:1], b[:1]))
    assert one == EXPECTED_CALLS[name]
    assert count_eigen_calls(monkeypatch, lambda: STACKED[name](a, b)) == one


ENSEMBLE_ROUTES = {
    "average_state": lambda ens, other: qsd.average_state(ens),
    "complementary_state": lambda ens, other: qsd.complementary_state(ens, 1),
    "holevo_chi": lambda ens, other: qsd.holevo_chi(ens),
    "holevo_chi_relative_entropy_form": (
        lambda ens, other: qsd.holevo_chi_relative_entropy_form(ens)
    ),
    "holevo_chi_skew_divergence_form": lambda ens, other: qsd.holevo_chi_skew_divergence_form(ens),
    "chi_upper_bounds n=3": lambda ens, other: qsd.chi_upper_bounds(ens),
    "chi_continuity_bound": lambda ens, other: qsd.chi_continuity_bound(ens, other),
}


@pytest.mark.parametrize("name", ENSEMBLE_ROUTES)
def test_an_ensemble_route_makes_the_calls_of_three_members(monkeypatch, rng, name):
    # each route calls its kernels once on the member stack, whatever n is
    def count(n):
        ens, other = (
            qsd.Ensemble(np.full(n, 1.0 / n), [qsd.random_state(4, rng) for _ in range(n)])
            for _ in range(2)
        )
        return count_eigen_calls(monkeypatch, lambda: ENSEMBLE_ROUTES[name](ens, other))

    assert count(3) == EXPECTED_CALLS[name]
    assert count(6) == EXPECTED_CALLS[name]


def test_a_stack_of_experiments_makes_the_calls_of_one(monkeypatch, rng, stacked):
    def experiment(time):
        ens = qsd.Ensemble((0.3, 0.7), [qsd.random_state(4, rng) for _ in range(2)])
        h1, h2 = qsd.random_hamiltonian(4, rng), qsd.random_hamiltonian(4, rng)
        return qsd.MixingExperiment(ens, h1, h2, time)

    experiments = stacked([experiment(t) for t in (0.4, 0.0, 0.9, 0.2, 0.6)])
    assert count_eigen_calls(monkeypatch, lambda: qsd.sim_bound_check(experiments)) == 5
    assert count_eigen_calls(monkeypatch, lambda: qsd.mixing_rate(experiments)) == 2


@pytest.mark.parametrize(
    "name",
    ["holevo_chi", "holevo_chi_relative_entropy_form", "holevo_chi_skew_divergence_form", "chi_continuity_bound"],
)
def test_a_stack_of_ensembles_makes_the_calls_of_one_ensemble(monkeypatch, rng, stacked, name):
    def ensemble(n):
        return qsd.Ensemble(np.full(n, 1.0 / n), [qsd.random_state(4, rng) for _ in range(n)])

    # n = 2 and n = 3 share one padded stack, however many ensembles it holds
    items = [ensemble(n) for n in (2, 3, 3, 2, 2, 3)]
    others = [ensemble(e.n) for e in items]
    call = ENSEMBLE_ROUTES[name]
    stack, other = stacked(items), stacked(others)
    assert count_eigen_calls(monkeypatch, lambda: call(stack, other)) == EXPECTED_CALLS[name]
    one, other_one = stacked(items[:1]), stacked(others[:1])
    assert count_eigen_calls(monkeypatch, lambda: call(one, other_one)) == EXPECTED_CALLS[name]


@pytest.mark.parametrize(
    "name, call",
    [
        ("frechet_log", lambda a, d: qsd.frechet_log(a, d)),
        ("metric_M", lambda a, d: qsd.metric_M(a, d, d)),
        ("second_frechet_log", lambda a, d: qsd.second_frechet_log(a, d)),
        ("second_frechet_log", lambda a, d: qsd.second_frechet_log(a, d, d[::-1])),
        ("metric_epsilon_limit_check", lambda a, d: qsd.metric_epsilon_limit_check(a, a, a[::-1])),
    ],
)
@pytest.mark.parametrize("n", [1, 20])
def test_a_frechet_stack_makes_the_calls_of_one_base(monkeypatch, rng, name, call, n):
    a = np.stack([qsd.random_state(4, rng).mat for _ in range(n)])
    d = np.stack([qsd.random_hamiltonian(4, rng).mat for _ in range(n)])
    assert count_eigen_calls(monkeypatch, lambda: call(a, d)) == EXPECTED_CALLS[name]
