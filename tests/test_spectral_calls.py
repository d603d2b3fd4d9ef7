"""Spectral decompositions per public call: each operand is decomposed once,
and validation rides on the decomposition its owner already takes."""

import numpy as np
import pytest

import qsd

# name -> np.linalg.eigh + eigvalsh calls per call on d = 4 states
EXPECTED_CALLS = {
    "relative_entropy": 3,
    "chi2_log": 2,
    "metric_epsilon_limit_check": 4,
    "mixing_rate": 3,
    "sim_bound_check": 22,
    "skew_divergence": 4,
    "frechet_log": 1,
    "metric_M": 1,
    "second_frechet_log": 1,
}


@pytest.fixture
def calls(rng):
    a, b, c = (qsd.random_state(4, rng) for _ in range(3))
    h1, h2 = qsd.random_hamiltonian(4, rng), qsd.random_hamiltonian(4, rng)
    mixing = qsd.MixingExperiment(qsd.Ensemble((0.3, 0.7), (a, b)), h1, h2, 0.4)
    return {
        "relative_entropy": lambda: qsd.relative_entropy(a, b),
        "chi2_log": lambda: qsd.chi2_log(a, b),
        "metric_epsilon_limit_check": lambda: qsd.metric_epsilon_limit_check(a, b, c),
        "mixing_rate": lambda: qsd.mixing_rate(mixing),
        "sim_bound_check": lambda: qsd.sim_bound_check(mixing),
        "skew_divergence": lambda: qsd.skew_divergence(a, b, 0.5),
        "frechet_log": lambda: qsd.frechet_log(a, h1),
        "metric_M": lambda: qsd.metric_M(a, h1, h2),
        "second_frechet_log": lambda: qsd.second_frechet_log(a, h1),
    }


@pytest.mark.parametrize("name", EXPECTED_CALLS)
def test_eigen_calls_per_call(monkeypatch, calls, name):
    count = [0]
    for kernel in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, kernel)

        def counted(*args, _original=original, **kwargs):
            count[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, kernel, counted)
    calls[name]()
    assert count[0] == EXPECTED_CALLS[name]
