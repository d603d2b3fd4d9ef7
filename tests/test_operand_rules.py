"""Operand rules shared by every public function: one shape check, one output
kind for the maps that move a state."""

import numpy as np
import pytest

from qsd import (
    DimensionMismatchError,
    apply_channel,
    chi2_log,
    differential_skew_divergence,
    evolve,
    fidelity,
    frechet_log,
    frechet_log_central_diff,
    frechet_log_quadrature,
    metric_M,
    metric_epsilon_limit_check,
    random_hamiltonian,
    random_state,
    random_unitary,
    relative_entropy,
    restrict,
    sd_by_averaging,
    second_frechet_log,
    second_frechet_log_central_diff,
    second_frechet_log_quadrature,
    skew_divergence,
    support_of,
    trace_distance,
)

# name -> (function, operand count, trailing scalar arguments)
MULTI_OPERAND = {
    "relative_entropy": (relative_entropy, 2, ()),
    "skew_divergence": (skew_divergence, 2, (0.5,)),
    "trace_distance": (trace_distance, 2, ()),
    "fidelity": (fidelity, 2, ()),
    "frechet_log": (frechet_log, 2, ()),
    "metric_M": (metric_M, 3, ()),
    "second_frechet_log": (second_frechet_log, 3, ()),
    "frechet_log_quadrature": (frechet_log_quadrature, 2, ()),
    "second_frechet_log_quadrature": (second_frechet_log_quadrature, 2, ()),
    "frechet_log_central_diff": (frechet_log_central_diff, 2, ()),
    "second_frechet_log_central_diff": (second_frechet_log_central_diff, 2, ()),
    "differential_skew_divergence": (differential_skew_divergence, 2, (0.5,)),
    "chi2_log": (chi2_log, 2, ()),
    "sd_by_averaging": (sd_by_averaging, 2, (0.5,)),
    "metric_epsilon_limit_check": (metric_epsilon_limit_check, 3, ()),
    "evolve": (evolve, 2, (0.7,)),
}


@pytest.mark.parametrize(
    "name, position",
    [(name, pos) for name, (_, n, _) in MULTI_OPERAND.items() for pos in range(1, n)],
)
def test_mismatched_operand_raises(name, position):
    fn, n, scalars = MULTI_OPERAND[name]
    # valid operands apart from the dimension: maximally mixed, so positive-definite
    operands = [np.eye(2) / 2] * n
    operands[position] = np.eye(3) / 3
    with pytest.raises(DimensionMismatchError):
        fn(*operands, *scalars)


def test_mismatched_channel_and_projection_raise(rng):
    with pytest.raises(DimensionMismatchError):
        apply_channel([random_unitary(2, rng)], np.eye(3) / 3)
    with pytest.raises(DimensionMismatchError):
        restrict(np.eye(2), support_of(np.eye(3)))


def _unitary_evolution(rng):
    h = random_hamiltonian(2, rng)
    return lambda rho: evolve(rho, h, 0.7)


def _unitary_channel(rng):
    u = random_unitary(2, rng)
    return lambda rho: apply_channel([u], rho)


@pytest.mark.parametrize("make_map", [_unitary_evolution, _unitary_channel])
def test_output_is_a_state_exactly_for_a_state(rng, make_map):
    move = make_map(rng)
    assert move(random_state(2, rng)).is_normalized
    out = move(np.diag([1.5, 0.5]))
    assert not out.is_normalized
    assert out.trace() == pytest.approx(2.0, abs=1e-12)
