"""Operand rules shared by every public function: one shape check, one output
kind for the maps that move a state."""

import numpy as np
import pytest

from qsd import (
    DimensionMismatchError,
    DomainError,
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
from qsd.linalg import _hermitian, _psd_operands

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


# name -> (function, operand count, trailing scalar arguments) of the
# functions that require every operand to be positive semidefinite
PSD_OPERANDS = {
    name: MULTI_OPERAND[name]
    for name in (
        "relative_entropy",
        "skew_divergence",
        "differential_skew_divergence",
        "chi2_log",
        "sd_by_averaging",
        "fidelity",
        "metric_epsilon_limit_check",
    )
}
POSITIONS = ("first argument", "second argument", "third argument")


@pytest.mark.parametrize(
    "name, position",
    [(name, pos) for name, (_, n, _) in PSD_OPERANDS.items() for pos in range(n)],
)
def test_non_psd_operand_is_named_by_position(name, position):
    fn, n, scalars = PSD_OPERANDS[name]
    operands = [np.eye(2) / 2] * n
    operands[position] = np.diag([1.0, -0.5])
    with pytest.raises(DomainError, match=f"^{POSITIONS[position]} is not positive semidefinite"):
        fn(*operands, *scalars)


def test_kraus_blocks_of_different_shapes_raise():
    with pytest.raises(DimensionMismatchError):
        apply_channel([np.eye(2), np.eye(3)], np.eye(2) / 2)


def test_kraus_block_that_is_not_a_matrix_raises():
    with pytest.raises(DomainError):
        apply_channel([np.ones(2)], np.eye(2) / 2)


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


def test_stacked_operand_rule_symmetrizes_each_item(rng):
    # raw non-Hermitian matrices whose Hermitian parts are positive-definite
    noise = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    raw = np.eye(3) + 0.3 * noise
    stacked = _hermitian(raw, stacked=True)
    assert stacked.shape == raw.shape
    for item, single in zip(stacked, raw):
        assert np.array_equal(item, _hermitian(single))
    first, second = _psd_operands(raw, raw[::-1], stacked=True)
    assert np.array_equal(first, stacked) and np.array_equal(second, stacked[::-1])


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 2), (2, 2, 2, 2)])
def test_stacked_operand_rule_takes_only_stacks_of_square_matrices(shape):
    with pytest.raises(DomainError, match="stack of square matrices"):
        _hermitian(np.zeros(shape), stacked=True)


def test_stacked_operands_name_the_first_non_psd_argument():
    good = np.stack([np.eye(2) / 2] * 3)
    bad = good.copy()
    bad[1] = np.diag([1.0, -0.5])
    with pytest.raises(DomainError, match="^second argument is not positive semidefinite"):
        _psd_operands(good, bad, stacked=True)
    with pytest.raises(DimensionMismatchError):
        _psd_operands(good, good[:2], stacked=True)
