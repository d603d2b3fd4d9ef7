"""Operand rules shared by every public function: one shape check, one output
kind for the maps that move a state, and one result per matrix, whatever type
carries it."""

import dataclasses
import math

import numpy as np
import pytest

from qsd import (
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    HermitianOperator,
    apply_channel,
    chi2_log,
    differential_skew_divergence,
    eigendecompose,
    evolve,
    fidelity,
    frechet_log,
    frechet_log_central_diff,
    frechet_log_quadrature,
    metric_M,
    metric_epsilon_limit_check,
    operator_norm,
    random_cptp,
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
    spectral_fn,
    support_of,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)
from qsd import frechet as fr
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


# name -> (function, operand count, trailing scalar arguments) of the
# functions that also take raw (n, d, d) stacks, one value per pair
STACKED = {
    name: MULTI_OPERAND[name]
    for name in (
        "relative_entropy",
        "skew_divergence",
        "trace_distance",
        "fidelity",
        "chi2_log",
        "differential_skew_divergence",
    )
}


def pair_stacks(rng, n_operands, size=5, dim=3):
    return [np.stack([random_state(dim, rng).mat for _ in range(size)]) for _ in range(n_operands)]


@pytest.mark.parametrize("name", STACKED)
def test_each_item_of_a_stack_gets_its_one_pair_value(rng, name):
    fn, n, scalars = STACKED[name]
    stacks = pair_stacks(rng, n)
    values = fn(*stacks, *scalars)
    assert values.shape == (5,)
    for i in range(5):
        one = fn(*(s[i] for s in stacks), *scalars)
        assert isinstance(one, float)
        assert values[i] == one, i


@pytest.mark.parametrize("name", ["skew_divergence", "differential_skew_divergence"])
def test_a_stack_takes_one_alpha_per_pair(rng, name):
    fn = STACKED[name][0]
    a, b = pair_stacks(rng, 2)
    alphas = np.linspace(0.1, 0.9, 5)
    values = fn(a, b, alphas)
    assert values.tolist() == [fn(x, y, float(al)) for x, y, al in zip(a, b, alphas)]
    for operands, wrong in (((a, b), alphas[:3]), ((a[0], b[0]), alphas[:2])):
        with pytest.raises(DomainError, match="one per pair"):
            fn(*operands, wrong)


def test_differential_skew_divergence_is_zero_at_endpoint_entries(rng, monkeypatch):
    a, b = pair_stacks(rng, 2)
    alphas = np.array([0.0, 0.3, 1.0, 0.6, 0.0])
    values = differential_skew_divergence(a, b, alphas)
    assert values[[0, 2, 4]].tolist() == [0.0] * 3
    for i in (1, 3):
        assert values[i] == differential_skew_divergence(a[i], b[i], float(alphas[i]))
    with pytest.raises(DomainError, match="alpha must lie in"):
        differential_skew_divergence(a, b, np.array([0.5, 0.5, 1.5, 0.5, 0.5]))
    with pytest.raises(DomainError, match="one per pair"):
        differential_skew_divergence(a, b, alphas[:3])

    def no_kernel(*args):
        raise AssertionError("the kernel ran at an endpoint")

    monkeypatch.setattr(fr, "_dsd_kernel", no_kernel)
    assert differential_skew_divergence(a, b, 1.0).tolist() == [0.0] * 5
    ends = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
    assert differential_skew_divergence(a, b, ends).tolist() == [0.0] * 5
    assert differential_skew_divergence(a[0], b[0], 0.0) == 0.0


def test_a_stacked_divergence_value_holds_its_rule_per_entry():
    value = relative_entropy(
        np.stack([np.diag([1.0, 0.0]), np.diag([0.5, 0.5])]),
        np.stack([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]),
    )
    assert isinstance(value, np.ndarray)
    assert value.tolist() == [0.0, math.inf]


# one-operand functions that also take a raw (n, d, d) stack, one result per item
ONE_OPERAND_STACKED = {
    "eigendecompose": (eigendecompose, 1, ()),
    "trace_norm": (trace_norm, 1, ()),
    "operator_norm": (operator_norm, 1, ()),
}


# name -> (function, operand count, trailing scalar arguments) of the
# functions whose raw stacks give one operator per item, as the read-only
# (n, d, d) stack of their matrices, or one complex value per item
OPERATOR_STACKED = {
    **{
        name: MULTI_OPERAND[name]
        for name in (
            "frechet_log",
            "metric_M",
            "frechet_log_central_diff",
            "second_frechet_log_central_diff",
            "second_frechet_log",
            "evolve",
        )
    },
    "spectral_fn": (lambda x: spectral_fn(x, np.log), 1, ()),
    "von_neumann_entropy": (von_neumann_entropy, 1, ()),
}
# functions whose raw stacks give a record with one entry per item in each field
RECORD_STACKED = {"metric_epsilon_limit_check": MULTI_OPERAND["metric_epsilon_limit_check"]}
ALL_STACKED = {**STACKED, **ONE_OPERAND_STACKED, **OPERATOR_STACKED, **RECORD_STACKED}


@pytest.mark.parametrize("shape", [(2, 3, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("name", ALL_STACKED)
def test_stacked_operand_rule_takes_only_stacks_of_square_matrices(name, shape):
    fn, n, scalars = ALL_STACKED[name]
    with pytest.raises(DomainError, match="stack of square matrices"):
        fn(*[np.zeros(shape)] * n, *scalars)


@pytest.mark.parametrize(
    "name", [*STACKED, *(k for k, v in OPERATOR_STACKED.items() if v[1] > 1), *RECORD_STACKED]
)
def test_a_density_matrix_is_one_operand_against_a_stack(name):
    fn, n, scalars = ALL_STACKED[name]
    operands = [np.stack([np.eye(2) / 2] * 3)] * n
    operands[0] = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(DimensionMismatchError):
        fn(*operands, *scalars)


@pytest.mark.parametrize("name", ONE_OPERAND_STACKED)
def test_each_item_of_a_one_operand_stack_gets_its_one_matrix_result(rng, name):
    fn = ONE_OPERAND_STACKED[name][0]
    # raw non-Hermitian items: the stack symmetrizes each as one matrix would be
    raw = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    stacked = fn(raw)
    for i in range(5):
        one = fn(raw[i])
        if name == "eigendecompose":
            assert [x.shape for x in stacked] == [(5, 3), (5, 3, 3)]
            assert all(np.array_equal(x[i], y) for x, y in zip(stacked, one)), i
        else:
            assert stacked.shape == (5,) and isinstance(one, float)
            assert stacked[i] == one, i


@pytest.mark.parametrize("name", OPERATOR_STACKED)
def test_each_item_of_an_operator_stack_gets_its_one_call_result(rng, name):
    fn, n, scalars = OPERATOR_STACKED[name]
    stacks = pair_stacks(rng, n)
    values = fn(*stacks, *scalars)
    assert values.shape[0] == 5
    for i in range(5):
        one = fn(*(s[i] for s in stacks), *scalars)
        assert isinstance(one, (float, complex, HermitianOperator))
        assert np.array_equal(values[i], getattr(one, "mat", one)), i
    if values.ndim == 3:  # a stack of operators is read-only, as an operator is
        assert not values.flags.writeable


# operand rules that take one matrix only: a raw stack is no operand there
ONE_MATRIX = {
    "HermitianOperator": HermitianOperator,
    "DensityMatrix": DensityMatrix,
    "sd_by_averaging": lambda x: sd_by_averaging(x, x, 0.5),
    "frechet_log_quadrature": lambda x: frechet_log_quadrature(x, x),
}


@pytest.mark.parametrize("shape", [(3, 2, 2), (2, 2, 2, 2)])
@pytest.mark.parametrize("name", ONE_MATRIX)
def test_other_operands_reject_raw_stacks(name, shape):
    with pytest.raises(DomainError, match="expected a square matrix, got shape"):
        ONE_MATRIX[name](np.zeros(shape))


def test_the_second_derivative_and_the_metric_limit_take_a_stack_of_three():
    # no longer one-matrix routes: a (3, 2, 2) stack is three operands
    x = np.stack([np.eye(2) / 2] * 3)
    assert second_frechet_log(x, x).shape == (3, 2, 2)
    assert second_frechet_log(x, x, x).shape == (3, 2, 2)
    record = metric_epsilon_limit_check(x, x, x)
    assert record.values.shape == record.epsilons.shape == (3, 8)
    assert record.limit.shape == record.final_gap.shape == record.monotone.shape == (3,)


def test_a_stack_names_its_first_non_pd_base():
    good = np.stack([np.eye(2) / 2] * 4)
    base = good.copy()
    base[1], base[3] = np.diag([1.0, -0.5]), np.diag([1.0, -0.25])
    for deltas in ((good,), (good, good)):
        with pytest.raises(DomainError, match=r"^base operator is not positive-definite .*-5\.000e-01\)$"):
            second_frechet_log(base, *deltas)
    # B + eps C is singular at every eps in item 2, and at eps = 1e-8 alone in
    # item 1, whose smallest eigenvalue there, 2e-16, the message names
    a, b, c = good.copy(), good.copy(), good.copy()
    a[1] = a[2] = np.diag([0.5, 0.0])
    b[1] = b[2] = c[2] = np.diag([1.0, 0.0])
    c[1] = np.diag([1.0, 2e-8])
    with pytest.raises(DomainError, match=r"^metric base B \+ eps C is not positive-definite .*2\.000e-16\)$"):
        metric_epsilon_limit_check(a, b, c)


def test_a_stack_names_its_first_support_leak():
    # the third B keeps half of A = id/2 off its support: a leak of 0.5
    a = np.stack([np.eye(2) / 2] * 3)
    b = a.copy()
    b[2] = np.diag([1.0, 0.0])
    with pytest.raises(DomainError, match=r"^support of A is not contained .*\(leak 5\.000e-01\)$"):
        metric_epsilon_limit_check(a, b, a)


def test_stacked_operands_name_the_first_non_psd_argument():
    good = np.stack([np.eye(2) / 2] * 3)
    bad = good.copy()
    bad[1] = np.diag([1.0, -0.5])
    with pytest.raises(DomainError, match="^second argument is not positive semidefinite"):
        _psd_operands(good, bad, stacked=True)
    with pytest.raises(DimensionMismatchError):
        _psd_operands(good, good[:2], stacked=True)


# One matrix in five forms: the validating constructors are the boundary, so
# each form must carry the same bits, and every function must then give the
# same result for each.
FORMS = {
    "ndarray": lambda rho: np.array(rho.mat),
    "nested list": lambda rho: rho.mat.tolist(),
    "HermitianOperator": lambda rho: HermitianOperator(rho.mat),
    "DensityMatrix state": lambda rho: rho,
    "positive_operator": lambda rho: DensityMatrix.positive_operator(rho.mat),
}
_KRAUS = random_cptp(3, 2, np.random.default_rng(5))
_PROJECTION = support_of(random_state(3, np.random.default_rng(6)))

# name -> (function, operand count) of every public function with matrix
# operands; each operand takes the form under test
SAME_BITS = {
    **{name: (fn, n) for name, (fn, n, _) in MULTI_OPERAND.items()},
    "skew_divergence": (lambda a, b: skew_divergence(a, b, 0.3), 2),
    "differential_skew_divergence": (lambda a, b: differential_skew_divergence(a, b, 0.3), 2),
    "sd_by_averaging": (lambda a, b: sd_by_averaging(a, b, 0.3), 2),
    "evolve": (lambda a, b: evolve(a, b, 0.7), 2),
    "von_neumann_entropy": (von_neumann_entropy, 1),
    "apply_channel": (lambda a: apply_channel(_KRAUS, a), 1),
    "eigendecompose": (eigendecompose, 1),
    "spectral_fn": (lambda a: spectral_fn(a, np.log), 1),
    "trace_norm": (trace_norm, 1),
    "operator_norm": (operator_norm, 1),
    "support_of": (support_of, 1),
    "restrict": (lambda a: restrict(a, _PROJECTION), 1),
}


def _bits(value):
    """A result as comparable bytes: records and tuples field by field,
    operators by type and matrix."""
    if dataclasses.is_dataclass(value):
        return _bits(dataclasses.astuple(value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    arr = np.asarray(getattr(value, "mat", value))
    return type(value).__name__, arr.dtype.str, arr.shape, arr.tobytes()


@pytest.mark.parametrize("fn", SAME_BITS)
def test_same_matrix_same_bits(fn):
    call, n = SAME_BITS[fn]
    states = [random_state(3, np.random.default_rng(seed)) for seed in range(8, 8 + n)]
    forms = {form: [make(s) for s in states] for form, make in FORMS.items()}
    matrices = {
        tuple(np.asarray(getattr(x, "mat", x), dtype=np.complex128).tobytes() for x in operands)
        for operands in forms.values()
    }
    assert len(matrices) == 1
    results = {form: _bits(call(*operands)) for form, operands in forms.items()}
    assert [form for form, bits in results.items() if bits != results["ndarray"]] == []


def test_a_positive_operator_is_a_state_by_its_trace():
    assert DensityMatrix.positive_operator(np.diag([0.25, 0.75])).is_normalized
    assert DensityMatrix.positive_operator(np.diag([0.25, 0.75 + 0.5e-10])).is_normalized
    assert not DensityMatrix.positive_operator(np.diag([0.25, 0.75 + 2e-10])).is_normalized


def test_a_raw_unit_trace_input_to_evolve_comes_out_a_state(rng):
    h = random_hamiltonian(2, rng)
    raw = np.diag([0.25, 0.75])
    out = evolve(raw, h, 0.7)
    assert out.is_normalized
    assert np.array_equal(out.mat, evolve(DensityMatrix(raw), h, 0.7).mat)


def test_evolve_takes_no_list_of_operator_objects(rng):
    states = [random_state(2, rng) for _ in range(2)]
    with pytest.raises(TypeError) as listed:
        trace_distance(states, states)
    with pytest.raises(TypeError, match=f"^{listed.value}$"):
        evolve(states, np.stack([random_hamiltonian(2, rng).mat] * 2), 0.7)
