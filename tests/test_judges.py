"""The draws and judges of the verify harness treat each trial of a stack as
they treat that trial alone, and each check's worst trial replays from its
coordinates."""

import numpy as np
import pytest

from qsd import verify
from qsd.ensembles import Ensemble, MixingExperiment
from qsd.linalg import HermitianOperator

TRIALS = 8


def _rngs(seed, check, dim, trials):
    return [verify._trial_rng(seed, check.check_id, dim, k) for k in trials]


def _arrays(item) -> list:
    """The arrays and numbers an item of a stack holds: an ensemble,
    experiment or state by its weights, matrices and time."""
    if isinstance(item, MixingExperiment):
        return [*_arrays(item.ensemble), item.h1.mat, item.h2.mat, item.time]
    if isinstance(item, Ensemble):
        return [item.weights, *(s.mat for s in item.states)]
    if isinstance(item, HermitianOperator):
        return [item.mat]
    return [item]


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
@pytest.mark.parametrize("check", verify.REGISTRY, ids=lambda c: c.check_id)
def test_stacked_draw_matches_single_trials(check, dim):
    stacks, inputs = check.draw(_rngs(7, check, dim, range(TRIALS)), dim)
    assert len(inputs) == TRIALS
    for k in range(TRIALS):
        single, (single_inputs,) = check.draw(_rngs(7, check, dim, [k]), dim)
        assert len(single) == len(stacks)
        for j, (stack, arg) in enumerate(zip(stacks, single)):
            assert len(stack) == TRIALS and len(arg) == 1
            assert stack.dtype == arg.dtype, (j, k)
            left, right = _arrays(stack[k]), _arrays(arg[0])
            assert len(left) == len(right), (j, k)
            assert all(np.array_equal(x, y) for x, y in zip(left, right)), (j, k)
        assert verify._states_payload(inputs[k]) == verify._states_payload(single_inputs), k


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
@pytest.mark.parametrize("check", verify.REGISTRY, ids=lambda c: c.check_id)
def test_stacked_judge_matches_single_trials(check, dim):
    stacks, _ = check.draw(_rngs(7, check, dim, range(TRIALS)), dim)
    stacked = check.judge(*stacks)
    single = [check.judge(*(s[k : k + 1] for s in stacks)) for k in range(TRIALS)]
    assert stacked.shape == (TRIALS,)
    assert all(s.shape == (1,) for s in single)
    np.testing.assert_allclose(stacked, np.concatenate(single), rtol=0.0, atol=1e-13)


def test_each_worst_trial_replays_from_its_coordinates():
    seed = 11
    report = verify.run_suite("all", dims=(2, 3, 4), trials=6, seed=seed)
    checks = {c.check_id: c for c in verify.REGISTRY}
    assert [r.check_id for r in report.checks] == list(checks)
    for record in report.checks:
        check = checks[record.check_id]
        dim, trial = record.worst_trial["dim"], record.worst_trial["trial"]
        stacks, _ = check.draw(_rngs(seed, check, dim, [trial]), dim)
        (slack,) = check.judge(*stacks)
        assert abs(slack - record.worst_slack) <= 1e-13, record.check_id
