"""The judges of the verify harness give each trial of a stack the slack they
give that trial alone, and each check's worst trial replays from its
coordinates."""

import numpy as np
import pytest

from qsd import verify

TRIALS = 8


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
@pytest.mark.parametrize("check", verify.REGISTRY, ids=lambda c: c.check_id)
def test_stacked_judge_matches_single_trials(check, dim):
    draws = [
        check.draw(verify._trial_rng(7, check.check_id, dim, k), dim)[0] for k in range(TRIALS)
    ]
    stacks = [np.stack(column) for column in zip(*draws)]
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
        args, _ = check.draw(verify._trial_rng(seed, check.check_id, dim, trial), dim)
        (slack,) = check.judge(*(np.stack([arg]) for arg in args))
        assert abs(slack - record.worst_slack) <= 1e-13, record.check_id
