"""The judged checks of the verify harness give each trial of a stack the
slack they give that trial alone."""

import numpy as np
import pytest

from qsd import verify

JUDGED = [c for c in verify.REGISTRY if c.judge is not None]

# the divergence-family checks judged in stacks
JUDGED_IDS = {
    "div.sd_range",
    "div.sd_orthogonality",
    "div.sd_scaling",
    "div.sd_unitary_invariance",
    "div.sd_contractivity",
    "div.sd_joint_convexity",
    "div.sd_trace_norm_sandwich",
    "div.skewed_re_bound",
    "div.fidelity_trace_distance",
    "fre.dsd_symmetry",
    "fre.dsd_derivative",
    "fre.dsd_bounds",
    "fre.dsd_contractivity",
    "fre.chi2_relation",
    "ens.rbts_family",
    "ens.dsd_difference_bounds",
    "ens.triangle_family",
    "ens.triangle_equality",
}

TRIALS = 8


def test_the_divergence_family_is_judged_in_stacks():
    assert {c.check_id for c in JUDGED} == JUDGED_IDS


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
@pytest.mark.parametrize("check", JUDGED, ids=lambda c: c.check_id)
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
