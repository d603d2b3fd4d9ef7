"""The draws and judges of the verify harness treat each trial of a stack as
they treat that trial alone, each check's draw stream is pinned, each
check's worst trial replays from its coordinates, and each trial's
generator is numpy's ``default_rng`` of those coordinates."""

import hashlib
import zlib

import numpy as np
import pytest

from qsd import checks, verify
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


def _stream_digest(check) -> str:
    """sha256 of the stacked draws of trials 0 and 1 at seed 7, dims 2 and 3,
    at 6 decimals: BLAS rounding and the sign of a zero do not move it."""
    h = hashlib.sha256()
    for dim in (2, 3):
        stacks, _ = check.draw(_rngs(7, check, dim, range(2)), dim)
        for a in (a for stack in stacks for item in stack for a in _arrays(item)):
            a = np.round(np.asarray(a) + 0.0, 6) + 0.0
            h.update(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# A prefix of each check's _stream_digest. A draw that changes the numbers
# its trials get moves its digest, also in a check whose acceptance records
# sit at rounding level and so cannot show the change.
STREAM_DIGESTS = {
    "core.eigh_reconstruction": "9f7769b3f72d4e15",
    "core.spectral_fn_identity": "1fb4543e006b04a8",
    "core.trace_norm_axioms": "af21f8b90899408f",
    "core.random_state_invariants": "03ef629847ebd86d",
    "core.random_cptp_contract": "e96c9113276a8ab1",
    "div.sd_range": "cbe7e135415facc4",
    "div.sd_orthogonality": "be227750da20349b",
    "div.sd_scaling": "4a197b0892372a70",
    "div.sd_unitary_invariance": "547c6d792125deb3",
    "div.sd_contractivity": "2cf1c35a76b6eb92",
    "div.sd_joint_convexity": "a1968d0ec73c754e",
    "div.sd_trace_norm_sandwich": "0bf92cdec17cc1c2",
    "div.skewed_re_bound": "a52723989d01db8d",
    "div.fidelity_trace_distance": "08a490126b1493a7",
    "fre.t_order_preserving": "f91f61e9f8266024",
    "fre.t_sum_bound": "207e524efa1210d9",
    "fre.r_sum_bound": "0c6bdb45c750871c",
    "fre.r_reduces_to_t": "25a30a8dc9588d29",
    "fre.metric_difference": "9605e0be4d50ec32",
    "fre.quadrature_match": "9f73577fd2370f1b",
    "fre.finite_difference_match": "540dc45b7fce34e5",
    "fre.dsd_symmetry": "8573d29568231f23",
    "fre.dsd_derivative": "b6ca8280d07fb369",
    "fre.dsd_bounds": "f5f4b211adb8d8ae",
    "fre.dsd_contractivity": "02484bf9b2111874",
    "fre.chi2_relation": "5c56ab2e6b7e6d53",
    "fre.averaging_match": "fb31c43f644e85ed",
    "fre.metric_epsilon_limit": "e8999a8ad1ef7894",
    "ens.chi_three_ways": "0f0c6115068baddc",
    "ens.chi_bound_chain": "d2d0e6c43e8d4739",
    "ens.chi_roga_binary": "d35234b2441d0683",
    "ens.chi_continuity": "04a6f842c473b0be",
    "ens.rbts_family": "71b1e8b7dfde0e88",
    "ens.dsd_difference_bounds": "38a6c2fe93b05a8c",
    "ens.triangle_family": "3ef6c6f12c9cc500",
    "ens.triangle_equality": "2e2a33861952f2bc",
    "ens.triangle_rhs_shape": "5bf30eb2220cf287",
    "sim.evolution_distance": "0745fb533a8ab1b1",
    "sim.mixing_rate_fd": "e22e4ee138184567",
    "sim.svsd_identity": "be5f017e01e7303a",
    "sim.bravyi_bound": "9d374d7436b88d41",
    "sim.entropy_gain_bound": "f6fe7e9694b2dc60",
}


@pytest.mark.parametrize("check", checks.REGISTRY, ids=lambda c: c.check_id)
def test_draw_stream_is_pinned(check):
    assert _stream_digest(check).startswith(STREAM_DIGESTS[check.check_id])


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
@pytest.mark.parametrize("check", checks.REGISTRY, ids=lambda c: c.check_id)
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
@pytest.mark.parametrize("check", checks.REGISTRY, ids=lambda c: c.check_id)
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
    by_id = {c.check_id: c for c in checks.REGISTRY}
    assert [r.check_id for r in report.checks] == list(by_id)
    for record in report.checks:
        check = by_id[record.check_id]
        dim, trial = record.worst_trial["dim"], record.worst_trial["trial"]
        slack, _ = verify._trial(check, seed, dim, trial)
        assert abs(slack - record.worst_slack) <= 1e-13, record.check_id


CHECK_IDS = ("core.eigh_reconstruction", "fre.quadrature_match", "sim.entropy_gain_bound")


@pytest.mark.parametrize("trials", [range(8), (199,)], ids=["0-7", "199"])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
def test_trial_seeds_are_numpys_seed_sequence(seed, trials):
    # a seed of 2**32 or more is several words: the hash's remaining-entropy loop
    dims = (1, 2, 6)
    for check_id in CHECK_IDS:
        seeds = verify._trial_seeds(seed, check_id, dims, trials)
        assert seeds.shape == (len(dims), len(trials), 4) and seeds.dtype == np.uint64
        for dim, words in zip(dims, seeds):
            rngs = verify._generators(words)
            for k, row, rng in zip(trials, words, rngs):
                entropy = [seed, zlib.crc32(check_id.encode("utf-8")), dim, k]
                expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
                assert np.array_equal(row, expected), (check_id, dim, k)
                state = np.random.default_rng(entropy).bit_generator.state
                assert rng.bit_generator.state == state, (check_id, dim, k)
                assert verify._trial_rng(seed, check_id, dim, k).bit_generator.state == state


def test_the_runner_builds_no_seed_sequence(monkeypatch):
    # core.random_state_invariants seeds random_state(dim, seed) on purpose
    built = []

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def default_rng(*args, _original=np.random.default_rng):
        built.append(args)
        return _original(*args)

    kept = tuple(c for c in checks.REGISTRY if c.check_id != "core.random_state_invariants")
    monkeypatch.setattr(checks, "REGISTRY", kept)
    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    report = verify.run_suite("all", dims=(2, 3), trials=2, seed=5)
    assert len(report.checks) == len(kept)
    assert built == []
