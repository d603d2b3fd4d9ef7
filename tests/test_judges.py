"""The draws and judges of the verify harness treat each trial of a stack as
they treat that trial alone, each check's draw stream is pinned, each
check's worst trial replays from its coordinates, a violation reports every
judge argument of its trial, and each trial's generator is numpy's
``default_rng`` of those coordinates."""

import dataclasses
import functools
import hashlib
import inspect
import json
import zlib

import numpy as np
import pytest

from qsd import checks, io, verify
from qsd import linalg as la
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
        stacks = check.draw(_rngs(7, check, dim, range(2)), dim)
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
    stacks = check.draw(_rngs(7, check, dim, range(TRIALS)), dim)
    for k in range(TRIALS):
        single = check.draw(_rngs(7, check, dim, [k]), dim)
        assert len(single) == len(stacks)
        for j, (stack, arg) in enumerate(zip(stacks, single)):
            assert len(stack) == TRIALS and len(arg) == 1
            assert stack.dtype == arg.dtype, (j, k)
            left, right = _arrays(stack[k]), _arrays(arg[0])
            assert len(left) == len(right), (j, k)
            assert all(np.array_equal(x, y) for x, y in zip(left, right)), (j, k)


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
@pytest.mark.parametrize("check", checks.REGISTRY, ids=lambda c: c.check_id)
def test_stacked_judge_matches_single_trials(check, dim):
    stacks = check.draw(_rngs(7, check, dim, range(TRIALS)), dim)
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
        slack = verify._trial(check, seed, dim, trial)
        assert abs(slack - record.worst_slack) <= 1e-13, record.check_id


def _violated(judge):
    """``judge`` with every slack lowered by 1, under its own signature."""

    @functools.wraps(judge)
    def lowered(*stacks):
        return judge(*stacks) - 1.0

    return lowered


def _parts(payload) -> list:
    """Each number or vector of a reported judge argument, and the real and
    imaginary parts of each matrix or stack of matrices, as arrays."""
    if isinstance(payload, list) and payload and isinstance(payload[0], dict):
        return [np.array([state[part] for state in payload]) for part in ("re", "im")]
    if not isinstance(payload, dict):
        return [np.array(payload)]
    if payload.get("format") == "qsd-state-v1":
        return [np.array(payload["re"]), np.array(payload["im"])]
    if payload.get("format") == "qsd-channel-v1":
        return [np.array([block[part] for block in payload["kraus"]]) for part in ("re", "im")]
    if payload.get("format") == "qsd-ensemble-v1":
        states = [part for state in payload["states"] for part in _parts(state)]
        return [np.array(payload["weights"]), *states]
    return [part for field in payload.values() for part in _parts(field)]  # an experiment


def _item_parts(item) -> list:
    """``_parts`` of the item of a stack that a judge argument reports."""
    arrays = [np.asarray(a) for a in _arrays(item)]
    return [p for a in arrays for p in ((a.real, a.imag) if np.iscomplexobj(a) else (a,))]


def _read_back(payload) -> None:
    """Read each qsd-state-v1 and qsd-ensemble-v1 object of a payload."""
    if isinstance(payload, list):
        for entry in payload:
            _read_back(entry)
    elif isinstance(payload, dict):
        reader = {"qsd-state-v1": io.state_from_dict, "qsd-ensemble-v1": io.ensemble_from_dict}
        if payload.get("format") in reader:
            reader[payload["format"]](payload)
        elif "format" not in payload:
            for field in payload.values():
                _read_back(field)


@pytest.mark.parametrize("check", checks.REGISTRY, ids=lambda c: c.check_id)
def test_violation_reports_every_judge_argument(check):
    seed, trials = 3, 2
    lowered = dataclasses.replace(check, judge=_violated(check.judge))
    record = verify._run_check(lowered, seed, (2, 3), trials)
    assert record.worst_slack < -check.tol
    inputs = record.worst_case_inputs
    names = list(inspect.signature(check.judge).parameters)
    assert list(inputs) == names
    json.dumps(record.to_dict(), allow_nan=False)
    dim, trial = record.worst_trial["dim"], record.worst_trial["trial"]
    stacks = check.draw(_rngs(seed, check, dim, range(trials)), dim)
    for name, stack in zip(names, stacks):
        reported, drawn = _parts(inputs[name]), _item_parts(stack[trial])
        assert len(reported) == len(drawn), name
        for x, y in zip(reported, drawn):
            assert x.size == y.size and x.tobytes() == y.tobytes(), name
        _read_back(inputs[name])


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


def _generator_list(count, base=0):
    """``count`` generators, seeded ``base``, ``base + 1``, ..."""
    return [np.random.Generator(np.random.PCG64(base + k)) for k in range(count)]


def _uniform_bounds(monkeypatch) -> set:
    """Every ``(lo, hi)`` that a draw of the registry passes to ``_uniforms``."""
    seen, original = set(), checks._uniforms

    def recording(rngs, lo, hi):
        seen.add((lo, hi))
        return original(rngs, lo, hi)

    monkeypatch.setattr(checks, "_uniforms", recording)
    for check in checks.REGISTRY:
        check.draw(_rngs(3, check, 2, range(2)), 2)
    return seen


def test_uniforms_are_numpys_uniform(monkeypatch):
    # numpy draws uniform(lo, hi) as lo + (hi - lo) * next_double; _uniforms
    # scales one next_double per generator, so the bits must agree
    uniforms = checks._uniforms
    bounds = _uniform_bounds(monkeypatch)
    assert len(bounds) >= 10 and (0.02, 0.98) in bounds and (0.0, 0.4) in bounds
    for lo, hi in sorted(bounds):
        ours = uniforms(_generator_list(1000), lo, hi)
        theirs = np.array([rng.uniform(lo, hi) for rng in _generator_list(1000)])
        assert ours.dtype == np.float64 and ours.tobytes() == theirs.tobytes(), (lo, hi)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 4, 4)], ids=str)
@pytest.mark.parametrize("counts", [1, 3, [1, 3, 2, 1]], ids=str)
def test_complex_gaussians_are_numpys_normals(shape, counts):
    # each entry is its generator's standard_normal(shape) for the real parts,
    # then for the imaginary parts; a repeated generator goes on where it stopped
    ours = checks._repeated(_generator_list(4, base=70), counts)
    theirs = checks._repeated(_generator_list(4, base=70), counts)
    g = la._complex_gaussians(ours, shape)
    assert g.shape == (len(ours), *shape) and g.dtype == np.complex128
    parts = [(rng.standard_normal(shape), rng.standard_normal(shape)) for rng in theirs]
    assert g.real.tobytes() == np.stack([re for re, _ in parts]).tobytes()
    assert g.imag.tobytes() == np.stack([im for _, im in parts]).tobytes()
    assert [r.bit_generator.state for r in ours] == [r.bit_generator.state for r in theirs]
