"""Property-verification runner.

A check (``CheckDef``) is a draw and a judge, registered by ``_check``; the
checks are defined in ``qsd.checks``, which loads on the first
``run_suite`` call. The id's prefix names the suite, and definition order
is report order. The judge returns one slack per trial: ``bound - value``
for an inequality (negative means violated), ``-|residual|`` for an
identity. A trial passes when the slack is at least ``-tol``, the tolerance
its property is stated at, pinned when the check is registered; the runner
judges every check at its own ``tol`` and writes it to the report.

The runner alone judges trials, in one stacked pass: the trials of each
check and dimension are drawn in one call and judged in one call. When that
raises, or its counts disagree, ``_trial`` draws and judges each trial alone
from its own generator, so the exception is charged to the trials that
raise it. A non-finite slack, or a trial that raises, counts as a
violation. Of each check the runner keeps the worst trial, the first in
(dim, trial) order, and names it by its coordinates. When it is a
violation, ``_replay`` draws and judges it again from them and reports its
judge's arguments by name, or the exception it raises and its coordinates.

Trial streams are derived from ``(seed, check id, dim, trial index)`` so runs
are reproducible, trials are independent, and the coordinates of a trial
alone replay it. A trial's generator is the one
``np.random.default_rng([seed, crc32(check id), dim, trial])`` returns. The
runner seeds all of a check's generators in one batch: ``_trial_seeds``
runs numpy's SeedSequence hash as uint32 array arithmetic over every
(dim, trial) at once, and each generator's PCG64 takes its row of words.
A dim or trial index is one 32-bit word of that seed, so each must be
below 2**32.
"""

from __future__ import annotations

import inspect
import math
import time
import zlib
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Sequence

import numpy as np

from . import linalg as la
from .io import judge_argument


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    """A registered check: ``judge`` maps the stacked arguments of the trials
    ``draw`` makes, one stack per judge parameter, to their slacks."""

    check_id: str
    label: str
    suite: str
    tol: float
    draw: Callable[[Sequence[np.random.Generator], int], tuple]
    judge: Callable[..., np.ndarray]


# The suite each check-id prefix names.
_SUITE_OF_PREFIX = {"core": "core", "div": "div", "fre": "frechet", "ens": "ensemble", "sim": "sim"}
SUITES = tuple(_SUITE_OF_PREFIX.values())

_REGISTERED: list[CheckDef] = []


def _check(check_id: str, tol: float, label: str, draw):
    """Register the decorated function as the judge of the trials ``draw``
    makes, in the suite its id prefix names. An unknown prefix or an id
    registered before raises ``ValueError``."""
    prefix = check_id.split(".", 1)[0]
    if prefix not in _SUITE_OF_PREFIX:
        raise ValueError(
            f"check {check_id!r}: unknown prefix {prefix!r}; choose from {tuple(_SUITE_OF_PREFIX)}"
        )
    if any(c.check_id == check_id for c in _REGISTERED):
        raise ValueError(f"check {check_id!r} is registered twice")

    def register(judge):
        _REGISTERED.append(CheckDef(check_id, label, _SUITE_OF_PREFIX[prefix], tol, draw, judge))
        return judge

    return register


# ---------------------------------------------------------------------------
# Runner and report
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    check_id: str
    label: str
    tol: float  # the check's pinned tolerance: a violation has slack below -tol
    trials: int
    worst_slack: float
    violations: int
    worst_trial: dict  # {"dim", "trial"} of the worst trial, the first in run order
    worst_case_inputs: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "label": self.label,
            "tol": self.tol,
            "trials": self.trials,
            # a non-finite worst (counted as a violation) has no strict-JSON form
            "worst_slack": self.worst_slack if math.isfinite(self.worst_slack) else None,
            "violations": self.violations,
            "worst_trial": dict(self.worst_trial),
        }
        if self.worst_case_inputs is not None:
            out["worst_case_inputs"] = self.worst_case_inputs
        return out


@dataclass
class VerificationReport:
    suite: str
    seed: int
    dims: tuple[int, ...]
    trials: int
    checks: list[CheckResult] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "dims": list(self.dims),
            "trials": self.trials,
            "checks": [c.to_dict() for c in self.checks],
            "total_violations": self.total_violations,
            "wall_time": self.wall_time,
        }


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, hashmix and mix, and the output hash of generate_state. Every
# operand is a uint32 array or np.uint32, so products wrap modulo 2**32 with
# no overflow warning and no value-based promotion on any numpy version.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_WORD = 2**32


def _words(n: int) -> list[int]:
    """The uint32 words, least significant first, that SeedSequence reads
    from a nonnegative integer; ``[0]`` for 0."""
    words = [n % _WORD]
    while n >= _WORD:
        n //= _WORD
        words.append(n % _WORD)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant ``init * mult**j mod 2**32`` for ``j < count``, as a
    uint32 column: it steps by ``mult`` at every hash, whatever the data."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult % _WORD)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """A run of SeedSequence hashmix calls, the ``i``-th on row ``i`` of
    ``values`` (a 1-D ``values`` is every row): it xors with ``consts[i]``
    and multiplies by ``consts[i + 1]``."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _XSHIFT)


def _trial_seeds(seed: int, check_id: str, dims: Sequence[int], trials: Sequence[int]) -> np.ndarray:
    """The PCG64 seed words of every trial of one check: a ``(len(dims),
    len(trials), 4)`` uint64 array whose row ``[i, k]`` is what numpy's
    SeedSequence of ``[seed, crc32(check_id), dims[i], trials[k]]`` gives
    from ``generate_state(4, np.uint64)``, hashed for all rows at once.
    Each dim and trial index must be below 2**32 (one uint32 word)."""
    if max(dims) >= _WORD or max(trials) >= _WORD:
        raise ValueError("dims and trial indices must be below 2**32")
    head = _words(seed) + [zlib.crc32(check_id.encode("utf-8"))]
    n_dims, n_trials = len(dims), len(trials)
    entropy = np.empty((len(head) + 2, n_dims * n_trials), dtype=np.uint32)
    entropy[:-2] = np.array(head, dtype=np.uint32)[:, None]
    entropy[-2] = np.repeat(np.asarray(dims, dtype=np.uint32), n_trials)
    entropy[-1] = np.tile(np.asarray(trials, dtype=np.uint32), n_dims)
    # mix_entropy: hash the first four words into the pool, mix each pool word
    # into the three others, then mix each remaining word into all four
    extra = len(entropy) - _POOL
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + extra) + 1)
    pool, j = _hashmix(entropy[:_POOL], a[: _POOL + 1]), _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[j : j + _POOL]))
        j += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, a[j : j + _POOL + 1]))
        j += _POOL
    # generate_state: eight uint32 words from the pool, cycled, read in pairs
    # as little-endian uint64
    state = _hashmix(pool[np.arange(8) % _POOL], _hash_constants(_INIT_B, _MULT_B, 9))
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return words.reshape(n_dims, n_trials, 4)


@cache
def _seed_words() -> type:
    """numpy's ``ISeedSequence`` over precomputed PCG64 seed words, defined
    on first use: ``numpy.random`` stays unloaded until the harness draws."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # the one request PCG64's seeding makes
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("seed words serve generate_state(4, np.uint64) only")
            return self.words

    return SeedWords


def _generators(words: np.ndarray) -> list:
    """A generator per row of ``_trial_seeds`` words: the one
    ``np.random.default_rng`` builds from that row's seed list."""
    seed_words = _seed_words()
    return [np.random.Generator(np.random.PCG64(seed_words(w))) for w in words]


def _trial_rng(seed: int, check_id: str, dim: int, trial: int) -> np.random.Generator:
    (rng,) = _generators(_trial_seeds(seed, check_id, (dim,), (trial,))[0])
    return rng


def _judged(check: CheckDef, rngs: list, dim: int) -> tuple[tuple, list[float]]:
    """The stacked judge arguments of the trials of ``rngs``, drawn in one
    call, and their slacks, judged in one call: one per generator, or raise."""
    stacks = check.draw(rngs, dim)
    slacks = [float(x) for x in check.judge(*stacks)]
    if len(slacks) != len(rngs):
        raise ValueError(f"{len(slacks)} slacks for {len(rngs)} trials")
    return stacks, slacks


def _trial(check: CheckDef, seed: int, dim: int, k: int) -> float:
    """Slack of trial ``k`` of one check at ``dim``, drawn and judged alone
    from its own generator; ``-inf`` when the trial raises."""
    try:
        return _judged(check, [_trial_rng(seed, check.check_id, dim, k)], dim)[1][0]
    except Exception:
        return -math.inf


def _judge_dim(check: CheckDef, seed: int, dim: int, words: np.ndarray) -> list[float]:
    """Slack of each trial of one check at ``dim``, from the ``_trial_seeds``
    words of its trials: all trials as one stack, or, when that raises, each
    trial alone, so only the trials that raise are charged."""
    try:
        return _judged(check, _generators(words), dim)[1]
    except Exception:
        return [_trial(check, seed, dim, k) for k in range(len(words))]


def _replay(check: CheckDef, seed: int, dim: int, trial: int) -> dict:
    """The inputs of one trial, drawn and judged again from its coordinates:
    its judge's arguments by parameter name, each as ``io.judge_argument``
    writes it, or, when the trial raises, its exception and coordinates."""
    try:
        stacks, _ = _judged(check, [_trial_rng(seed, check.check_id, dim, trial)], dim)
    except Exception as exc:
        return {"error": type(exc).__name__, "message": str(exc), "dim": dim, "trial": trial}
    names = inspect.signature(check.judge).parameters
    return {name: judge_argument(stack[0]) for name, stack in zip(names, stacks)}


def _run_check(check: CheckDef, seed: int, dims: tuple[int, ...], trials: int) -> CheckResult:
    """Run ``trials`` trials of one check per dimension at its pinned ``tol``.

    A trial that raises counts as a violation with slack ``-inf``. The worst
    trial is the first minimum in (dim, trial) order; when it is a violation,
    ``_replay`` gives its inputs.
    """
    worst = math.inf
    worst_trial = None
    violations = 0
    seeds = _trial_seeds(seed, check.check_id, dims, range(trials))
    for dim, words in zip(dims, seeds):
        for k, slack in enumerate(_judge_dim(check, seed, dim, words)):
            if not math.isfinite(slack):
                slack = -math.inf
            if slack < worst:
                worst, worst_trial = slack, {"dim": dim, "trial": k}
            if slack < -check.tol:
                violations += 1
    return CheckResult(
        check_id=check.check_id,
        label=check.label,
        tol=check.tol,
        trials=trials * len(dims),
        worst_slack=worst,
        violations=violations,
        worst_trial=worst_trial,
        worst_case_inputs=_replay(check, seed, **worst_trial) if worst < -check.tol else None,
    )


def run_suite(
    suite: str = "all",
    dims: Sequence[int] = (2, 3, 4),
    trials: int = 200,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> VerificationReport:
    """Run every registered check of a suite over random trials per dimension.

    Each check is judged at the tolerance pinned in its registration: a
    trial is a violation when its slack is below ``-tol``. ``seed`` must be
    a nonnegative integer, ``trials`` and each entry of ``dims`` positive
    integers (a bool is none of these), each dim and trial index below
    2**32, one word of a trial's seed, and no dimension may repeat: its
    trials would repeat. A trial whose slack is not finite (NaN or
    infinite), or whose check raises, proves nothing and counts as a
    violation.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    if not la._integral(trials) or not 1 <= trials <= _WORD:
        raise ValueError(f"trials must be a positive integer at most 2**32, got {trials!r}")
    if not la._integral(seed) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    dims = tuple(dims)
    if not dims or not all(la._integral(d) and 1 <= d < _WORD for d in dims):
        raise ValueError(f"dims must be positive integers below 2**32, got {dims!r}")
    if len(set(dims)) != len(dims):
        raise ValueError(f"dims must not repeat, got {dims!r}")
    dims, trials = tuple(int(d) for d in dims), int(trials)

    from . import checks  # the registry loads on the first run

    selected = [c for c in checks.REGISTRY if suite == "all" or c.suite == suite]
    report = VerificationReport(suite=suite, seed=int(seed), dims=dims, trials=trials)
    started = time.perf_counter()
    for check in selected:
        result = _run_check(check, seed, dims, trials)
        report.checks.append(result)
        if progress is not None:
            n = result.violations
            status = "ok" if n == 0 else f"{n} VIOLATIONS"
            progress(f"{check.check_id}: worst slack {result.worst_slack:.3e} [{status}]")
    report.wall_time = time.perf_counter() - started
    return report
