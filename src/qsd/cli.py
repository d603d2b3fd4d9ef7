"""Command-line front end.

Three subcommands: ``compute`` evaluates a measure on states read from JSON
files, ``random`` writes seeded random objects, and ``verify`` runs the
inequality-verification suite and emits a machine-readable report.

Exit codes: 0 success, 1 verification found violations, 2 usage or parse
failure, 3 domain error (also a non-finite ``compute`` result other than a
relative entropy's support-defect ``inf``), 4 I/O failure. The environment
variable ``QSD_SEED`` overrides the default seed when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import io as qio
from .divergences import (
    DivergenceValue,
    fidelity,
    relative_entropy,
    skew_divergence,
    trace_distance,
    von_neumann_entropy,
)
from .ensembles import Ensemble, MixingExperiment, holevo_chi, mixing_rate
from .errors import DomainError, FormatError, QsdError
from .frechet import chi2_log, differential_skew_divergence
from .linalg import random_cptp, random_hamiltonian, random_state
from .verify import SUITES, run_suite

DEFAULT_SEED = 0


class UsageError(Exception):
    pass


def _states(args) -> list:
    return [qio.read_state(path) for path in args.inputs]


def _require_alpha(args) -> float:
    if args.alpha is None:
        raise UsageError(f"--alpha is required for measure {args.measure!r}")
    return args.alpha


def _mixing_rate(args) -> float:
    ensemble = qio.read_ensemble(args.inputs[0])
    h1 = qio.read_state(args.inputs[1])
    h2 = qio.read_state(args.inputs[2])
    t = args.t if args.t is not None else 0.0
    return mixing_rate(MixingExperiment(ensemble, h1, h2, t))


# Each measure: the number of input files it takes and its evaluator.
MEASURES = {
    "entropy": (1, lambda args: von_neumann_entropy(*_states(args))),
    "re": (2, lambda args: relative_entropy(*_states(args))),
    "sd": (2, lambda args: skew_divergence(*_states(args), _require_alpha(args))),
    "dsd": (
        2,
        lambda args: differential_skew_divergence(*_states(args), _require_alpha(args)),
    ),
    "trace-dist": (2, lambda args: trace_distance(*_states(args))),
    "fidelity": (2, lambda args: fidelity(*_states(args))),
    "chi": (1, lambda args: holevo_chi(qio.read_ensemble(args.inputs[0]))),
    "mixing-rate": (3, _mixing_rate),
    "chi2log": (2, lambda args: chi2_log(*_states(args))),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsd",
        description="Skew-divergence calculus on finite-dimensional quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate a measure on files")
    compute.add_argument("--measure", required=True, choices=MEASURES)
    compute.add_argument("--alpha", type=float, default=None, help="skew parameter")
    compute.add_argument("--t", type=float, default=None, help="evolution time")
    compute.add_argument(
        "inputs",
        nargs="+",
        help="state files (ensemble file first for chi / mixing-rate)",
    )

    random_cmd = sub.add_parser("random", help="write a seeded random object")
    random_cmd.add_argument(
        "--kind", required=True, choices=("state", "ensemble", "hamiltonian", "channel")
    )
    random_cmd.add_argument("--dim", type=int, required=True)
    random_cmd.add_argument(
        "--n",
        type=int,
        default=2,
        help="ensemble size or environment dimension for channels (default 2)",
    )
    random_cmd.add_argument("--seed", type=int, default=None)
    random_cmd.add_argument("--out", required=True, help="output path, '-' for stdout")

    verify = sub.add_parser("verify", help="run the inequality-verification suite")
    verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    verify.add_argument("--dims", default="2,3,4", help="comma-separated dimensions")
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--out", default="-", help="report path, '-' for stdout")
    verify.add_argument(
        "--quiet", action="store_true", help="suppress per-check progress lines"
    )
    return parser


def _resolve_seed(seed: int | None) -> int:
    """``--seed``, else ``QSD_SEED``, else the default; a seed that is not a
    nonnegative integer is a usage error naming where it came from."""
    source, text = "--seed", seed
    if seed is None:
        source, text = "QSD_SEED", os.environ.get("QSD_SEED")
        if text is None:
            return DEFAULT_SEED
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise UsageError(f"{source} must be a nonnegative integer, got {text!r}")
    return value


def _cmd_compute(args) -> int:
    expected, evaluate = MEASURES[args.measure]
    if len(args.inputs) != expected:
        raise UsageError(
            f"measure {args.measure!r} takes {expected} input file(s), got {len(args.inputs)}"
        )
    with np.errstate(over="ignore"):  # an overflow surfaces as a non-finite value
        result = evaluate(args)
    value = float(result)
    if isinstance(result, DivergenceValue) and result.is_infinite:
        print("inf")  # relative entropy's support defect
    elif math.isfinite(value):
        print(repr(value))
    else:
        raise DomainError(f"measure {args.measure!r} is {value} on these inputs")
    return 0


def _cmd_random(args) -> int:
    if args.dim < 1:
        raise UsageError("--dim must be at least 1")
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    if args.kind == "state":
        payload = qio.state_to_dict(random_state(args.dim, rng))
    elif args.kind == "hamiltonian":
        payload = qio.state_to_dict(random_hamiltonian(args.dim, rng))
    elif args.kind == "channel":
        payload = qio.channel_to_dict(random_cptp(args.dim, args.n, rng))
    else:  # ensemble
        weights = rng.dirichlet(np.ones(args.n))
        weights /= weights.sum()
        states = [random_state(args.dim, rng) for _ in range(args.n)]
        payload = qio.ensemble_to_dict(Ensemble(weights, states))
    qio.dump_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        dims = tuple(int(part) for part in args.dims.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"--dims must be comma-separated integers: {exc}") from exc
    seed = _resolve_seed(args.seed)
    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    try:  # run_suite owns the trials and dims rules
        report = run_suite(args.suite, dims, args.trials, seed, progress)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    qio.dump_json(report.to_dict(), args.out)
    return 0 if report.total_violations == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "random":
            return _cmd_random(args)
        return _cmd_verify(args)
    except (UsageError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, QsdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
