"""Command-line front end.

Three subcommands: ``compute`` evaluates a measure on states read from JSON
files, ``random`` writes seeded random objects, and ``verify`` runs the
inequality-verification suite and emits a machine-readable report.

Exit codes: 0 success, 1 verification found violations, 2 usage or parse
failure, 3 domain error, 4 I/O failure. The environment variable ``QSD_SEED``
overrides the default seed when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import io as qio
from .divergences import (
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
from .verify import DEFAULT_TOL, SUITES, run_suite

DEFAULT_SEED = 0

MEASURES = (
    "entropy",
    "re",
    "sd",
    "dsd",
    "trace-dist",
    "fidelity",
    "chi",
    "mixing-rate",
    "chi2log",
)

_INPUT_COUNTS = {
    "entropy": 1,
    "re": 2,
    "sd": 2,
    "dsd": 2,
    "trace-dist": 2,
    "fidelity": 2,
    "chi": 1,
    "mixing-rate": 3,
    "chi2log": 2,
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
        default=None,
        help="ensemble size (default 2) or environment dimension for channels",
    )
    random_cmd.add_argument("--seed", type=int, default=None)
    random_cmd.add_argument("--out", required=True, help="output path, '-' for stdout")

    verify = sub.add_parser("verify", help="run the inequality-verification suite")
    verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    verify.add_argument("--dims", default="2,3,4", help="comma-separated dimensions")
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("--out", default="-", help="report path, '-' for stdout")
    verify.add_argument(
        "--quiet", action="store_true", help="suppress per-check progress lines"
    )
    return parser


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("QSD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"QSD_SEED is not an integer: {env!r}") from exc
    return DEFAULT_SEED


def _require_alpha(args) -> float:
    if args.alpha is None:
        raise UsageError(f"--alpha is required for measure {args.measure!r}")
    return args.alpha


class UsageError(Exception):
    pass


def _cmd_compute(args) -> int:
    expected = _INPUT_COUNTS[args.measure]
    if len(args.inputs) != expected:
        raise UsageError(
            f"measure {args.measure!r} takes {expected} input file(s), got {len(args.inputs)}"
        )

    if args.measure == "entropy":
        value = von_neumann_entropy(qio.read_state(args.inputs[0]))
    elif args.measure == "re":
        value = float(
            relative_entropy(qio.read_state(args.inputs[0]), qio.read_state(args.inputs[1]))
        )
    elif args.measure == "sd":
        value = skew_divergence(
            qio.read_state(args.inputs[0]), qio.read_state(args.inputs[1]), _require_alpha(args)
        )
    elif args.measure == "dsd":
        value = differential_skew_divergence(
            qio.read_state(args.inputs[0]), qio.read_state(args.inputs[1]), _require_alpha(args)
        )
    elif args.measure == "trace-dist":
        value = trace_distance(qio.read_state(args.inputs[0]), qio.read_state(args.inputs[1]))
    elif args.measure == "fidelity":
        value = fidelity(qio.read_state(args.inputs[0]), qio.read_state(args.inputs[1]))
    elif args.measure == "chi2log":
        value = chi2_log(qio.read_state(args.inputs[0]), qio.read_state(args.inputs[1]))
    elif args.measure == "chi":
        value = holevo_chi(qio.read_ensemble(args.inputs[0]))
    elif args.measure == "mixing-rate":
        ensemble = qio.read_ensemble(args.inputs[0])
        h1 = qio.read_state(args.inputs[1])
        h2 = qio.read_state(args.inputs[2])
        experiment = MixingExperiment(
            ensemble, h1, h2, args.t if args.t is not None else 0.0
        )
        value = mixing_rate(experiment)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown measure {args.measure!r}")

    print(repr(float(value)) if not math.isinf(float(value)) else "inf")
    return 0


def _cmd_random(args) -> int:
    if args.dim < 1:
        raise UsageError("--dim must be at least 1")
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    if args.kind == "state":
        payload = qio.state_to_dict(random_state(args.dim, rng))
    elif args.kind == "hamiltonian":
        payload = qio.state_to_dict(random_hamiltonian(args.dim, rng))
    elif args.kind == "channel":
        env = args.n if args.n is not None else 2
        payload = qio.channel_to_dict(random_cptp(args.dim, env, rng))
    else:  # ensemble
        n = args.n if args.n is not None else 2
        if n < 1:
            raise UsageError("--n must be at least 1")
        weights = rng.dirichlet(np.ones(n))
        weights /= weights.sum()
        states = [random_state(args.dim, rng) for _ in range(n)]
        payload = qio.ensemble_to_dict(Ensemble(weights, states))
    qio.dump_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise UsageError(f"--tol must be finite and greater than 0, got {args.tol!r}")
    try:
        dims = tuple(int(part) for part in args.dims.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"--dims must be comma-separated integers: {exc}") from exc
    if not dims or any(d < 1 for d in dims):
        raise UsageError("--dims must contain positive integers")
    seed = _resolve_seed(args.seed)
    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    report = run_suite(
        suite=args.suite,
        dims=dims,
        trials=args.trials,
        seed=seed,
        tol=args.tol,
        progress=progress,
    )
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
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
