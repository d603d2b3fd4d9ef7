"""qsd benchmark: one command, four seeded workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qsd checkout; the library is imported from ``src/``.
Each workload runs in its own worker process, pinned to one core with BLAS on
one thread, as a single caller in a closed loop:

* ``verify-acceptance``: ``qsd verify --suite all --dims 2,3,4,6 --trials 20``
  through ``qsd.cli.main``; one operation is one check, throughput counts trials.
* ``scan-small``: closed-form primitives at d in {2,3,4,8}, full-rank and
  rank-deficient (nested and crossed supports) pairs.
* ``calculus-large``: closed forms, ``second_frechet_log`` and the quadrature
  oracle at d in {64,128}.
* ``cli-cold``: sequential ``python -m qsd compute`` processes at d=4.

With ``--trace 0`` set-up is timed in ``SETUP_SAMPLES`` fresh workers (median)
and the last one repeats passes for ``--seconds``: ``wall_s`` is the median
pass, the percentiles are medians over passes of each pass's percentiles, and
all times are rescaled to a reference machine speed (see calibration.py; raw
times are in the ``# info`` line). With ``--trace 1`` one worker runs one
untraced and one traced pass and reports per-layer metrics. Every result is
checked; the last stdout line is the JSON result, the lines before it a table
with units and the environment. The exit code is 0 only when every operation
was correct. The full worker result is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-acceptance", "scan-small", "calculus-large", "cli-cold")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from worker import WORKER_ENV, monotonic  # noqa: E402


class WorkerError(RuntimeError):
    pass


def run_worker(args, env: dict, deadline: float, setup_only: bool = False) -> tuple[float, dict]:
    """Start a worker; return its set-up time (from process start) and its result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--workdir", str(ROOT / ".perfbench_tmp"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if Path(result["qsd"]).resolve().parent != ROOT / "src" / "qsd":
        raise WorkerError(f"qsd was imported from {result['qsd']}, not from this checkout")
    return (result["ready_at"] - spawned) * result.get("setup_factor", 1.0), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qsd" / "__init__.py").is_file():
        print(f"error: no qsd sources under {ROOT / 'src'}; run from a qsd checkout", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, env, deadline, setup_only=True)[0])
        setup, result = run_worker(args, env, deadline)
        setups.append(setup)
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    measured = dict(result["metrics"])
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        measured["setup_s"] = statistics.median(setups)
        result["info"]["setup_samples_s"] = setups
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and attempted > 0

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, metrics=measured, time=time.time()), fh, indent=1)

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("# env " + json.dumps(result["env"]))
    print("# info " + json.dumps({k: v for k, v in result["info"].items() if k != "layers"}))
    for message in result["errors"]:
        print(f"# FAILED {message}")
    for name, unit in units.items():
        print(f"{name:<52} {measured[name]:>16.6g} {unit}")
    print(f"{'error_rate':<52} {failed / max(attempted, 1):>16.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
