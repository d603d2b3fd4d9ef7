"""Runs one workload in its own process: set-up, then a timed or a traced phase.

Started by ``run.py`` with BLAS pinned to one thread. Prints one JSON object;
``ready_at`` is the system-wide monotonic clock when set-up (imports, input
generation, one warm-up call) finished, so the parent can time set-up from
process start.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

# BLAS pinned to one thread; fixed string hashing so processes repeat each other
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def env_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        **{k: os.environ.get(k) for k in WORKER_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def timed_phase(wl, seconds: float) -> tuple[dict, dict]:
    """Repeat passes for ``seconds`` of pass time; report times rescaled to the
    reference machine speed (see calibration.py). Operation percentiles are
    taken per pass and their median over passes is reported."""
    import numpy as np
    from calibration import Calibration, Meter

    meter = Meter(Calibration())
    passes = []  # (midpoint, seconds without calibration, first op, end op)
    measured = 0.0
    while measured < seconds:
        paused, first = meter.paused, len(meter.seconds)
        p0 = time.perf_counter()
        wl.run_pass(meter)
        p1 = time.perf_counter()
        wall = (p1 - p0) - (meter.paused - paused)
        passes.append(((p0 + p1) / 2, wall, first, len(meter.seconds)))
        measured += wall
    meter.calibrate()
    rss = peak_rss_mb(children=wl.name == "cli-cold")
    checked = wl.gate()

    at, raw_walls = (np.array([p[i] for p in passes]) for i in (0, 1))
    walls = raw_walls * meter.factor(at)
    raw_ops = np.asarray(meter.seconds)
    ops = raw_ops * meter.factor(np.asarray(meter.ends))
    p50, p95 = np.median([np.percentile(ops[a:b], [50, 95]) for _, _, a, b in passes], axis=0)
    metrics = {
        "wall_s": float(np.median(walls)),
        "ops_per_s": len(walls) * wl.work_per_pass / float(walls.sum()),
        "op_p50_ms": float(p50) * 1e3,
        "op_p95_ms": float(p95) * 1e3,
        "peak_rss_mb": rss,
    }
    kernel = [k for _, k in meter.marks]
    info = {
        "passes": len(walls),
        "samples": len(ops),
        "samples_beyond_p95": int((ops > p95).sum()),
        "gate_checked": checked,
        "raw_wall_s": float(np.median(raw_walls)),
        "raw_op_p50_ms": float(np.median(raw_ops)) * 1e3,
        "calibration_s": {"median": statistics.median(kernel), "min": min(kernel), "max": max(kernel), "n": len(kernel)},
    }
    return metrics, info


def traced_phase(wl, seed: int, size: str, import_s: float) -> tuple[dict, dict]:
    from calibration import Meter
    from metrics import PER_LAYER
    from tracer import AVERAGING, QUADRATURE, SD, Summary, Tracer
    from workloads import layer_probe

    p0 = time.perf_counter()
    wl.run_pass(Meter())
    untraced = time.perf_counter() - p0
    tracer = Tracer()
    p0 = time.perf_counter()
    with tracer:
        wl.run_pass(Meter(), traced=True)
    traced = time.perf_counter() - p0
    summary = tracer.summary()
    summary.merge(getattr(wl, "child_summary", Summary()))
    checked = wl.gate()

    out = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            out[name] = summary.calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = summary.self_s.get(name[: -len(".self_s")], 0.0)
        else:
            out[name] = 0.0
    out["kernel.eig_per_sd"] = summary.per_call([SD], ["eigh", "eigvalsh"])
    out["frechet.oracle.solves_per_quadrature"] = summary.per_call(QUADRATURE, ["solve"])
    out["frechet.oracle.eigh_per_averaging"] = summary.per_call([AVERAGING], ["eigh"])
    out["verify.runner_overhead_s"] = summary.self_s.get("verify.run_suite", 0.0)
    child_imports = getattr(wl, "import_s", [])
    out["cli.import_s"] = statistics.median(child_imports) if child_imports else import_s
    out["trace.overhead_s"] = traced - untraced
    out.update(wl.layer_metrics())
    out.update(layer_probe(seed, size))
    info = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "spans": sum(summary.calls.values()),
        "gate_checked": checked,
        "layers": summary.to_dict(),
    }
    return out, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True, help="directory for temporary files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.environ.update(WORKER_ENV)  # BLAS settings before numpy loads
    # one core for the workload, its calibration and its child processes, so
    # the calibration sees the speed of the core the work ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    import qsd

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
        wl.warmup()
        result = {"ready_at": monotonic(), "inputs_digest": wl.inputs_digest(), "qsd": qsd.__file__}
        if not args.trace:
            from calibration import REFERENCE_S, Calibration

            result["setup_factor"] = REFERENCE_S / Calibration().measure()
        if not args.setup_only:
            if args.trace:
                metrics, info = traced_phase(wl, args.seed, args.size, import_s)
            else:
                metrics, info = timed_phase(wl, args.seconds)
            result.update(
                attempted=wl.attempted,
                failed=wl.failed,
                errors=wl.errors,
                metrics=metrics,
                info=info,
                env=env_record(),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
