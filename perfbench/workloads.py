"""The benchmark's workloads: seeded inputs, one timed pass, and a correctness gate.

Each workload builds every input from its seed during set-up, so qsd receives
only generated inputs. A pass is a fixed list of operations; the worker repeats
passes for the measured time. Workloads count what they attempted and what
failed (raised, exited non-zero, or disagreed with the gate).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import qsd
import qsd.cli
import qsd.io
import reference
from calibration import Meter
from tracer import Summary

# Skew parameters drawn for the closed-form streams.
ALPHAS = (0.05, 0.25, 0.5, 0.75, 0.95)
# Relative tolerance of the gate on closed forms, and on the quadrature oracle,
# whose adaptive refinement stops at a relative change of 1e-8.
RTOL = 1e-9
RTOL_ORACLE = 1e-7


# ---------------------------------------------------------------------------
# Input generation (numpy only)
# ---------------------------------------------------------------------------


def haar_isometry(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """First ``r`` columns of a Haar unitary on ``C^d``."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, upper = np.linalg.qr(g)
    q = q * (np.diag(upper) / np.abs(np.diag(upper)))
    return q[:, :r]


def from_spectrum(eigs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    mat = (basis * eigs) @ basis.conj().T
    return (mat + mat.conj().T) / 2.0


def spread_spectrum(n: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-trace spectrum spaced geometrically over ``[1/kappa, 1]``.

    A jitter of at most 2% keeps neighbouring eigenvalues apart (the grid
    ratio is at least 1.04 for the sizes used) and the condition number fixed,
    so the quadrature oracle's mesh does not change from seed to seed.
    """
    w = np.geomspace(1.0 / kappa, 1.0, n) * rng.uniform(1.0, 1.02, n)
    return np.sort(w) / w.sum()


def full_rank_state(d: int, rng: np.random.Generator, kappa: float = 10**2.5) -> np.ndarray:
    return from_spectrum(spread_spectrum(d, kappa, rng), haar_isometry(d, d, rng))


def nested_pair(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Rank-deficient pair with ``supp A`` inside ``supp B`` (rank d-1 for B)."""
    rank_b = max(1, d - 1)
    rank_a = max(1, rank_b - 1)
    basis = haar_isometry(d, rank_b, rng)
    b = from_spectrum(spread_spectrum(rank_b, 10.0, rng), basis)
    inner = basis @ haar_isometry(rank_b, rank_a, rng)
    a = from_spectrum(spread_spectrum(rank_a, 10.0, rng), inner)
    return a, b


def crossed_pair(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Rank-deficient pair with supports in general position (neither nested)."""
    rank = max(1, (d - 1) // 2)
    a = from_spectrum(spread_spectrum(rank, 10.0, rng), haar_isometry(d, rank, rng))
    b = from_spectrum(spread_spectrum(rank, 10.0, rng), haar_isometry(d, rank, rng))
    return a, b


def hamiltonian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    return h / float(np.abs(np.linalg.eigvalsh(h)).max())


def weights(n: int, rng: np.random.Generator) -> np.ndarray:
    w = rng.uniform(0.2, 1.0, n)
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return w


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Streams of closed-form calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    fn: str
    args: tuple
    dim: int

    def reference_args(self) -> tuple:
        if self.fn == "holevo_chi":
            (ens,) = self.args
            return (ens.weights, [s.mat for s in ens.states])
        if self.fn == "mixing_rate":
            (exp,) = self.args
            ens = exp.ensemble
            return (ens.weights, [s.mat for s in ens.states], exp.h1.mat, exp.h2.mat, exp.time)
        return tuple(a.mat if hasattr(a, "mat") else a for a in self.args)


def _value(result):
    if hasattr(result, "mat"):
        return result.mat
    if isinstance(result, complex):
        return result
    return float(result)


def _same(x, y) -> bool:
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    return x == y or (x != x and y != y)


class StreamWorkload:
    """A fixed, seed-shuffled list of in-process calls into qsd's public functions."""

    name = ""
    gate_sample = 0  # results of the first pass recomputed by the reference; 0 = all

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = size
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = self.build()
        self.rng.shuffle(self.ops)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: list | None = None
        self.last: list | None = None

    def build(self) -> list[Op]:
        raise NotImplementedError

    @property
    def work_per_pass(self) -> int:
        return len(self.ops)

    def inputs_digest(self) -> str:
        arrays = []
        for op in self.ops:
            for a in op.reference_args():
                if isinstance(a, list):
                    arrays.extend(a)
                else:
                    arrays.append(np.asarray(a))
        return digest(*arrays)

    def warmup(self) -> None:
        op = self.ops[0]
        getattr(qsd, op.fn)(*op.args)

    def run_pass(self, meter, traced: bool = False) -> None:
        fns = {op.fn: getattr(qsd, op.fn) for op in self.ops}  # resolved per pass: tracing patches them
        clock = time.perf_counter
        results = []
        for op in self.ops:
            meter.between()
            fn = fns[op.fn]
            t0 = clock()
            try:
                result = fn(*op.args)
            except Exception as exc:  # a failed call is counted, not fatal
                result = None
                self._fail(f"{op.fn} d={op.dim}: {exc!r}")
            meter.op(clock() - t0)
            results.append(result)
        self.attempted += len(self.ops)
        if self.first is None:
            self.first = results
        self.last = results

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def gate(self) -> int:
        """Recompute a seeded sample of the first pass by the reference, and
        require the last pass to repeat the first exactly. Returns results checked."""
        picks = range(len(self.ops))
        if self.gate_sample and self.gate_sample < len(self.ops):
            picks = sorted(np.random.default_rng(self.seed + 1).choice(len(self.ops), self.gate_sample, replace=False))
        for i in picks:
            op, result = self.ops[i], self.first[i]
            if result is None:
                continue  # already counted
            rtol = RTOL_ORACLE if op.fn == "frechet_log_quadrature" else RTOL
            ref = reference.FORMULAS[op.fn](*op.reference_args())
            if not reference.close(_value(result), ref, rtol):
                self._fail(f"{op.fn} d={op.dim}: {_value(result)!r} != reference {ref!r}")
        for i, (x, y) in enumerate(zip(self.first, self.last)):
            if x is not None and y is not None and not _same(_value(x), _value(y)):
                self._fail(f"{self.ops[i].fn} d={self.ops[i].dim}: result changed between passes")
        return len(picks)

    def layer_metrics(self) -> dict:
        return {}


def _dm(mat):
    return qsd.DensityMatrix.from_matrix(mat)


def _herm(mat):
    return qsd.HermitianOperator(mat)


class ScanSmall(StreamWorkload):
    """Closed-form primitives at small d; half the pairs full rank, half rank-deficient."""

    name = "scan-small"
    gate_sample = 96

    def build(self) -> list[Op]:
        rng = self.rng
        tiny = self.size == "tiny"
        dims = (2, 3) if tiny else (2, 3, 4, 8)
        n_full, n_nested, n_crossed, n_ens = (1, 1, 1, 1) if tiny else (4, 2, 2, 2)
        alpha = lambda: float(rng.choice(ALPHAS))  # noqa: E731
        ops: list[Op] = []
        for d in dims:
            add = lambda fn, *args: ops.append(Op(fn, args, d))  # noqa: E731
            for _ in range(n_full):
                a, b = _dm(full_rank_state(d, rng, 100.0)), _dm(full_rank_state(d, rng, 100.0))
                delta = _herm(a.mat - b.mat)
                add("skew_divergence", a, b, alpha())
                add("skew_divergence", a, b, alpha())
                add("skew_divergence", b, a, alpha())
                add("relative_entropy", a, b)
                add("von_neumann_entropy", a)
                add("trace_distance", a, b)
                add("fidelity", a, b)
                add("frechet_log", a, delta)
                add("metric_M", a, delta, delta)
                add("differential_skew_divergence", a, b, alpha())
                add("chi2_log", a, b)
            for _ in range(n_nested):
                a, b = (_dm(m) for m in nested_pair(d, rng))
                add("skew_divergence", a, b, alpha())
                add("skew_divergence", b, a, alpha())
                add("relative_entropy", a, b)
                add("relative_entropy", b, a)  # infinite: B leaks out of supp A
                add("von_neumann_entropy", a)
                add("trace_distance", a, b)
                add("differential_skew_divergence", a, b, alpha())
                add("chi2_log", a, b)
            for _ in range(n_crossed):
                a, b = (_dm(m) for m in crossed_pair(d, rng))
                add("skew_divergence", a, b, alpha())
                add("skew_divergence", b, a, alpha())
                add("relative_entropy", a, b)  # infinite
                add("von_neumann_entropy", b)
                add("trace_distance", a, b)
                add("differential_skew_divergence", a, b, alpha())
            for _ in range(n_ens):
                members = [_dm(full_rank_state(d, rng, 100.0)) for _ in range(3)]
                add("holevo_chi", qsd.Ensemble(weights(3, rng), members))
                pair = qsd.Ensemble(weights(2, rng), [_dm(full_rank_state(d, rng, 100.0)) for _ in range(2)])
                exp = qsd.MixingExperiment(
                    pair, _herm(hamiltonian(d, rng)), _herm(hamiltonian(d, rng)), float(rng.uniform(0.1, 1.0))
                )
                add("mixing_rate", exp)
        return ops


class CalculusLarge(StreamWorkload):
    """Closed forms and the quadrature oracle at d = 64 and 128."""

    name = "calculus-large"

    def build(self) -> list[Op]:
        rng = self.rng
        tiny = self.size == "tiny"
        small, large = (8, 16) if tiny else (64, 128)
        n_pairs = 1 if tiny else 4
        ops: list[Op] = []
        for d in (small, large):
            add = lambda fn, *args: ops.append(Op(fn, args, d))  # noqa: E731
            pairs = []
            for _ in range(n_pairs):
                a, b = _dm(full_rank_state(d, rng)), _dm(full_rank_state(d, rng))
                delta = _herm(a.mat - b.mat)
                pairs.append((a, delta))
                add("skew_divergence", a, b, float(rng.choice(ALPHAS)))
                add("relative_entropy", a, b)
                add("frechet_log", a, delta)
                add("metric_M", a, delta, delta)
            # the heavy calls are ~8% of a pass, so op_p95_ms sits among them
            add("second_frechet_log", *pairs[0])
            if d == large:
                add("second_frechet_log", *pairs[-1])
            else:
                add("frechet_log_quadrature", *pairs[0])
        return ops


# ---------------------------------------------------------------------------
# The acceptance verify run
# ---------------------------------------------------------------------------


class _ProgressLines:
    """Stand-in for stderr: each completed progress line ends one check."""

    def __init__(self, meter):
        self.meter = meter
        self.ids: list[str] = []
        self.durations: list[float] = []
        self._buf = ""
        self._start = time.perf_counter()

    def write(self, text: str) -> int:
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            seconds = time.perf_counter() - self._start
            self.meter.op(seconds)
            self.durations.append(seconds)
            self.ids.append(line.split(":", 1)[0])
            self.meter.between()
            self._start = time.perf_counter()
        return len(text)

    def flush(self) -> None:
        pass


def report_hash(path: str) -> tuple[str, int]:
    """SHA-256 of the report without ``wall_time``, and its violation count."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("wall_time", None)
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), int(report["total_violations"])


class VerifyAcceptance:
    """``qsd verify --suite all`` through ``qsd.cli.main``, report to a temp file.

    One operation is one check (all its dims and trials), timed between
    progress lines; throughput counts trials.
    """

    name = "verify-acceptance"

    def __init__(self, seed: int, size: str, workdir: str):
        tiny = size == "tiny"
        self.dims = (2, 3) if tiny else (2, 3, 4, 6)
        self.trials = 1 if tiny else 20
        self.report = os.path.join(workdir, "report.json")
        self.argv = [
            "verify", "--suite", "all",
            "--dims", ",".join(map(str, self.dims)),
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--out", self.report,
        ]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hashes: list[str] = []
        self.last_checks: list[tuple[str, float]] = []

    @property
    def work_per_pass(self) -> int:
        return len(qsd.REGISTRY) * len(self.dims) * self.trials

    def inputs_digest(self) -> str:
        return hashlib.sha256(" ".join(self.argv[:-1]).encode()).hexdigest()

    def _call(self, argv: list[str], meter) -> tuple[int, _ProgressLines]:
        sink = _ProgressLines(meter)
        with contextlib.redirect_stderr(sink):
            code = qsd.cli.main(argv)
        return code, sink

    def warmup(self) -> None:
        argv = list(self.argv)
        argv[argv.index("--trials") + 1] = "1"
        argv[argv.index("--dims") + 1] = "2"
        self._call(argv, Meter())

    def run_pass(self, meter, traced: bool = False) -> None:
        code, sink = self._call(self.argv, meter)
        self.last_checks = list(zip(sink.ids, sink.durations))
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif len(sink.ids) != len(qsd.REGISTRY):
            problem = f"{len(sink.ids)} progress lines for {len(qsd.REGISTRY)} checks"
        else:
            digest_, violations = report_hash(self.report)
            self.hashes.append(digest_)
            if violations:
                problem = f"{violations} violations"
            elif digest_ != self.hashes[0]:
                problem = "report differs from the first pass"
        if problem:
            self.failed += 1
            self.errors.append(problem)

    def gate(self) -> int:
        return self.attempted  # every pass is checked as it completes

    def layer_metrics(self) -> dict:
        suite_of = {c.check_id: c.suite for c in qsd.REGISTRY}
        out = {f"verify.suite.{s}.s": 0.0 for s in qsd.verify.SUITES}
        for check_id, seconds in self.last_checks:
            out[f"verify.suite.{suite_of[check_id]}.s"] += seconds
            if check_id in ("fre.quadrature_match", "fre.averaging_match"):
                out[f"verify.check.{check_id}.s"] = seconds
        return out


# ---------------------------------------------------------------------------
# Cold CLI processes
# ---------------------------------------------------------------------------


def _state_payload(mat: np.ndarray) -> dict:
    return {"format": "qsd-state-v1", "dim": mat.shape[0], "re": mat.real.tolist(), "im": mat.imag.tolist()}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


class CliCold:
    """Sequential ``python -m qsd compute`` processes over files written in set-up."""

    name = "cli-cold"
    DIM = 4

    def __init__(self, seed: int, size: str, workdir: str):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.trace_entry = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")
        d = self.DIM
        self.arrays = []

        def put(name: str, payload: dict, *mats) -> str:
            path = os.path.join(workdir, name)
            _write_json(path, payload)
            self.arrays.extend(mats)
            return path

        states = []
        for i in range(4):
            m = full_rank_state(d, rng, 100.0)
            states.append(put(f"state{i}.json", _state_payload(m), m))
        hams = []
        for i in range(2):
            m = hamiltonian(d, rng)
            hams.append(put(f"h{i}.json", _state_payload(m), m))
        ensembles = []
        for i in range(2):
            w = weights(2, rng)
            ms = [full_rank_state(d, rng, 100.0) for _ in range(2)]
            payload = {"format": "qsd-ensemble-v1", "weights": w.tolist(), "states": [_state_payload(m) for m in ms]}
            ensembles.append(put(f"ensemble{i}.json", payload, w, *ms))
        a1, a2 = (float(rng.choice(ALPHAS)) for _ in range(2))
        t1, t2 = (round(float(rng.uniform(0.1, 1.0)), 6) for _ in range(2))
        calls = [
            ["--measure", "sd", "--alpha", repr(a1), states[0], states[1]],
            ["--measure", "re", states[0], states[2]],
            ["--measure", "chi", ensembles[0]],
            ["--measure", "mixing-rate", "--t", repr(t1), ensembles[0], hams[0], hams[1]],
            ["--measure", "sd", "--alpha", repr(a2), states[2], states[3]],
            ["--measure", "re", states[1], states[3]],
            ["--measure", "chi", ensembles[1]],
            ["--measure", "mixing-rate", "--t", repr(t2), ensembles[1], hams[1], hams[0]],
        ]
        self.calls = calls[:4] if size == "tiny" else calls
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: list[tuple[int, str]] = []
        self.child_summary = Summary()
        self.import_s: list[float] = []

    @property
    def work_per_pass(self) -> int:
        return len(self.calls)

    def inputs_digest(self) -> str:
        return digest(*self.arrays)

    def _run(self, args: list[str], traced: bool) -> tuple[int, str]:
        env = dict(os.environ)
        if traced:
            out = os.path.join(self.workdir, "trace.json")
            env["PERFBENCH_TRACE_OUT"] = out
            cmd = [sys.executable, self.trace_entry, "compute", *args]
        else:
            cmd = [sys.executable, "-m", "qsd", "compute", *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
        if traced and proc.returncode == 0:
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
            self.child_summary.merge(Summary.from_dict(payload["summary"]))
            self.import_s.append(payload["import_s"])
        return proc.returncode, proc.stdout.strip()

    def warmup(self) -> None:
        self._run(self.calls[0], traced=False)

    def run_pass(self, meter, traced: bool = False) -> None:
        for args in self.calls:
            meter.between()
            t0 = time.perf_counter()
            self.outputs.append(self._run(args, traced))
            meter.op(time.perf_counter() - t0)
        self.attempted += len(self.calls)

    def expected(self, args: list[str]) -> str:
        """The value ``qsd compute`` must print, evaluated in this process."""
        measure = args[1]
        files = [a for a in args if a.endswith(".json")]
        if measure == "sd":
            s = qsd.io.read_state
            value = qsd.skew_divergence(s(files[0]), s(files[1]), float(args[3]))
        elif measure == "re":
            value = float(qsd.relative_entropy(qsd.io.read_state(files[0]), qsd.io.read_state(files[1])))
        elif measure == "chi":
            value = qsd.holevo_chi(qsd.io.read_ensemble(files[0]))
        else:
            exp = qsd.MixingExperiment(
                qsd.io.read_ensemble(files[0]),
                qsd.io.read_state(files[1]),
                qsd.io.read_state(files[2]),
                float(args[3]),
            )
            value = qsd.mixing_rate(exp)
        return "inf" if math.isinf(value) else repr(float(value))

    def gate(self) -> int:
        expected = [self.expected(args) for args in self.calls]
        for i, (code, out) in enumerate(self.outputs):
            want = expected[i % len(self.calls)]
            if code != 0 or out != want:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{self.calls[i % len(self.calls)][1]}: exit {code}, printed {out!r}, expected {want!r}")
        return len(self.outputs)

    def layer_metrics(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (VerifyAcceptance, ScanSmall, CalculusLarge, CliCold)}


def layer_probe(seed: int, size: str) -> dict:
    """Untraced median latency of ``skew_divergence`` and of raw ``eigh`` at fixed d."""
    rng = np.random.default_rng([seed, 7])
    reps = {2: 400, 8: 400, 32: 100, 128: 20} if size == "full" else {2: 20, 8: 20, 32: 5, 128: 3}
    out = {}
    for d, n in reps.items():
        a, b = _dm(full_rank_state(d, rng)), _dm(full_rank_state(d, rng))
        sd_t, eigh_t = [], []
        for _ in range(n):
            t0 = time.perf_counter()
            qsd.skew_divergence(a, b, 0.5)
            t1 = time.perf_counter()
            np.linalg.eigh(a.mat)
            t2 = time.perf_counter()
            sd_t.append(t1 - t0)
            eigh_t.append(t2 - t1)
        sd_med = float(np.median(sd_t))
        out[f"divergences.skew_divergence.p50_us.d{d}"] = sd_med * 1e6
        if d != 32:
            out[f"divergences.sd_over_eigh.d{d}"] = sd_med / float(np.median(eigh_t))
    return out
