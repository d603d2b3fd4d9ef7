"""Property-verification harness.

Every invariant of the library is registered here as a named check, by the
``_check`` decorator; the id's prefix names the suite, and definition order
is report order. A check comes in two steps. Its draw
``(rng, dim) -> (args, inputs)`` makes one randomized trial: the judge's
arguments (matrices and scalars) and the trial's inputs for the report. Its
judge takes the arguments of all the trials of one dimension, each stacked
along a new first axis, and returns one slack per trial. The slack is
``bound - value`` for an inequality (negative means violated) and
``-|residual|`` for an identity. A trial passes when the slack is at least
``-tol``, the tolerance its property is stated at, pinned when the check
is registered; the runner judges every check at its own ``tol`` and writes
it to the report. A check registered without a draw is a plain function
``(rng, dim) -> (slack, inputs)`` that runs one whole trial; the runner
calls it trial by trial and passes its slacks through.

The runner alone judges trials. A non-finite slack, or a trial that raises,
counts as a violation. A judge that raises on a stack is run again on each
trial alone, so the exception is charged to the trial that raised it. Of
each check the runner keeps the worst trial, the first in (dim, trial)
order, and names it by its coordinates; it writes that trial's inputs to the
report, as qsd-state-v1 objects, only when the trial is a violation. A
raising trial records the exception and its coordinates.

Trial streams are derived from ``(seed, check id, dim, trial index)`` so runs
are reproducible, trials are independent, and the coordinates of a trial
alone replay it.
"""

from __future__ import annotations

import math
import numbers
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import divergences as dv
from . import ensembles as en
from . import frechet as fr
from . import linalg as la
from .io import state_to_dict


# ---------------------------------------------------------------------------
# Random input builders
# ---------------------------------------------------------------------------


def _rand_herm(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = la._complex_gaussian(rng, (dim, dim))
    return scale * (g + g.conj().T) / 2.0


def _rand_psd(rng: np.random.Generator, dim: int, scale: float | None = None) -> np.ndarray:
    g = la._complex_gaussian(rng, (dim, dim))
    p = g @ g.conj().T / dim
    if scale is None:
        scale = rng.uniform(0.2, 2.0)
    return scale * p / max(1.0, float(np.trace(p).real))


def _rand_pd(rng: np.random.Generator, dim: int, floor: float = 0.05) -> np.ndarray:
    p = _rand_psd(rng, dim, scale=1.0)
    return p + floor * np.eye(dim)


def _rand_conditioned_state(rng: np.random.Generator, dim: int, mix: float = 0.05) -> np.ndarray:
    # identity admixture keeps finite-difference oracles well conditioned
    return (1.0 - mix) * la.random_state(dim, rng).mat + mix * np.eye(dim) / dim


def _rand_alpha(rng: np.random.Generator, lo: float = 0.02, hi: float = 0.98) -> float:
    return float(rng.uniform(lo, hi))


def _orthogonal_pair(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    if dim < 2:
        dim = 2
    u = la.random_unitary(dim, rng)
    split = int(rng.integers(1, dim))
    left, right = u[:, :split], u[:, split:]
    wl = rng.dirichlet(np.ones(split))
    wr = rng.dirichlet(np.ones(dim - split))
    return (left * wl) @ left.conj().T, (right * wr) @ right.conj().T


def _rand_ensemble(rng: np.random.Generator, dim: int, n: int) -> en.Ensemble:
    w = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    w /= w.sum()
    return en.Ensemble(w, [la.random_state(dim, rng) for _ in range(n)])


def _rand_experiment(
    rng: np.random.Generator, dim: int, conditioned: bool = False
) -> en.MixingExperiment:
    p = float(rng.uniform(0.05, 0.95))
    if conditioned:
        states = [
            la.DensityMatrix.from_matrix(_rand_conditioned_state(rng, dim, 0.1))
            for _ in range(2)
        ]
    else:
        states = [la.random_state(dim, rng) for _ in range(2)]
    ens = en.Ensemble((p, 1.0 - p), states)
    h1 = la.random_hamiltonian(dim, rng)
    h2 = la.random_hamiltonian(dim, rng)
    return en.MixingExperiment(ens, h1, h2, float(rng.uniform(0.0, 1.0)))


# The inputs of one trial, by reference: its matrices and its named scalars.
Inputs = tuple[tuple, dict]
# One trial's draw: the judge's arguments and the trial's inputs.
Draw = tuple[tuple, Inputs]


def _inputs(*mats: la.OperatorLike, **extra) -> Inputs:
    return mats, extra


def _states_payload(inputs: Inputs) -> dict:
    """Report form of a trial's inputs: matrices as qsd-state-v1 objects."""
    mats, extra = inputs
    payload = {"states": [state_to_dict(m) for m in mats]} if mats else {}
    payload.update(extra)
    return payload


def _least(*slacks) -> np.ndarray:
    """Per-trial minimum of several slacks (a NaN stays NaN)."""
    return np.min(np.broadcast_arrays(*slacks), axis=0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

Outcome = tuple[float, Inputs]


@dataclass(frozen=True)
class CheckDef:
    """A registered check: ``judge`` maps the stacked arguments of ``draw``'s
    trials to their slacks; without a judge, ``draw`` is a plain check
    ``(rng, dim) -> (slack, inputs)``."""

    check_id: str
    label: str
    suite: str
    tol: float
    draw: Callable[[np.random.Generator, int], Draw | Outcome]
    judge: Callable[..., np.ndarray] | None = None


# The suite each check-id prefix names.
_SUITE_OF_PREFIX = {"core": "core", "div": "div", "fre": "frechet", "ens": "ensemble", "sim": "sim"}
SUITES = tuple(_SUITE_OF_PREFIX.values())

_REGISTERED: list[CheckDef] = []


def _check(check_id: str, tol: float, label: str, draw=None):
    """Register a check in the suite its id prefix names: with ``draw``, the
    decorated function is the judge of the trials ``draw`` makes; without
    it, a plain check. An unknown prefix raises ``ValueError``."""
    prefix = check_id.split(".", 1)[0]
    if prefix not in _SUITE_OF_PREFIX:
        raise ValueError(
            f"check {check_id!r}: unknown prefix {prefix!r}; choose from {tuple(_SUITE_OF_PREFIX)}"
        )

    def register(fn):
        stages = (fn,) if draw is None else (draw, fn)
        _REGISTERED.append(CheckDef(check_id, label, _SUITE_OF_PREFIX[prefix], tol, *stages))
        return fn

    return register


# ---------------------------------------------------------------------------
# Checks: a draw and the judge registered with it, or a plain check
# ---------------------------------------------------------------------------


@_check(
    "core.eigh_reconstruction",
    0.0,
    "eigendecomposition reconstructs A within 1e-12 max(1, ||A||_F), unitary basis, ascending eigenvalues",
)
def _chk_eigh_reconstruction(rng, dim) -> Outcome:
    a = _rand_herm(rng, dim, scale=float(rng.uniform(0.1, 3.0)))
    dec = la.eigendecompose(a)
    fro = float(np.linalg.norm(a))
    resid = float(np.linalg.norm(dec.reconstruct() - la._as_matrix(a)))
    unit = float(
        np.linalg.norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(dim))
    )
    ascending = 0.0 if np.all(np.diff(dec.eigenvalues) >= 0.0) else -1.0
    slack = min(
        1e-12 * max(1.0, fro) - resid,
        1e-12 * dim - unit,
        ascending,
    )
    return slack, _inputs(a)


@_check(
    "core.spectral_fn_identity",
    0.0,
    "spectral calculus with the identity function returns the input within 1e-12",
)
def _chk_spectral_fn_identity(rng, dim) -> Outcome:
    a = _rand_herm(rng, dim)
    out = la.spectral_fn(a, lambda w: w).mat
    resid = float(np.abs(out - a).max())
    slack = 1e-12 * max(1.0, float(np.abs(a).max())) - resid
    return slack, _inputs(a)


@_check(
    "core.trace_norm_axioms",
    1e-10,
    "trace norm satisfies the triangle inequality and absolute homogeneity",
)
def _chk_trace_norm_axioms(rng, dim) -> Outcome:
    x = _rand_herm(rng, dim)
    y = _rand_herm(rng, dim)
    c = float(rng.uniform(-3.0, 3.0))
    triangle = la.trace_norm(x) + la.trace_norm(y) - la.trace_norm(x + y)
    homog = -abs(la.trace_norm(c * x) - abs(c) * la.trace_norm(x))
    slack = min(triangle, homog)
    return slack, _inputs(x, y, c=c)


@_check(
    "core.random_state_invariants",
    0.0,
    "random states are PSD with unit trace and deterministic per seed",
)
def _chk_random_state_invariants(rng, dim) -> Outcome:
    seed = int(rng.integers(0, 2**63 - 1))
    s1 = la.random_state(dim, np.random.default_rng(seed))
    s2 = la.random_state(dim, np.random.default_rng(seed))
    deterministic = 0.0 if np.array_equal(s1.mat, s2.mat) else -1.0
    w = np.linalg.eigvalsh(s1.mat)
    slack = min(
        1e-12 - abs(s1.trace() - 1.0),
        float(w[0]) + 1e-10,
        deterministic,
    )
    return slack, _inputs(s1, seed=seed)


@_check(
    "core.random_cptp_contract",
    0.0,
    "random Kraus sets are complete and map states to states (trace, PSD within 1e-10)",
)
def _chk_random_cptp_contract(rng, dim) -> Outcome:
    env = int(rng.integers(1, 4))
    kraus = la.random_cptp(dim, env, rng)
    completeness = sum(k.conj().T @ k for k in kraus)
    comp_err = float(np.abs(completeness - np.eye(dim)).max())
    rho = la.random_state(dim, rng)
    out = sum(k @ rho.mat @ k.conj().T for k in kraus)
    trace_err = abs(float(np.trace(out).real) - 1.0)
    min_eig = float(np.linalg.eigvalsh(out)[0])
    slack = min(1e-10 - comp_err, 1e-10 - trace_err, min_eig + 1e-10)
    return slack, _inputs(rho, env=env)


_RANGE_ALPHAS = (0.01, 0.1, 0.5, 0.9, 0.99)


def _draw_state_pair(rng, dim) -> Draw:
    rho, sig = la.random_state(dim, rng), la.random_state(dim, rng)
    alpha = _rand_alpha(rng)
    return (rho.mat, sig.mat, alpha), _inputs(rho, sig, alpha=alpha)


def _draw_sd_range(rng, dim) -> Draw:
    rho, sig = la.random_state(dim, rng), la.random_state(dim, rng)
    alpha = _RANGE_ALPHAS[int(rng.integers(0, len(_RANGE_ALPHAS)))]
    return (rho.mat, sig.mat, alpha), _inputs(rho, sig, alpha=alpha)


@_check("div.sd_range", 1e-9, "skew divergence of states lies in [0, 1]", _draw_sd_range)
def _judge_sd_range(rho, sig, alpha):
    v = dv.skew_divergence(rho, sig, alpha)
    return np.minimum(v, 1.0 - v)


def _draw_sd_orthogonality(rng, dim) -> Draw:
    rho_o, sig_o = _orthogonal_pair(rng, dim)
    alpha = (0.01, 0.5, 0.99)[int(rng.integers(0, 3))]
    # constructed overlapping pair: a 1% identity admixture caps the trace
    # distance at 0.99, so the skew divergence must sit below 1 - 1e-2
    eye = np.eye(dim) / dim
    rho = 0.99 * la.random_state(dim, rng).mat + 0.01 * eye
    sig = 0.99 * la.random_state(dim, rng).mat + 0.01 * eye
    return (rho_o, sig_o, rho, sig, alpha), _inputs(rho_o, sig_o, alpha=alpha)


@_check(
    "div.sd_orthogonality",
    1e-9,
    "skew divergence equals 1 exactly on orthogonal pairs and stays below 1 on overlapping pairs",
    _draw_sd_orthogonality,
)
def _judge_sd_orthogonality(rho_o, sig_o, rho, sig, alpha):
    v = dv.skew_divergence(rho_o, sig_o, alpha)
    overlap = la._trace(rho_o @ sig_o)
    v_mixed = dv.skew_divergence(rho, sig, alpha)
    return _least(-np.abs(1.0 - v), 1e-9 - overlap, (1.0 - 1e-2) - v_mixed)


def _draw_sd_scaling(rng, dim) -> Draw:
    x = _rand_psd(rng, dim)
    y = _rand_psd(rng, dim)
    b, c = float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 2.0))
    alpha = _rand_alpha(rng)
    return (x, y, b, c, alpha), _inputs(x, y, b=b, c=c, alpha=alpha)


@_check(
    "div.sd_scaling",
    1e-9,
    "scaling identities: SD_a(bX||bY) = b SD_a(X||Y) and SD_a(bX||cX) = SD_a(b|c) trace X",
    _draw_sd_scaling,
)
def _judge_sd_scaling(x, y, b, c, alpha):
    bx, by, cx = (s[:, None, None] * m for s, m in ((b, x), (b, y), (c, x)))
    r1 = dv.skew_divergence(bx, by, alpha) - b * dv.skew_divergence(x, y, alpha)
    r2 = dv.skew_divergence(bx, cx, alpha) - dv.scalar_skew_divergence(b, c, alpha) * la._trace(x)
    return -np.maximum(np.abs(r1), np.abs(r2))


def _draw_sd_unitary_invariance(rng, dim) -> Draw:
    rho, sig = la.random_state(dim, rng), la.random_state(dim, rng)
    u = la.random_unitary(dim, rng)
    alpha = _rand_alpha(rng)
    return (rho.mat, sig.mat, u, alpha), _inputs(rho, sig, alpha=alpha)


@_check(
    "div.sd_unitary_invariance",
    1e-9,
    "skew divergence is invariant under joint unitary conjugation",
    _draw_sd_unitary_invariance,
)
def _judge_sd_unitary_invariance(rho, sig, u, alpha):
    uh = la._adjoint(u)
    moved = dv.skew_divergence(u @ rho @ uh, u @ sig @ uh, alpha)
    return -np.abs(moved - dv.skew_divergence(rho, sig, alpha))


def _draw_channel_pair(rng, dim) -> Draw:
    """A pair of states, a skew and the pair's images under a random channel."""
    rho, sig = la.random_state(dim, rng), la.random_state(dim, rng)
    alpha = _rand_alpha(rng)
    kraus = la.random_cptp(dim, int(rng.integers(1, 4)), rng)
    moved = (dv.apply_channel(kraus, rho).mat, dv.apply_channel(kraus, sig).mat)
    return (rho.mat, sig.mat, *moved, alpha), _inputs(rho, sig, alpha=alpha)


@_check(
    "div.sd_contractivity", 1e-8, "skew divergence contracts under CPTP maps", _draw_channel_pair
)
def _judge_sd_contractivity(rho, sig, rho_out, sig_out, alpha):
    return dv.skew_divergence(rho, sig, alpha) - dv.skew_divergence(rho_out, sig_out, alpha)


def _draw_sd_joint_convexity(rng, dim) -> Draw:
    alpha = _rand_alpha(rng)
    w = rng.dirichlet(np.ones(3))
    rhos = [la.random_state(dim, rng) for _ in range(3)]
    sigs = [la.random_state(dim, rng) for _ in range(3)]
    args = (np.stack([r.mat for r in rhos]), np.stack([s.mat for s in sigs]), w, alpha)
    return args, _inputs(*rhos, *sigs, alpha=alpha)


@_check(
    "div.sd_joint_convexity",
    1e-8,
    "skew divergence is jointly convex over 3-term mixtures",
    _draw_sd_joint_convexity,
)
def _judge_sd_joint_convexity(rhos, sigs, w, alpha):
    n, terms, dim = rhos.shape[:3]
    mix_r = (w[..., None, None] * rhos).sum(axis=1)
    mix_s = (w[..., None, None] * sigs).sum(axis=1)
    each = dv.skew_divergence(
        rhos.reshape(-1, dim, dim), sigs.reshape(-1, dim, dim), np.repeat(alpha, terms)
    )
    rhs = (w * each.reshape(n, terms)).sum(axis=1)
    return rhs - dv.skew_divergence(mix_r, mix_s, alpha)


def _draw_sd_trace_norm_sandwich(rng, dim) -> Draw:
    (rho, sig, alpha), inputs = _draw_state_pair(rng, dim)
    # tightness family diag(t,0,1-t) vs diag(0,t,1-t): SD equals t (at 1e-9)
    tf = float(rng.choice(np.arange(0.1, 0.95, 0.1)))
    af = (0.1, 0.5, 0.9)[int(rng.integers(0, 3))]
    fam_r = np.diag([tf, 0.0, 1.0 - tf]).astype(complex)
    fam_s = np.diag([0.0, tf, 1.0 - tf]).astype(complex)
    return (rho, sig, alpha, fam_r, fam_s, tf, af), inputs


@_check(
    "div.sd_trace_norm_sandwich",
    1e-8,
    "2(1-a)^2/(-log a) T^2 <= SD_a <= T, with equality SD_a = t on the diag(t,0,1-t) family",
    _draw_sd_trace_norm_sandwich,
)
def _judge_sd_trace_norm_sandwich(rho, sig, alpha, fam_r, fam_s, tf, af):
    t = dv.trace_distance(rho, sig)
    v = dv.skew_divergence(rho, sig, alpha)
    lower = 2.0 * (1.0 - alpha) ** 2 / (-np.log(alpha)) * t * t
    fam_resid = np.abs(dv.skew_divergence(fam_r, fam_s, af) - tf)
    return _least(v - lower, t - v, -fam_resid * 10.0)  # family pinned at 1e-9


@_check(
    "div.skewed_re_bound", 1e-9, "S(rho || a rho + (1-a) sigma) <= -log a", _draw_state_pair
)
def _judge_skewed_re_bound(rho, sig, alpha):
    return -np.log(alpha) - dv.relative_entropy(rho, la._skewed_mixture(rho, sig, alpha)).value


def _draw_states(rng, dim) -> Draw:
    rho, sig = la.random_state(dim, rng), la.random_state(dim, rng)
    return (rho.mat, sig.mat), _inputs(rho, sig)


@_check(
    "div.fidelity_trace_distance",
    1e-8,
    "trace distance is bounded by sqrt(1 - F^2)",
    _draw_states,
)
def _judge_fidelity_trace_distance(rho, sig):
    f = dv.fidelity(rho, sig)
    return np.sqrt(np.maximum(0.0, 1.0 - f * f)) - dv.trace_distance(rho, sig)


@_check(
    "fre.t_order_preserving",
    1e-9,
    "the log derivative map preserves the PSD order: X <= Y implies T_A(X) <= T_A(Y)",
)
def _chk_t_order_preserving(rng, dim) -> Outcome:
    a = _rand_pd(rng, dim)
    d = _rand_psd(rng, dim)  # d = Y - X for X <= Y
    slack = float(np.linalg.eigvalsh(fr.frechet_log(a, d).mat)[0])
    return slack, _inputs(a, d)


@_check("fre.t_sum_bound", 1e-9, "T_{A+B}(A) <= id for PSD A, B")
def _chk_t_sum_bound(rng, dim) -> Outcome:
    a, b = _rand_psd(rng, dim), _rand_psd(rng, dim)
    top = float(np.linalg.eigvalsh(fr.frechet_log(a + b, a).mat)[-1])
    slack = 1.0 - top
    return slack, _inputs(a, b)


@_check("fre.r_sum_bound", 1e-9, "R_{A+B}(A) <= id for PSD A, B")
def _chk_r_sum_bound(rng, dim) -> Outcome:
    a, b = _rand_psd(rng, dim), _rand_psd(rng, dim)
    top = float(np.linalg.eigvalsh(fr.second_frechet_log(a + b, a).mat)[-1])
    slack = 1.0 - top
    return slack, _inputs(a, b)


@_check("fre.r_reduces_to_t", 1e-8, "the bilinear second derivative satisfies R_A(A, D) = T_A(D)")
def _chk_r_reduces_to_t(rng, dim) -> Outcome:
    a = _rand_pd(rng, dim)
    d = _rand_herm(rng, dim)
    resid = float(
        np.linalg.norm(fr.second_frechet_log(a, a, d).mat - fr.frechet_log(a, d).mat)
    )
    slack = -resid
    return slack, _inputs(a, d)


@_check(
    "fre.metric_difference",
    1e-8,
    "0 <= M_{A+B}(A,A) - M_{A+B+C}(A,A) <= a - a^2/(a+c) with a = tr A, c = tr C",
)
def _chk_metric_difference(rng, dim) -> Outcome:
    a, b, c = (_rand_psd(rng, dim) for _ in range(3))
    m1 = fr.metric_M(a + b, a, a).real
    m2 = fr.metric_M(a + b + c, a, a).real
    diff = m1 - m2
    ta, tc = float(np.trace(a).real), float(np.trace(c).real)
    upper = ta - ta * ta / (ta + tc)
    slack = min(diff, upper - diff)
    return slack, _inputs(a, b, c)


@_check(
    "fre.quadrature_match",
    1e-6,
    "divided-difference log derivative matches the integral-representation quadrature",
)
def _chk_quadrature_match(rng, dim) -> Outcome:
    cond = 10.0 ** rng.uniform(0.0, 4.0)
    v = la.random_unitary(dim, rng)
    lam = np.exp(rng.uniform(math.log(1.0 / cond), 0.0, dim))
    if dim >= 2 and rng.uniform() < 0.5:
        lam[1] = lam[0]  # exercise the confluent divided-difference branch
    a = (v * lam) @ v.conj().T
    d = _rand_herm(rng, dim)
    dd = fr.frechet_log(a, d).mat
    quad = fr.frechet_log_quadrature(a, d).mat
    rel = float(np.linalg.norm(quad - dd)) / max(1.0, float(np.linalg.norm(dd)))
    slack = -rel
    return slack, _inputs(a, d)


@_check(
    "fre.finite_difference_match",
    1e-6,
    "log derivative matches the central difference (log(A+hD)-log(A-hD))/2h at h=1e-5",
)
def _chk_finite_difference_match(rng, dim) -> Outcome:
    a = _rand_pd(rng, dim, floor=0.2)
    d = _rand_herm(rng, dim)
    dd = fr.frechet_log(a, d).mat
    fd = fr.frechet_log_central_diff(a, d, h=1e-5, order=2).mat
    rel = float(np.linalg.norm(fd - dd)) / max(1.0, float(np.linalg.norm(dd)))
    slack = -rel
    return slack, _inputs(a, d)


def _draw_psd_pair(rng, dim) -> Draw:
    a = _rand_psd(rng, dim)
    b = _rand_psd(rng, dim)
    alpha = _rand_alpha(rng)
    return (a, b, alpha), _inputs(a, b, alpha=alpha)


@_check(
    "fre.dsd_symmetry",
    1e-10,
    "differential skew divergence satisfies D_a(A||B) = D_{1-a}(B||A)",
    _draw_psd_pair,
)
def _judge_dsd_symmetry(a, b, alpha):
    op_dsd = fr.differential_skew_divergence
    return -np.abs(op_dsd(a, b, alpha) - op_dsd(b, a, 1.0 - alpha))


def _draw_dsd_derivative(rng, dim) -> Draw:
    a = _rand_conditioned_state(rng, dim)
    b = _rand_conditioned_state(rng, dim)
    alpha = _rand_alpha(rng, 0.1, 0.9)
    return (a, b, alpha), _inputs(a, b, alpha=alpha)


@_check(
    "fre.dsd_derivative",
    1e-6,
    "differential skew divergence equals -a d/da of the skewed relative entropy",
    _draw_dsd_derivative,
)
def _judge_dsd_derivative(a, b, alpha):
    h = 1e-5
    v = fr.differential_skew_divergence(a, b, alpha)
    up, down = (
        dv.relative_entropy(a, la._skewed_mixture(a, b, x)).value for x in (alpha + h, alpha - h)
    )
    return -np.abs(v + alpha * (up - down) / (2.0 * h))


@_check("fre.dsd_bounds", 1e-8, "4a(1-a) T^2 <= D_a(rho||sigma) <= T", _draw_state_pair)
def _judge_dsd_bounds(rho, sig, alpha):
    t = dv.trace_distance(rho, sig)
    v = fr.differential_skew_divergence(rho, sig, alpha)
    return _least(v - 4.0 * alpha * (1.0 - alpha) * t * t, t - v)


@_check(
    "fre.dsd_contractivity",
    1e-8,
    "differential skew divergence contracts under CPTP maps",
    _draw_channel_pair,
)
def _judge_dsd_contractivity(rho, sig, rho_out, sig_out, alpha):
    op_dsd = fr.differential_skew_divergence
    return op_dsd(rho, sig, alpha) - op_dsd(rho_out, sig_out, alpha)


@_check(
    "fre.chi2_relation",
    1e-8,
    "D_a(A||B) = a/(1-a) chi2_log(A, aA+(1-a)B) and chi2_log >= ||rho-sigma||_1^2",
    _draw_state_pair,
)
def _judge_chi2_relation(rho, sig, alpha):
    lhs = fr.differential_skew_divergence(rho, sig, alpha)
    rhs = alpha / (1.0 - alpha) * fr.chi2_log(rho, la._skewed_mixture(rho, sig, alpha))
    tn = 2.0 * dv.trace_distance(rho, sig)
    chi2_lb = fr.chi2_log(rho, sig) - tn * tn
    return _least(-np.abs(lhs - rhs) * 10.0, chi2_lb)  # relation pinned at 1e-9


@_check(
    "fre.averaging_match",
    1e-6,
    "averaging the differential version over -log a' reconstructs the skew divergence",
)
def _chk_averaging_match(rng, dim) -> Outcome:
    rho, sig = la.random_state(dim, rng), la.random_state(dim, rng)
    alpha = _rand_alpha(rng, 0.05, 0.95)
    direct = dv.skew_divergence(rho, sig, alpha)
    averaged = fr.sd_by_averaging(rho, sig, alpha, refine=False)
    slack = -abs(direct - averaged)
    return slack, _inputs(rho, sig, alpha=alpha)


@_check(
    "fre.metric_epsilon_limit",
    1e-6,
    "M_{B+eps C}(A,A) approaches the support-restricted metric monotonically as eps -> 0",
)
def _chk_metric_epsilon_limit(rng, dim) -> Outcome:
    if dim < 2:
        dim = 2
    rank = int(rng.integers(1, dim))
    u = la.random_unitary(dim, rng)
    # the residual gap at the last eps scales like eps * ||C|| / lambda_min(B)^2,
    # so keep B well conditioned on its support and C of unit norm
    wb = rng.uniform(0.5, 1.0, rank)
    b = (u[:, :rank] * wb) @ u[:, :rank].conj().T
    wa = rng.uniform(0.1, 1.0, rank)
    a = (u[:, :rank] * wa) @ u[:, :rank].conj().T
    c = _rand_psd(rng, dim) + u[:, rank:] @ u[:, rank:].conj().T
    c /= la.operator_norm(c)
    rec = fr.metric_epsilon_limit_check(a, b, c)
    slack = -abs(rec.final_gap) if rec.monotone else -1.0
    return slack, _inputs(a, b, c)


@_check(
    "ens.chi_three_ways",
    1e-9,
    "Holevo information agrees across entropy, relative-entropy and skew-divergence forms",
)
def _chk_chi_three_ways(rng, dim) -> Outcome:
    n = int(rng.integers(2, 5))
    ens = _rand_ensemble(rng, dim, n)
    chi = en.holevo_chi(ens)
    r1 = chi - en.holevo_chi_relative_entropy_form(ens)
    r2 = chi - en.holevo_chi_skew_divergence_form(ens)
    slack = -max(abs(r1), abs(r2))
    return slack, _inputs(*ens.states, weights=list(ens.weights))


@_check(
    "ens.chi_bound_chain",
    1e-8,
    "chi <= sum -p log p T(rho_i, rhobar_i) <= pairwise bound <= H(p) max t_ij, monotonically",
)
def _chk_chi_bound_chain(rng, dim) -> Outcome:
    n = int(rng.integers(2, 5))
    ens = _rand_ensemble(rng, dim, n)
    rec = en.chi_upper_bounds(ens)
    slack = min(
        rec.complementary_bound - rec.chi,
        rec.pairwise_bound - rec.complementary_bound,
        rec.entropy_times_t - rec.pairwise_bound,
    )
    return slack, _inputs(*ens.states, weights=list(ens.weights))


@_check(
    "ens.chi_roga_binary",
    1e-8,
    "binary fidelity-surrogate entropy bound dominates chi and undercuts H(p) sqrt(1-F^2)",
)
def _chk_chi_roga_binary(rng, dim) -> Outcome:
    ens = _rand_ensemble(rng, dim, 2)
    rec = en.chi_upper_bounds(ens)
    f = dv.fidelity(ens.states[0], ens.states[1])
    fidelity_surrogate = dv.shannon_entropy(ens.weights) * math.sqrt(
        max(0.0, 1.0 - f * f)
    )
    slack = min(rec.roga_bound - rec.chi, fidelity_surrogate - rec.roga_bound)
    return slack, _inputs(*ens.states, weights=list(ens.weights))


@_check(
    "ens.chi_continuity",
    1e-8,
    "|chi(E) - chi(E')| <= weighted bound <= t log(1+(n-1)/t) + log(1+(n-1)t); complementary distances bounded",
)
def _chk_chi_continuity(rng, dim) -> Outcome:
    n = int(rng.integers(2, 5))
    ens = _rand_ensemble(rng, dim, n)
    mix = rng.uniform(0.0, 0.4)
    others = [
        la.DensityMatrix.from_matrix(
            (1.0 - mix) * s.mat + mix * la.random_state(dim, rng).mat
        )
        for s in ens.states
    ]
    other = en.Ensemble(ens.weights, others)
    rec = en.chi_continuity_bound(ens, other)
    slacks = [
        rec.weighted_bound - rec.delta_chi,
        rec.dimension_free_bound - rec.weighted_bound,
    ]
    # complementary distances obey t-bar_i <= max_{j != i} t_j at 1e-12:
    # 1e4 is the check's pinned 1e-8 over that 1e-12
    t = np.array(rec.member_distances)
    others_max = np.where(np.eye(t.size, dtype=bool), -np.inf, t).max(axis=1)
    slacks.extend((others_max - rec.complementary_distances) * 1e4)
    slack = float(min(slacks))
    return slack, _inputs(*ens.states, weights=list(ens.weights))


def _draw_psd_triple(rng, dim) -> Draw:
    a, b, c = (_rand_psd(rng, dim) for _ in range(3))
    alpha = _rand_alpha(rng)
    return (a, b, c, alpha), _inputs(a, b, c, alpha=alpha)


@_check(
    "ens.rbts_family",
    1e-8,
    "two-sided scalar bounds on SD_a(A||A+B) - SD_a(A||A+B+C) and the shifted variant, for SD and S",
    _draw_psd_triple,
)
def _judge_rbts_family(a, b, c, alpha):
    ta, tc = la._trace(a), la._trace(c)
    ab, abc = a + b, a + b + c
    op_sd, op_re = dv.skew_divergence, lambda x, y: dv.relative_entropy(x, y).value
    d_sd = op_sd(a, ab, alpha) - op_sd(a, abc, alpha)
    d_s = op_re(a, ab) - op_re(a, abc)
    e_sd = op_sd(b, ab, alpha) - op_sd(b + c, abc, alpha)
    e_s = op_re(b, ab) - op_re(b + c, abc)
    sd, re = dv.scalar_skew_divergence, dv.scalar_relative_entropy
    return _least(
        d_sd + sd(0.0, tc, alpha),
        -sd(ta, ta + tc, alpha) - d_sd,
        d_s + re(0.0, tc),
        -re(ta, ta + tc) - d_s,
        e_sd,
        sd(0.0, ta, alpha) - sd(tc, ta + tc, alpha) - e_sd,
        e_s,
        re(0.0, ta) - re(tc, ta + tc) - e_s,
    )


@_check(
    "ens.dsd_difference_bounds",
    1e-8,
    "two-sided scalar bounds on D_a(A||B) - D_a(A||B+C) and the shifted variant",
    _draw_psd_triple,
)
def _judge_dsd_difference_bounds(a, b, c, alpha):
    ta, tc = la._trace(a), la._trace(c)
    op_dsd = fr.differential_skew_divergence
    d1 = op_dsd(a, b, alpha) - op_dsd(a, b + c, alpha)
    d2 = op_dsd(b, a + b, alpha) - op_dsd(b + c, a + b + c, alpha)
    dsd = fr.scalar_differential_sd
    return _least(
        d1 + dsd(0.0, tc, alpha),
        dsd(ta, 0.0, alpha) - dsd(ta, tc, alpha) - d1,
        d2,
        dsd(0.0, ta, alpha) - dsd(tc, ta + tc, alpha) - d2,
    )


def _triangle_rhs(f, alpha, t, swap: bool = False):
    """``f(1, 0) - f(1, t) + f(0, t)`` at skew ``alpha``, with the two scalar
    arguments of ``f`` swapped when ``swap``; 0 at ``t = 0``. An array of the
    value at each entry of ``t``, 0-d for a float ``t``."""
    t = np.asarray(t, dtype=np.float64)
    s = np.where(t == 0.0, 1.0, t)  # f(0, 0) is undefined; the t = 0 entries are 0
    g = (lambda x, y: f(y, x, alpha)) if swap else (lambda x, y: f(x, y, alpha))
    return np.where(t == 0.0, 0.0, g(1.0, 0.0) - g(1.0, s) + g(0.0, s))


def _draw_triangle_family(rng, dim) -> Draw:
    rho, s1, s2 = (la.random_state(dim, rng) for _ in range(3))
    alpha = _rand_alpha(rng)
    return (rho.mat, s1.mat, s2.mat, alpha), _inputs(rho, s1, s2, alpha=alpha)


@_check(
    "ens.triangle_family",
    1e-8,
    "perturbing either argument moves SD_a and D_a by at most the scalar three-term bound",
    _draw_triangle_family,
)
def _judge_triangle_family(rho, s1, s2, alpha):
    t = dv.trace_distance(s1, s2)
    slacks = []
    for op, scalar in (
        (dv.skew_divergence, dv.scalar_skew_divergence),
        (fr.differential_skew_divergence, fr.scalar_differential_sd),
    ):
        second = np.abs(op(rho, s1, alpha) - op(rho, s2, alpha))  # the second argument moves
        first = np.abs(op(s1, rho, alpha) - op(s2, rho, alpha))
        slacks.append(_triangle_rhs(scalar, alpha, t) - second)
        slacks.append(_triangle_rhs(scalar, alpha, t, True) - first)
    return _least(*slacks)


def _draw_triangle_equality(rng, dim) -> Draw:
    if dim < 2:
        dim = 2
    u = la.random_unitary(dim, rng)
    rho = np.outer(u[:, 0], u[:, 0].conj())
    w = rng.dirichlet(np.ones(dim - 1))
    s1 = (u[:, 1:] * w) @ u[:, 1:].conj().T
    t = float(rng.uniform(0.05, 0.95))
    s2 = t * rho + (1.0 - t) * s1
    alpha = _rand_alpha(rng, 0.05, 0.95)
    return (rho, s1, s2, alpha, t), _inputs(rho, s1, alpha=alpha, t=t)


@_check(
    "ens.triangle_equality",
    1e-9,
    "the first-argument continuity bound is attained at rho orthogonal to sigma1, sigma2 = t rho + (1-t) sigma1",
    _draw_triangle_equality,
)
def _judge_triangle_equality(rho, s1, s2, alpha, t):
    lhs = np.abs(dv.skew_divergence(rho, s1, alpha) - dv.skew_divergence(rho, s2, alpha))
    return -np.abs(lhs - _triangle_rhs(dv.scalar_skew_divergence, alpha, t))


@_check(
    "ens.triangle_rhs_shape",
    1e-10,
    "the continuity bound is nondecreasing and midpoint-concave in t on {0.01..0.99}",
)
def _chk_triangle_rhs_shape(rng, dim) -> Outcome:
    alpha = _rand_alpha(rng)
    grid = np.arange(0.01, 0.995, 0.01)
    g = _triangle_rhs(dv.scalar_skew_divergence, alpha, grid)
    monotone = float(np.diff(g).min())
    concave = float((g[1:-1] - (g[:-2] + g[2:]) / 2.0).min())
    slack = min(monotone, concave)
    return slack, _inputs(alpha=alpha)


@_check("sim.evolution_distance", 1e-8, "T(U(t) rho U*(t), rho) <= t ||H||")
def _chk_evolution_distance(rng, dim) -> Outcome:
    rho = la.random_state(dim, rng)
    h = la.random_hamiltonian(dim, rng)
    t = float(rng.uniform(0.0, 2.0))
    moved = en.evolve(rho, h, t)
    slack = t * la.operator_norm(h) - dv.trace_distance(moved, rho)
    return slack, _inputs(rho, h, t=t)


@_check(
    "sim.mixing_rate_fd",
    1e-5,
    "analytic mixing rate matches the entropy central difference at h=1e-5",
)
def _chk_mixing_rate_fd(rng, dim) -> Outcome:
    exp = _rand_experiment(rng, dim, conditioned=True)
    rate = en.mixing_rate(exp)
    h = 1e-5

    def entropy_at(t: float) -> float:
        acc = sum(
            p * en.evolve(s, ham, t).mat
            for p, s, ham in zip(
                exp.ensemble.weights, exp.ensemble.states, (exp.h1, exp.h2)
            )
        )
        return dv.von_neumann_entropy(acc)

    fd = (entropy_at(exp.time + h) - entropy_at(exp.time - h)) / (2.0 * h)
    slack = -abs(rate - fd)
    return slack, _inputs(*exp.ensemble.states, t=exp.time)


@_check(
    "sim.svsd_identity",
    1e-8,
    "entropy gain of a binary experiment decomposes into weighted skew-divergence increments",
)
def _chk_svsd_identity(rng, dim) -> Outcome:
    exp = _rand_experiment(rng, dim)
    rec = en.sim_bound_check(exp)
    slack = -rec.sd_representation_residual
    return slack, _inputs(*exp.ensemble.states, t=exp.time)


@_check(
    "sim.bravyi_bound",
    1e-8,
    "SD_a(rho||U sigma U*) - SD_a(rho||sigma) <= 2||tH||; differential version <= min(1/a,1/(1-a))||H||",
)
def _chk_bravyi_bound(rng, dim) -> Outcome:
    exp = _rand_experiment(rng, dim)
    rec = en.sim_bound_check(exp)
    slacks = [rec.bravyi_rhs - lhs for lhs in rec.bravyi_lhs]
    # sharper bound min(1/a, 1/(1-a)) ||H|| for the differential version
    rho, sig = la.random_state(dim, rng), la.random_state(dim, rng)
    h = la.random_hamiltonian(dim, rng)
    alpha = (0.1, 0.5, 0.9)[int(rng.integers(0, 3))]
    moved = en.evolve(sig, h, 1.0)
    lhs_d = fr.differential_skew_divergence(
        rho, moved, alpha
    ) - fr.differential_skew_divergence(rho, sig, alpha)
    slacks.append(min(1.0 / alpha, 1.0 / (1.0 - alpha)) * la.operator_norm(h) - lhs_d)
    slack = min(slacks)
    return slack, _inputs(rho, sig, alpha=alpha)


@_check(
    "sim.entropy_gain_bound",
    1e-8,
    "S(rho_0(t)) - S(rho_0) <= 2 t h(p1,p2) ||H|| for binary experiments",
)
def _chk_entropy_gain_bound(rng, dim) -> Outcome:
    exp = _rand_experiment(rng, dim)
    rec = en.sim_bound_check(exp)
    slack = rec.sim_bound - rec.entropy_gain
    return slack, _inputs(*exp.ensemble.states, t=exp.time)


REGISTRY: tuple[CheckDef, ...] = tuple(_REGISTERED)

# One check id per stated library invariant; the registry must cover them all.
REQUIRED_CHECK_IDS = frozenset(
    {
        "core.eigh_reconstruction",
        "core.spectral_fn_identity",
        "core.trace_norm_axioms",
        "core.random_state_invariants",
        "core.random_cptp_contract",
        "div.sd_range",
        "div.sd_orthogonality",
        "div.sd_scaling",
        "div.sd_unitary_invariance",
        "div.sd_contractivity",
        "div.sd_joint_convexity",
        "div.sd_trace_norm_sandwich",
        "div.skewed_re_bound",
        "div.fidelity_trace_distance",
        "fre.t_order_preserving",
        "fre.t_sum_bound",
        "fre.r_sum_bound",
        "fre.r_reduces_to_t",
        "fre.metric_difference",
        "fre.quadrature_match",
        "fre.finite_difference_match",
        "fre.dsd_symmetry",
        "fre.dsd_derivative",
        "fre.dsd_bounds",
        "fre.dsd_contractivity",
        "fre.chi2_relation",
        "fre.averaging_match",
        "fre.metric_epsilon_limit",
        "ens.chi_three_ways",
        "ens.chi_bound_chain",
        "ens.chi_roga_binary",
        "ens.chi_continuity",
        "ens.rbts_family",
        "ens.dsd_difference_bounds",
        "ens.triangle_family",
        "ens.triangle_equality",
        "ens.triangle_rhs_shape",
        "sim.evolution_distance",
        "sim.mixing_rate_fd",
        "sim.svsd_identity",
        "sim.bravyi_bound",
        "sim.entropy_gain_bound",
    }
)


def assert_registry_complete() -> None:
    registered = {c.check_id for c in REGISTRY}
    missing = REQUIRED_CHECK_IDS - registered
    if missing:
        raise RuntimeError(f"verification registry is missing checks: {sorted(missing)}")
    duplicates = len(REGISTRY) - len(registered)
    if duplicates:
        raise RuntimeError("verification registry contains duplicate check ids")


assert_registry_complete()


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


def _trial_rng(seed: int, check_id: str, dim: int, trial: int) -> np.random.Generator:
    key = zlib.crc32(check_id.encode("utf-8"))
    # the generator np.random.default_rng builds, without its argument checks
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key, dim, trial])))


def _raised(exc: Exception, dim: int, trial: int) -> Inputs:
    return _inputs(error=type(exc).__name__, message=str(exc), dim=dim, trial=trial)


def _stages(check: CheckDef) -> tuple[Callable, Callable]:
    """The draw and the judge of a check. A plain check draws its whole
    trial, and its judge passes the slacks through."""
    if check.judge is not None:
        return check.draw, check.judge

    def draw(rng, dim) -> Draw:
        slack, inputs = check.draw(rng, dim)
        return (slack,), inputs

    return draw, lambda slacks: slacks


def _judge_dim(
    check: CheckDef, seed: int, dim: int, trials: int
) -> tuple[list[float], list[Inputs]]:
    """Slack and inputs of each trial of one check at ``dim``.

    Every trial is drawn first, and the drawn trials are judged as one stack.
    A trial whose draw raises gets slack ``-inf`` and an exception record for
    its inputs. When the judge raises on the stack, each trial is judged
    alone, so only the trials that raise get that record.
    """
    draw, judge = _stages(check)
    slacks = [-math.inf] * trials
    inputs: list[Inputs] = []
    drawn, args = [], []
    for k in range(trials):
        try:
            trial_args, trial_inputs = draw(_trial_rng(seed, check.check_id, dim, k), dim)
        except Exception as exc:
            trial_inputs = _raised(exc, dim, k)
        else:
            drawn.append(k)
            args.append(trial_args)
        inputs.append(trial_inputs)
    if not drawn:
        return slacks, inputs
    stacks = [np.stack(column) for column in zip(*args)]
    try:
        judged = [float(x) for x in judge(*stacks)]
        if len(judged) != len(drawn):
            raise ValueError(f"judge returned {len(judged)} slacks for {len(drawn)} trials")
    except Exception:
        judged = []
        for i, k in enumerate(drawn):
            try:
                (slack,) = judge(*(s[i : i + 1] for s in stacks))
                judged.append(float(slack))
            except Exception as exc:
                judged.append(-math.inf)
                inputs[k] = _raised(exc, dim, k)
    for k, slack in zip(drawn, judged):
        slacks[k] = slack
    return slacks, inputs


def _run_check(check: CheckDef, seed: int, dims: tuple[int, ...], trials: int) -> CheckResult:
    """Run ``trials`` trials of one check per dimension at its pinned ``tol``.

    A trial that raises counts as a violation with slack ``-inf``; its inputs
    are the exception and the trial coordinates. The worst trial is the first
    minimum in (dim, trial) order; its inputs enter the result only when it is
    a violation.
    """
    worst = math.inf
    worst_trial = worst_inputs = None
    violations = 0
    for dim in dims:
        slacks, inputs = _judge_dim(check, seed, dim, trials)
        for k, slack in enumerate(slacks):
            if not math.isfinite(slack):
                slack = -math.inf
            if slack < worst:
                worst, worst_trial, worst_inputs = slack, {"dim": dim, "trial": k}, inputs[k]
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
        worst_case_inputs=(
            _states_payload(worst_inputs)
            if worst < -check.tol and worst_inputs is not None
            else None
        ),
    )


def _integral(value) -> bool:
    """Whether ``value`` is an integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    integers (a bool is none of these), and no dimension may repeat: its
    trials would repeat. A trial whose slack is not finite (NaN or
    infinite), or whose check raises, proves nothing and counts as a
    violation.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    if not _integral(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not _integral(seed) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    dims = tuple(dims)
    if not dims or not all(_integral(d) and d >= 1 for d in dims):
        raise ValueError(f"dims must be positive integers, got {dims!r}")
    if len(set(dims)) != len(dims):
        raise ValueError(f"dims must not repeat, got {dims!r}")
    dims, trials = tuple(int(d) for d in dims), int(trials)

    assert_registry_complete()
    selected = [c for c in REGISTRY if suite == "all" or c.suite == suite]
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
