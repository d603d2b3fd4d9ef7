"""Property-verification harness.

Every invariant of the library is registered here as a named check. A check
is a function ``(rng, dim) -> (slack, inputs)`` that runs one randomized
trial. The slack is ``bound - value`` for an inequality (negative means
violated) and ``-|residual|`` for an identity; ``inputs`` refers to the
trial's matrices and scalars. A trial passes when the slack is at least
``-tolerance``. Checks pin the tolerance their property is stated at; the
runner scales all of them proportionally when the caller overrides the
default ``1e-8``.

The runner alone judges trials. A non-finite slack, or a check that raises,
counts as a violation. Of each check it keeps the worst trial and writes that
trial's inputs to the report, as qsd-state-v1 objects, only when the trial is
a violation; a raising trial records the exception and its coordinates.

Trial streams are derived from ``(seed, check id, dim, trial index)`` so runs
are reproducible and trials are independent.
"""

from __future__ import annotations

import math
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

DEFAULT_TOL = 1e-8

SUITES = ("core", "div", "frechet", "ensemble", "sim")


# ---------------------------------------------------------------------------
# Random input builders
# ---------------------------------------------------------------------------


def _rand_herm(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def _rand_psd(rng: np.random.Generator, dim: int, scale: float | None = None) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = g @ g.conj().T / dim
    if scale is None:
        scale = rng.uniform(0.2, 2.0)
    return scale * p / max(1.0, float(np.trace(p).real))


def _rand_pd(rng: np.random.Generator, dim: int, floor: float = 0.05) -> np.ndarray:
    p = _rand_psd(rng, dim, scale=1.0)
    return p + floor * np.eye(dim)


def _rand_state(rng: np.random.Generator, dim: int) -> la.DensityMatrix:
    return la.random_state(dim, rng)


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


def _inputs(*mats: np.ndarray, **extra) -> Inputs:
    return mats, extra


def _states_payload(inputs: Inputs) -> dict:
    """Report form of a trial's inputs: matrices as qsd-state-v1 objects."""
    mats, extra = inputs
    payload = {"states": [state_to_dict(m) for m in mats]} if mats else {}
    payload.update(extra)
    return payload


# ---------------------------------------------------------------------------
# Check implementations: return (slack, inputs)
# ---------------------------------------------------------------------------

Outcome = tuple[float, Inputs]


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


def _chk_spectral_fn_identity(rng, dim) -> Outcome:
    a = _rand_herm(rng, dim)
    out = la.spectral_fn(a, lambda w: w).mat
    resid = float(np.abs(out - a).max())
    slack = 1e-12 * max(1.0, float(np.abs(a).max())) - resid
    return slack, _inputs(a)


def _chk_trace_norm_axioms(rng, dim) -> Outcome:
    x = _rand_herm(rng, dim)
    y = _rand_herm(rng, dim)
    c = float(rng.uniform(-3.0, 3.0))
    triangle = la.trace_norm(x) + la.trace_norm(y) - la.trace_norm(x + y)
    homog = -abs(la.trace_norm(c * x) - abs(c) * la.trace_norm(x))
    slack = min(triangle, homog)
    return slack, _inputs(x, y, c=c)


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
    return slack, _inputs(s1.mat, seed=seed)


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
    return slack, _inputs(rho.mat, env=env)


_RANGE_ALPHAS = (0.01, 0.1, 0.5, 0.9, 0.99)


def _chk_sd_range(rng, dim) -> Outcome:
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    alpha = _RANGE_ALPHAS[int(rng.integers(0, len(_RANGE_ALPHAS)))]
    v = dv.skew_divergence(rho, sig, alpha)
    slack = min(v, 1.0 - v)
    return slack, _inputs(rho.mat, sig.mat, alpha=alpha)


def _chk_sd_orthogonality(rng, dim) -> Outcome:
    rho_o, sig_o = _orthogonal_pair(rng, dim)
    alpha = (0.01, 0.5, 0.99)[int(rng.integers(0, 3))]
    v = dv.skew_divergence(rho_o, sig_o, alpha)
    overlap = float(np.trace(rho_o @ sig_o).real)
    # constructed overlapping pair: a 1% identity admixture caps the trace
    # distance at 0.99, so the skew divergence must sit below 1 - 1e-2
    eye = np.eye(dim) / dim
    rho = 0.99 * _rand_state(rng, dim).mat + 0.01 * eye
    sig = 0.99 * _rand_state(rng, dim).mat + 0.01 * eye
    v_mixed = dv.skew_divergence(rho, sig, alpha)
    slack = min(
        -abs(1.0 - v),
        1e-9 - overlap,
        (1.0 - 1e-2) - v_mixed,
    )
    return slack, _inputs(rho_o, sig_o, alpha=alpha)


def _chk_sd_scaling(rng, dim) -> Outcome:
    x = _rand_psd(rng, dim)
    y = _rand_psd(rng, dim)
    b, c = float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 2.0))
    alpha = _rand_alpha(rng)
    r1 = dv.skew_divergence(b * x, b * y, alpha) - b * dv.skew_divergence(x, y, alpha)
    r2 = dv.skew_divergence(b * x, c * x, alpha) - dv.scalar_skew_divergence(
        b, c, alpha
    ) * float(np.trace(x).real)
    slack = -max(abs(r1), abs(r2))
    return slack, _inputs(x, y, b=b, c=c, alpha=alpha)


def _chk_sd_unitary_invariance(rng, dim) -> Outcome:
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    u = la.random_unitary(dim, rng)
    alpha = _rand_alpha(rng)
    r = dv.skew_divergence(
        u @ rho.mat @ u.conj().T, u @ sig.mat @ u.conj().T, alpha
    ) - dv.skew_divergence(rho, sig, alpha)
    slack = -abs(r)
    return slack, _inputs(rho.mat, sig.mat, alpha=alpha)


def _chk_sd_contractivity(rng, dim) -> Outcome:
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    alpha = _rand_alpha(rng)
    kraus = la.random_cptp(dim, int(rng.integers(1, 4)), rng)
    before = dv.skew_divergence(rho, sig, alpha)
    after = dv.skew_divergence(
        dv.apply_channel(kraus, rho), dv.apply_channel(kraus, sig), alpha
    )
    slack = before - after
    return slack, _inputs(rho.mat, sig.mat, alpha=alpha)


def _chk_sd_joint_convexity(rng, dim) -> Outcome:
    alpha = _rand_alpha(rng)
    w = rng.dirichlet(np.ones(3))
    rhos = [_rand_state(rng, dim).mat for _ in range(3)]
    sigs = [_rand_state(rng, dim).mat for _ in range(3)]
    mix_r = sum(wi * r for wi, r in zip(w, rhos))
    mix_s = sum(wi * s for wi, s in zip(w, sigs))
    rhs = sum(
        wi * dv.skew_divergence(r, s, alpha) for wi, r, s in zip(w, rhos, sigs)
    )
    slack = float(rhs) - dv.skew_divergence(mix_r, mix_s, alpha)
    return slack, _inputs(*rhos, *sigs, alpha=alpha)


def _chk_sd_trace_norm_sandwich(rng, dim) -> Outcome:
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    alpha = _rand_alpha(rng)
    t = dv.trace_distance(rho, sig)
    v = dv.skew_divergence(rho, sig, alpha)
    lower = 2.0 * (1.0 - alpha) ** 2 / (-math.log(alpha)) * t * t
    # tightness family diag(t,0,1-t) vs diag(0,t,1-t): SD equals t (at 1e-9)
    tf = float(rng.choice(np.arange(0.1, 0.95, 0.1)))
    af = (0.1, 0.5, 0.9)[int(rng.integers(0, 3))]
    fam_r = np.diag([tf, 0.0, 1.0 - tf]).astype(complex)
    fam_s = np.diag([0.0, tf, 1.0 - tf]).astype(complex)
    fam_resid = abs(dv.skew_divergence(fam_r, fam_s, af) - tf)
    slack = min(v - lower, t - v, -fam_resid * 10.0)  # family pinned at 1e-9
    return slack, _inputs(rho.mat, sig.mat, alpha=alpha)


def _chk_skewed_re_bound(rng, dim) -> Outcome:
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    alpha = _rand_alpha(rng)
    tau = alpha * rho.mat + (1.0 - alpha) * sig.mat
    s = float(dv.relative_entropy(rho.mat, tau))
    slack = -math.log(alpha) - s
    return slack, _inputs(rho.mat, sig.mat, alpha=alpha)


def _chk_fidelity_trace_distance(rng, dim) -> Outcome:
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    f = dv.fidelity(rho, sig)
    t = dv.trace_distance(rho, sig)
    slack = math.sqrt(max(0.0, 1.0 - f * f)) - t
    return slack, _inputs(rho.mat, sig.mat)


def _chk_t_order_preserving(rng, dim) -> Outcome:
    a = _rand_pd(rng, dim)
    d = _rand_psd(rng, dim)  # d = Y - X for X <= Y
    slack = float(np.linalg.eigvalsh(fr.frechet_log(a, d).mat)[0])
    return slack, _inputs(a, d)


def _chk_t_sum_bound(rng, dim) -> Outcome:
    a, b = _rand_psd(rng, dim), _rand_psd(rng, dim)
    top = float(np.linalg.eigvalsh(fr.frechet_log(a + b, a).mat)[-1])
    slack = 1.0 - top
    return slack, _inputs(a, b)


def _chk_r_sum_bound(rng, dim) -> Outcome:
    a, b = _rand_psd(rng, dim), _rand_psd(rng, dim)
    top = float(np.linalg.eigvalsh(fr.second_frechet_log(a + b, a).mat)[-1])
    slack = 1.0 - top
    return slack, _inputs(a, b)


def _chk_r_reduces_to_t(rng, dim) -> Outcome:
    a = _rand_pd(rng, dim)
    d = _rand_herm(rng, dim)
    resid = float(
        np.linalg.norm(fr.second_frechet_log(a, a, d).mat - fr.frechet_log(a, d).mat)
    )
    slack = -resid
    return slack, _inputs(a, d)


def _chk_metric_difference(rng, dim) -> Outcome:
    a, b, c = (_rand_psd(rng, dim) for _ in range(3))
    m1 = fr.metric_M(a + b, a, a).real
    m2 = fr.metric_M(a + b + c, a, a).real
    diff = m1 - m2
    ta, tc = float(np.trace(a).real), float(np.trace(c).real)
    upper = ta - ta * ta / (ta + tc)
    slack = min(diff, upper - diff)
    return slack, _inputs(a, b, c)


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


def _chk_finite_difference_match(rng, dim) -> Outcome:
    a = _rand_pd(rng, dim, floor=0.2)
    d = _rand_herm(rng, dim)
    dd = fr.frechet_log(a, d).mat
    fd = fr.frechet_log_central_diff(a, d, h=1e-5, order=2).mat
    rel = float(np.linalg.norm(fd - dd)) / max(1.0, float(np.linalg.norm(dd)))
    slack = -rel
    return slack, _inputs(a, d)


def _chk_dsd_symmetry(rng, dim) -> Outcome:
    a = _rand_psd(rng, dim)
    b = _rand_psd(rng, dim)
    alpha = _rand_alpha(rng)
    r = fr.differential_skew_divergence(a, b, alpha) - fr.differential_skew_divergence(
        b, a, 1.0 - alpha
    )
    slack = -abs(r)
    return slack, _inputs(a, b, alpha=alpha)


def _chk_dsd_derivative(rng, dim) -> Outcome:
    a = _rand_conditioned_state(rng, dim)
    b = _rand_conditioned_state(rng, dim)
    alpha = _rand_alpha(rng, 0.1, 0.9)
    h = 1e-5
    v = fr.differential_skew_divergence(a, b, alpha)
    fd = (
        -alpha
        * (
            dv._skewed_relative_entropy(a, b, alpha + h)
            - dv._skewed_relative_entropy(a, b, alpha - h)
        )
        / (2.0 * h)
    )
    slack = -abs(v - fd)
    return slack, _inputs(a, b, alpha=alpha)


def _chk_dsd_bounds(rng, dim) -> Outcome:
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    alpha = _rand_alpha(rng)
    t = dv.trace_distance(rho, sig)
    v = fr.differential_skew_divergence(rho.mat, sig.mat, alpha)
    slack = min(v - 4.0 * alpha * (1.0 - alpha) * t * t, t - v)
    return slack, _inputs(rho.mat, sig.mat, alpha=alpha)


def _chk_dsd_contractivity(rng, dim) -> Outcome:
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    alpha = _rand_alpha(rng)
    kraus = la.random_cptp(dim, int(rng.integers(1, 4)), rng)
    before = fr.differential_skew_divergence(rho.mat, sig.mat, alpha)
    after = fr.differential_skew_divergence(
        dv.apply_channel(kraus, rho).mat, dv.apply_channel(kraus, sig).mat, alpha
    )
    slack = before - after
    return slack, _inputs(rho.mat, sig.mat, alpha=alpha)


def _chk_chi2_relation(rng, dim) -> Outcome:
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    alpha = _rand_alpha(rng)
    tau = alpha * rho.mat + (1.0 - alpha) * sig.mat
    lhs = fr.differential_skew_divergence(rho.mat, sig.mat, alpha)
    rhs = alpha / (1.0 - alpha) * fr.chi2_log(rho.mat, tau)
    tn = 2.0 * dv.trace_distance(rho, sig)
    chi2_lb = fr.chi2_log(rho.mat, sig.mat) - tn * tn
    slack = min(-abs(lhs - rhs) * 10.0, chi2_lb)  # relation pinned at 1e-9
    return slack, _inputs(rho.mat, sig.mat, alpha=alpha)


def _chk_averaging_match(rng, dim) -> Outcome:
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    alpha = _rand_alpha(rng, 0.05, 0.95)
    direct = dv.skew_divergence(rho, sig, alpha)
    averaged = fr.sd_by_averaging(rho, sig, alpha, quad=fr.QuadratureScheme(8, 16))
    slack = -abs(direct - averaged)
    return slack, _inputs(rho.mat, sig.mat, alpha=alpha)


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


def _chk_chi_three_ways(rng, dim) -> Outcome:
    n = int(rng.integers(2, 5))
    ens = _rand_ensemble(rng, dim, n)
    chi = en.holevo_chi(ens)
    r1 = chi - en.holevo_chi_relative_entropy_form(ens)
    r2 = chi - en.holevo_chi_skew_divergence_form(ens)
    slack = -max(abs(r1), abs(r2))
    return slack, _inputs(*(s.mat for s in ens.states), weights=list(ens.weights))


def _chk_chi_bound_chain(rng, dim) -> Outcome:
    n = int(rng.integers(2, 5))
    ens = _rand_ensemble(rng, dim, n)
    rec = en.chi_upper_bounds(ens)
    slack = min(
        rec.complementary_bound - rec.chi,
        rec.pairwise_bound - rec.complementary_bound,
        rec.entropy_times_t - rec.pairwise_bound,
    )
    return slack, _inputs(*(s.mat for s in ens.states), weights=list(ens.weights))


def _chk_chi_roga_binary(rng, dim) -> Outcome:
    ens = _rand_ensemble(rng, dim, 2)
    rec = en.chi_upper_bounds(ens)
    f = dv.fidelity(ens.states[0], ens.states[1])
    fidelity_surrogate = dv.shannon_entropy(ens.weights) * math.sqrt(
        max(0.0, 1.0 - f * f)
    )
    slack = min(rec.roga_bound - rec.chi, fidelity_surrogate - rec.roga_bound)
    return slack, _inputs(*(s.mat for s in ens.states), weights=list(ens.weights))


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
    # complementary distances obey t-bar_i <= max_{j != i} t_j at 1e-12
    for i, tbar in enumerate(rec.complementary_distances):
        others_max = max(
            tj for j, tj in enumerate(rec.member_distances) if j != i
        )
        slacks.append((others_max - tbar) * (DEFAULT_TOL / 1e-12))
    slack = min(slacks)
    return slack, _inputs(*(s.mat for s in ens.states), weights=list(ens.weights))


def _chk_rbts_family(rng, dim) -> Outcome:
    a, b, c = (_rand_psd(rng, dim) for _ in range(3))
    alpha = _rand_alpha(rng)
    ta, tc = float(np.trace(a).real), float(np.trace(c).real)

    d_sd = dv.skew_divergence(a, a + b, alpha) - dv.skew_divergence(a, a + b + c, alpha)
    d_s = float(dv.relative_entropy(a, a + b)) - float(dv.relative_entropy(a, a + b + c))
    e_sd = dv.skew_divergence(b, a + b, alpha) - dv.skew_divergence(b + c, a + b + c, alpha)
    e_s = float(dv.relative_entropy(b, a + b)) - float(
        dv.relative_entropy(b + c, a + b + c)
    )
    slack = min(
        d_sd + dv.scalar_skew_divergence(0.0, tc, alpha),
        -dv.scalar_skew_divergence(ta, ta + tc, alpha) - d_sd,
        d_s + dv.scalar_relative_entropy(0.0, tc),
        -dv.scalar_relative_entropy(ta, ta + tc) - d_s,
        e_sd,
        dv.scalar_skew_divergence(0.0, ta, alpha)
        - dv.scalar_skew_divergence(tc, ta + tc, alpha)
        - e_sd,
        e_s,
        dv.scalar_relative_entropy(0.0, ta)
        - dv.scalar_relative_entropy(tc, ta + tc)
        - e_s,
    )
    return slack, _inputs(a, b, c, alpha=alpha)


def _chk_dsd_difference_bounds(rng, dim) -> Outcome:
    a, b, c = (_rand_psd(rng, dim) for _ in range(3))
    alpha = _rand_alpha(rng)
    ta, tc = float(np.trace(a).real), float(np.trace(c).real)
    d1 = fr.differential_skew_divergence(a, b, alpha) - fr.differential_skew_divergence(
        a, b + c, alpha
    )
    d2 = fr.differential_skew_divergence(b, a + b, alpha) - fr.differential_skew_divergence(
        b + c, a + b + c, alpha
    )
    slack = min(
        d1 + fr.scalar_differential_sd(0.0, tc, alpha),
        fr.scalar_differential_sd(ta, 0.0, alpha)
        - fr.scalar_differential_sd(ta, tc, alpha)
        - d1,
        d2,
        fr.scalar_differential_sd(0.0, ta, alpha)
        - fr.scalar_differential_sd(tc, ta + tc, alpha)
        - d2,
    )
    return slack, _inputs(a, b, c, alpha=alpha)


def _triangle_rhs_sd(alpha: float, t: float) -> float:
    if t == 0.0:
        return 0.0
    return (
        dv.scalar_skew_divergence(1.0, 0.0, alpha)
        - dv.scalar_skew_divergence(1.0, t, alpha)
        + dv.scalar_skew_divergence(0.0, t, alpha)
    )


def _chk_triangle_family(rng, dim) -> Outcome:
    rho, s1, s2 = (_rand_state(rng, dim) for _ in range(3))
    alpha = _rand_alpha(rng)
    t = dv.trace_distance(s1, s2)
    lhs_sd1 = abs(
        dv.skew_divergence(rho, s1, alpha) - dv.skew_divergence(rho, s2, alpha)
    )
    lhs_sd2 = abs(
        dv.skew_divergence(s1, rho, alpha) - dv.skew_divergence(s2, rho, alpha)
    )
    lhs_d1 = abs(
        fr.differential_skew_divergence(rho.mat, s1.mat, alpha)
        - fr.differential_skew_divergence(rho.mat, s2.mat, alpha)
    )
    lhs_d2 = abs(
        fr.differential_skew_divergence(s1.mat, rho.mat, alpha)
        - fr.differential_skew_divergence(s2.mat, rho.mat, alpha)
    )
    rhs_sd1 = _triangle_rhs_sd(alpha, t)
    rhs_sd2 = (
        dv.scalar_skew_divergence(0.0, 1.0, alpha)
        - dv.scalar_skew_divergence(t, 1.0, alpha)
        + dv.scalar_skew_divergence(t, 0.0, alpha)
        if t > 0.0
        else 0.0
    )
    rhs_d1 = (
        fr.scalar_differential_sd(1.0, 0.0, alpha)
        - fr.scalar_differential_sd(1.0, t, alpha)
        + fr.scalar_differential_sd(0.0, t, alpha)
        if t > 0.0
        else 0.0
    )
    rhs_d2 = (
        fr.scalar_differential_sd(0.0, 1.0, alpha)
        - fr.scalar_differential_sd(t, 1.0, alpha)
        + fr.scalar_differential_sd(t, 0.0, alpha)
        if t > 0.0
        else 0.0
    )
    slack = min(
        rhs_sd1 - lhs_sd1, rhs_sd2 - lhs_sd2, rhs_d1 - lhs_d1, rhs_d2 - lhs_d2
    )
    return slack, _inputs(rho.mat, s1.mat, s2.mat, alpha=alpha)


def _chk_triangle_equality(rng, dim) -> Outcome:
    if dim < 2:
        dim = 2
    u = la.random_unitary(dim, rng)
    rho = np.outer(u[:, 0], u[:, 0].conj())
    w = rng.dirichlet(np.ones(dim - 1))
    s1 = (u[:, 1:] * w) @ u[:, 1:].conj().T
    t = float(rng.uniform(0.05, 0.95))
    s2 = t * rho + (1.0 - t) * s1
    alpha = _rand_alpha(rng, 0.05, 0.95)
    lhs = abs(
        dv.skew_divergence(rho, s1, alpha) - dv.skew_divergence(rho, s2, alpha)
    )
    slack = -abs(lhs - _triangle_rhs_sd(alpha, t))
    return slack, _inputs(rho, s1, alpha=alpha, t=t)


def _chk_triangle_rhs_shape(rng, dim) -> Outcome:
    alpha = _rand_alpha(rng)
    grid = np.arange(0.01, 0.995, 0.01)
    g = np.array([_triangle_rhs_sd(alpha, float(t)) for t in grid])
    monotone = float(np.diff(g).min())
    concave = float((g[1:-1] - (g[:-2] + g[2:]) / 2.0).min())
    slack = min(monotone, concave)
    return slack, _inputs(alpha=alpha)


def _chk_evolution_distance(rng, dim) -> Outcome:
    rho = _rand_state(rng, dim)
    h = la.random_hamiltonian(dim, rng)
    t = float(rng.uniform(0.0, 2.0))
    moved = en.evolve(rho, h, t)
    slack = t * la.operator_norm(h) - dv.trace_distance(moved, rho)
    return slack, _inputs(rho.mat, h.mat, t=t)


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
    return slack, _inputs(*(s.mat for s in exp.ensemble.states), t=exp.time)


def _chk_svsd_identity(rng, dim) -> Outcome:
    exp = _rand_experiment(rng, dim)
    rec = en.sim_bound_check(exp)
    slack = -rec.sd_representation_residual
    return slack, _inputs(*(s.mat for s in exp.ensemble.states), t=exp.time)


def _chk_bravyi_bound(rng, dim) -> Outcome:
    exp = _rand_experiment(rng, dim)
    rec = en.sim_bound_check(exp)
    slacks = [rec.bravyi_rhs - lhs for lhs in rec.bravyi_lhs]
    # sharper bound min(1/a, 1/(1-a)) ||H|| for the differential version
    rho, sig = _rand_state(rng, dim), _rand_state(rng, dim)
    h = la.random_hamiltonian(dim, rng)
    alpha = (0.1, 0.5, 0.9)[int(rng.integers(0, 3))]
    moved = en.evolve(sig, h, 1.0)
    lhs_d = fr.differential_skew_divergence(
        rho.mat, moved.mat, alpha
    ) - fr.differential_skew_divergence(rho.mat, sig.mat, alpha)
    slacks.append(min(1.0 / alpha, 1.0 / (1.0 - alpha)) * la.operator_norm(h) - lhs_d)
    slack = min(slacks)
    return slack, _inputs(rho.mat, sig.mat, alpha=alpha)


def _chk_entropy_gain_bound(rng, dim) -> Outcome:
    exp = _rand_experiment(rng, dim)
    rec = en.sim_bound_check(exp)
    slack = rec.sim_bound - rec.entropy_gain
    return slack, _inputs(*(s.mat for s in exp.ensemble.states), t=exp.time)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    label: str
    suite: str
    tol: float
    run: Callable[[np.random.Generator, int], Outcome]


REGISTRY: tuple[CheckDef, ...] = (
    CheckDef(
        "core.eigh_reconstruction",
        "eigendecomposition reconstructs A within 1e-12 max(1, ||A||_F), unitary basis, ascending eigenvalues",
        "core",
        0.0,
        _chk_eigh_reconstruction,
    ),
    CheckDef(
        "core.spectral_fn_identity",
        "spectral calculus with the identity function returns the input within 1e-12",
        "core",
        0.0,
        _chk_spectral_fn_identity,
    ),
    CheckDef(
        "core.trace_norm_axioms",
        "trace norm satisfies the triangle inequality and absolute homogeneity",
        "core",
        1e-10,
        _chk_trace_norm_axioms,
    ),
    CheckDef(
        "core.random_state_invariants",
        "random states are PSD with unit trace and deterministic per seed",
        "core",
        0.0,
        _chk_random_state_invariants,
    ),
    CheckDef(
        "core.random_cptp_contract",
        "random Kraus sets are complete and map states to states (trace, PSD within 1e-10)",
        "core",
        0.0,
        _chk_random_cptp_contract,
    ),
    CheckDef(
        "div.sd_range",
        "skew divergence of states lies in [0, 1]",
        "div",
        1e-9,
        _chk_sd_range,
    ),
    CheckDef(
        "div.sd_orthogonality",
        "skew divergence equals 1 exactly on orthogonal pairs and stays below 1 on overlapping pairs",
        "div",
        1e-9,
        _chk_sd_orthogonality,
    ),
    CheckDef(
        "div.sd_scaling",
        "scaling identities: SD_a(bX||bY) = b SD_a(X||Y) and SD_a(bX||cX) = SD_a(b|c) trace X",
        "div",
        1e-9,
        _chk_sd_scaling,
    ),
    CheckDef(
        "div.sd_unitary_invariance",
        "skew divergence is invariant under joint unitary conjugation",
        "div",
        1e-9,
        _chk_sd_unitary_invariance,
    ),
    CheckDef(
        "div.sd_contractivity",
        "skew divergence contracts under CPTP maps",
        "div",
        1e-8,
        _chk_sd_contractivity,
    ),
    CheckDef(
        "div.sd_joint_convexity",
        "skew divergence is jointly convex over 3-term mixtures",
        "div",
        1e-8,
        _chk_sd_joint_convexity,
    ),
    CheckDef(
        "div.sd_trace_norm_sandwich",
        "2(1-a)^2/(-log a) T^2 <= SD_a <= T, with equality SD_a = t on the diag(t,0,1-t) family",
        "div",
        1e-8,
        _chk_sd_trace_norm_sandwich,
    ),
    CheckDef(
        "div.skewed_re_bound",
        "S(rho || a rho + (1-a) sigma) <= -log a",
        "div",
        1e-9,
        _chk_skewed_re_bound,
    ),
    CheckDef(
        "div.fidelity_trace_distance",
        "trace distance is bounded by sqrt(1 - F^2)",
        "div",
        1e-8,
        _chk_fidelity_trace_distance,
    ),
    CheckDef(
        "fre.t_order_preserving",
        "the log derivative map preserves the PSD order: X <= Y implies T_A(X) <= T_A(Y)",
        "frechet",
        1e-9,
        _chk_t_order_preserving,
    ),
    CheckDef(
        "fre.t_sum_bound",
        "T_{A+B}(A) <= id for PSD A, B",
        "frechet",
        1e-9,
        _chk_t_sum_bound,
    ),
    CheckDef(
        "fre.r_sum_bound",
        "R_{A+B}(A) <= id for PSD A, B",
        "frechet",
        1e-9,
        _chk_r_sum_bound,
    ),
    CheckDef(
        "fre.r_reduces_to_t",
        "the bilinear second derivative satisfies R_A(A, D) = T_A(D)",
        "frechet",
        1e-8,
        _chk_r_reduces_to_t,
    ),
    CheckDef(
        "fre.metric_difference",
        "0 <= M_{A+B}(A,A) - M_{A+B+C}(A,A) <= a - a^2/(a+c) with a = tr A, c = tr C",
        "frechet",
        1e-8,
        _chk_metric_difference,
    ),
    CheckDef(
        "fre.quadrature_match",
        "divided-difference log derivative matches the integral-representation quadrature",
        "frechet",
        1e-6,
        _chk_quadrature_match,
    ),
    CheckDef(
        "fre.finite_difference_match",
        "log derivative matches the central difference (log(A+hD)-log(A-hD))/2h at h=1e-5",
        "frechet",
        1e-6,
        _chk_finite_difference_match,
    ),
    CheckDef(
        "fre.dsd_symmetry",
        "differential skew divergence satisfies D_a(A||B) = D_{1-a}(B||A)",
        "frechet",
        1e-10,
        _chk_dsd_symmetry,
    ),
    CheckDef(
        "fre.dsd_derivative",
        "differential skew divergence equals -a d/da of the skewed relative entropy",
        "frechet",
        1e-6,
        _chk_dsd_derivative,
    ),
    CheckDef(
        "fre.dsd_bounds",
        "4a(1-a) T^2 <= D_a(rho||sigma) <= T",
        "frechet",
        1e-8,
        _chk_dsd_bounds,
    ),
    CheckDef(
        "fre.dsd_contractivity",
        "differential skew divergence contracts under CPTP maps",
        "frechet",
        1e-8,
        _chk_dsd_contractivity,
    ),
    CheckDef(
        "fre.chi2_relation",
        "D_a(A||B) = a/(1-a) chi2_log(A, aA+(1-a)B) and chi2_log >= ||rho-sigma||_1^2",
        "frechet",
        1e-8,
        _chk_chi2_relation,
    ),
    CheckDef(
        "fre.averaging_match",
        "averaging the differential version over -log a' reconstructs the skew divergence",
        "frechet",
        1e-6,
        _chk_averaging_match,
    ),
    CheckDef(
        "fre.metric_epsilon_limit",
        "M_{B+eps C}(A,A) approaches the support-restricted metric monotonically as eps -> 0",
        "frechet",
        1e-6,
        _chk_metric_epsilon_limit,
    ),
    CheckDef(
        "ens.chi_three_ways",
        "Holevo information agrees across entropy, relative-entropy and skew-divergence forms",
        "ensemble",
        1e-9,
        _chk_chi_three_ways,
    ),
    CheckDef(
        "ens.chi_bound_chain",
        "chi <= sum -p log p T(rho_i, rhobar_i) <= pairwise bound <= H(p) max t_ij, monotonically",
        "ensemble",
        1e-8,
        _chk_chi_bound_chain,
    ),
    CheckDef(
        "ens.chi_roga_binary",
        "binary fidelity-surrogate entropy bound dominates chi and undercuts H(p) sqrt(1-F^2)",
        "ensemble",
        1e-8,
        _chk_chi_roga_binary,
    ),
    CheckDef(
        "ens.chi_continuity",
        "|chi(E) - chi(E')| <= weighted bound <= t log(1+(n-1)/t) + log(1+(n-1)t); complementary distances bounded",
        "ensemble",
        1e-8,
        _chk_chi_continuity,
    ),
    CheckDef(
        "ens.rbts_family",
        "two-sided scalar bounds on SD_a(A||A+B) - SD_a(A||A+B+C) and the shifted variant, for SD and S",
        "ensemble",
        1e-8,
        _chk_rbts_family,
    ),
    CheckDef(
        "ens.dsd_difference_bounds",
        "two-sided scalar bounds on D_a(A||B) - D_a(A||B+C) and the shifted variant",
        "ensemble",
        1e-8,
        _chk_dsd_difference_bounds,
    ),
    CheckDef(
        "ens.triangle_family",
        "perturbing either argument moves SD_a and D_a by at most the scalar three-term bound",
        "ensemble",
        1e-8,
        _chk_triangle_family,
    ),
    CheckDef(
        "ens.triangle_equality",
        "the first-argument continuity bound is attained at rho orthogonal to sigma1, sigma2 = t rho + (1-t) sigma1",
        "ensemble",
        1e-9,
        _chk_triangle_equality,
    ),
    CheckDef(
        "ens.triangle_rhs_shape",
        "the continuity bound is nondecreasing and midpoint-concave in t on {0.01..0.99}",
        "ensemble",
        1e-10,
        _chk_triangle_rhs_shape,
    ),
    CheckDef(
        "sim.evolution_distance",
        "T(U(t) rho U*(t), rho) <= t ||H||",
        "sim",
        1e-8,
        _chk_evolution_distance,
    ),
    CheckDef(
        "sim.mixing_rate_fd",
        "analytic mixing rate matches the entropy central difference at h=1e-5",
        "sim",
        1e-5,
        _chk_mixing_rate_fd,
    ),
    CheckDef(
        "sim.svsd_identity",
        "entropy gain of a binary experiment decomposes into weighted skew-divergence increments",
        "sim",
        1e-8,
        _chk_svsd_identity,
    ),
    CheckDef(
        "sim.bravyi_bound",
        "SD_a(rho||U sigma U*) - SD_a(rho||sigma) <= 2||tH||; differential version <= min(1/a,1/(1-a))||H||",
        "sim",
        1e-8,
        _chk_bravyi_bound,
    ),
    CheckDef(
        "sim.entropy_gain_bound",
        "S(rho_0(t)) - S(rho_0) <= 2 t h(p1,p2) ||H|| for binary experiments",
        "sim",
        1e-8,
        _chk_entropy_gain_bound,
    ),
)

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
        "fre.metric_difference",
        "fre.dsd_symmetry",
        "fre.dsd_derivative",
        "fre.dsd_bounds",
        "fre.dsd_contractivity",
        "fre.finite_difference_match",
        "ens.chi_bound_chain",
        "ens.rbts_family",
        "ens.triangle_family",
        "ens.triangle_equality",
        "ens.triangle_rhs_shape",
        "sim.svsd_identity",
        "sim.bravyi_bound",
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
    trials: int
    worst_slack: float
    violations: int
    worst_case_inputs: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "label": self.label,
            "trials": self.trials,
            # a non-finite worst (counted as a violation) has no strict-JSON form
            "worst_slack": self.worst_slack if math.isfinite(self.worst_slack) else None,
            "violations": self.violations,
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
    return np.random.default_rng(np.random.SeedSequence([seed, key, dim, trial]))


def _run_check(
    check: CheckDef, seed: int, dims: tuple[int, ...], trials: int, tol: float
) -> CheckResult:
    """Run ``trials`` trials of one check per dimension at tolerance ``tol``.

    A trial that raises counts as a violation with slack ``-inf``; its inputs
    are the exception and the trial coordinates. The inputs of the worst trial
    enter the result only when that trial is a violation.
    """
    worst = math.inf
    worst_inputs = None
    violations = 0
    for dim in dims:
        for k in range(trials):
            rng = _trial_rng(seed, check.check_id, dim, k)
            try:
                slack, inputs = check.run(rng, dim)
            except Exception as exc:
                slack = -math.inf
                inputs = _inputs(
                    error=type(exc).__name__, message=str(exc), dim=dim, trial=k
                )
            if not math.isfinite(slack):
                slack = -math.inf
            if slack < worst:
                worst, worst_inputs = slack, inputs
            if slack < -tol:
                violations += 1
    return CheckResult(
        check_id=check.check_id,
        label=check.label,
        trials=trials * len(dims),
        worst_slack=worst,
        violations=violations,
        worst_case_inputs=(
            _states_payload(worst_inputs)
            if worst < -tol and worst_inputs is not None
            else None
        ),
    )


def run_suite(
    suite: str = "all",
    dims: Sequence[int] = (2, 3, 4),
    trials: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    progress: Callable[[str], None] | None = None,
) -> VerificationReport:
    """Run every registered check of a suite over random trials per dimension.

    ``tol`` rescales every check's pinned tolerance proportionally
    (``tol / 1e-8``); with the default it reproduces the stated tolerances
    exactly. It must be finite and positive. A trial whose slack is not
    finite (NaN or infinite), or whose check raises, proves nothing and
    counts as a violation.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError("dims must be positive integers")

    assert_registry_complete()
    selected = [c for c in REGISTRY if suite == "all" or c.suite == suite]
    report = VerificationReport(suite=suite, seed=seed, dims=dims, trials=trials)
    started = time.perf_counter()
    for check in selected:
        result = _run_check(check, seed, dims, trials, check.tol * (tol / DEFAULT_TOL))
        report.checks.append(result)
        if progress is not None:
            n = result.violations
            status = "ok" if n == 0 else f"{n} VIOLATIONS"
            progress(f"{check.check_id}: worst slack {result.worst_slack:.3e} [{status}]")
    report.wall_time = time.perf_counter() - started
    return report
