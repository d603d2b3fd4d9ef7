"""The registered checks of ``qsd.verify``, in definition (report) order.

A draw ``(rngs, dim) -> stacks`` makes all the trials of one dimension, one
per generator in ``rngs``: the judge's arguments, in its parameter order,
each stacked along a first trial axis. Each generator makes its own trial's
calls in one fixed order, so a trial draws the same numbers alone as in any
stack, and the runner redraws a violating trial alone for the report. Most
checks register ``_draws(builder, ...)``, one builder ``(rngs, dim) ->
stack`` per judge parameter; a ``_draw_*`` function is written only where
the inputs depend on each other, a size varies per trial, or the draw order
differs from the judge's parameter order. A judge calls each public
function once on the whole stack: raw ``(n, d, d)`` stacks (a state is one
by its trace alone), or one ``Ensemble`` (or ``MixingExperiment``) whose
arrays carry the trial axis, each trial's members padded with zero weights
and zero matrices to the largest count (``_ensembles``).

A check looks a library function up on its module (``dv.``, ``fr.``,
``en.``, ``la.``) at each call and never binds it at load, so a function
replaced on its module (by the span tracer or the mutation gate) reaches
every check, whether this module loaded before the replacement or after. A
library builder is composed through a builder of this module that looks it
up (``_states``, ``_hamiltonians``), never passed to ``_draws`` itself.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import divergences as dv
from . import ensembles as en
from . import frechet as fr
from . import linalg as la
from .verify import _REGISTERED, CheckDef, _check


# ---------------------------------------------------------------------------
# Random input builders
# ---------------------------------------------------------------------------
#
# A builder ``(rngs, dim) -> stack`` takes the generators of a stack of
# trials, one per trial, and returns one stack. Every generator makes the
# calls of its own trial's draw in that draw's order, so a trial draws the
# same numbers alone as in any stack. The two primitives make one call per
# generator: ``la._complex_gaussians`` one block of normals, ``_uniforms`` one
# double. The arithmetic then runs once on the stack.


def _uniforms(rngs, lo: float, hi: float) -> np.ndarray:
    """``rng.uniform(lo, hi)`` of each generator: numpy computes it as
    ``lo + (hi - lo) * rng.random()``, which scales here once for the stack."""
    return lo + (hi - lo) * np.array([rng.random() for rng in rngs])


def _picks(rngs, options: tuple) -> np.ndarray:
    """An entry of ``options`` per trial, each equally likely."""
    return np.array([options[int(rng.integers(0, len(options)))] for rng in rngs])


def _uniform(lo: float, hi: float):
    """The builder of a skew or scale uniform on ``[lo, hi]`` per trial."""
    return lambda rngs, dim: _uniforms(rngs, lo, hi)


def _pick(*options):
    """The builder of one of ``options`` per trial."""
    return lambda rngs, dim: _picks(rngs, options)


def _draws(*builders):
    """The draw whose arguments are the stacks of ``builders``, each called
    on the generators in turn."""
    return lambda rngs, dim: tuple(build(rngs, dim) for build in builders)


def _repeated(rngs, counts) -> list:
    """Each generator ``counts`` times in a row (an int, or one count per
    generator): for draws of several items per trial."""
    if isinstance(counts, int):
        counts = [counts] * len(rngs)
    return [rng for rng, n in zip(rngs, counts) for _ in range(n)]


def _herms(rngs, dim: int, scale=1.0) -> np.ndarray:
    g = la._complex_gaussians(rngs, (dim, dim))
    return scale * (g + la._adjoint(g)) / 2.0


def _psds(rngs, dim: int, scale=None) -> np.ndarray:
    g = la._complex_gaussians(rngs, (dim, dim))
    p = g @ la._adjoint(g) / dim
    if scale is None:
        scale = _uniforms(rngs, 0.2, 2.0)[:, None, None]
    return scale * p / np.maximum(1.0, la._trace(p))[:, None, None]


def _pds(rngs, dim: int, floor: float = 0.05) -> np.ndarray:
    return _psds(rngs, dim, scale=1.0) + floor * np.eye(dim)


def _states(rngs, dim: int) -> np.ndarray:
    return la._random_states(rngs, dim)


def _hamiltonians(rngs, dim: int) -> np.ndarray:
    return la._random_hamiltonians(rngs, dim)


def _conditioned_states(rngs, dim: int, mix: float = 0.05) -> np.ndarray:
    # identity admixture keeps finite-difference oracles well conditioned
    return (1.0 - mix) * la._random_states(rngs, dim) + mix * np.eye(dim) / dim


def _unitaries(rngs, dim: int) -> np.ndarray:
    return la._haar_columns(la._complex_gaussians(rngs, (dim, dim)), dim)


def _channels(rngs, dim: int) -> np.ndarray:
    """A ``la.random_cptp`` channel of 1 to 3 Kraus blocks per trial, stacked
    as ``(n, 3, dim, dim)``: zero blocks pad each to 3, and add exact zeros."""
    kraus = np.zeros((len(rngs), 3, dim, dim), dtype=np.complex128)
    for k, rng in enumerate(rngs):
        env = int(rng.integers(1, 4))
        kraus[k, :env] = la.random_cptp(dim, env, rng)
    return kraus


def _from_matrices(raw: np.ndarray) -> np.ndarray:
    """``la.DensityMatrix.from_matrix`` of each matrix of a stack, as one
    stack: clipped PSD and divided by its trace."""
    return la._unit_trace(la._clip_psd(raw, stacked=True))


def _orthogonal_pairs(rngs, dim: int) -> tuple[np.ndarray, np.ndarray]:
    dim = max(dim, 2)
    pairs = []
    for rng, u in zip(rngs, _unitaries(rngs, dim)):
        split = int(rng.integers(1, dim))
        left, right = u[:, :split], u[:, split:]
        wl = rng.dirichlet(np.ones(split))
        wr = rng.dirichlet(np.ones(dim - split))
        pairs.append(((left * wl) @ left.conj().T, (right * wr) @ right.conj().T))
    return tuple(np.stack(side) for side in zip(*pairs))


def _least(*slacks) -> np.ndarray:
    """Per-trial minimum of several slacks (a NaN stays NaN)."""
    return np.min(np.broadcast_arrays(*slacks), axis=0)


def _rel_err(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``||x - ref|| / max(1, ||ref||)`` per trial, in Frobenius norms."""
    return np.linalg.norm(x - ref, axis=(-2, -1)) / np.maximum(1.0, np.linalg.norm(ref, axis=(-2, -1)))


# ---------------------------------------------------------------------------
# Checks: a draw and the judge registered with it
# ---------------------------------------------------------------------------

# the draws several checks share
_STATE_PAIR = _draws(_states, _states, _uniform(0.02, 0.98))
_PSD_PAIR = _draws(_psds, _psds, _uniform(0.02, 0.98))
_PSD_TRIPLE = _draws(_psds, _psds, _psds, _uniform(0.02, 0.98))


@_check(
    "core.eigh_reconstruction",
    0.0,
    "eigendecomposition reconstructs A within 1e-12 max(1, ||A||_F), unitary basis, ascending eigenvalues",
    _draws(lambda rngs, dim: _herms(rngs, dim, _uniforms(rngs, 0.1, 3.0)[:, None, None])),
)
def _judge_eigh_reconstruction(a):
    w, v = la.eigendecompose(a)
    resid = np.linalg.norm((v * w[:, None, :]) @ la._adjoint(v) - a, axis=(-2, -1))
    unit = np.linalg.norm(la._adjoint(v) @ v - np.eye(a.shape[-1]), axis=(-2, -1))
    ascending = np.where((np.diff(w) >= 0.0).all(axis=-1), 0.0, -1.0)
    fro = np.linalg.norm(a, axis=(-2, -1))
    return _least(1e-12 * np.maximum(1.0, fro) - resid, 1e-12 * a.shape[-1] - unit, ascending)


@_check(
    "core.spectral_fn_identity",
    0.0,
    "spectral calculus with the identity function returns the input within 1e-12",
    _draws(_herms),
)
def _judge_spectral_fn_identity(a):
    out = la.spectral_fn(a, lambda w: w)
    resid = np.abs(out - a).max(axis=(1, 2))
    return 1e-12 * np.maximum(1.0, np.abs(a).max(axis=(1, 2))) - resid


@_check(
    "core.trace_norm_axioms",
    1e-10,
    "trace norm satisfies the triangle inequality and absolute homogeneity",
    _draws(_herms, _herms, _uniform(-3.0, 3.0)),
)
def _judge_trace_norm_axioms(x, y, c):
    tn = la.trace_norm
    homog = -np.abs(tn(c[:, None, None] * x) - np.abs(c) * tn(x))
    return np.minimum(tn(x) + tn(y) - tn(x + y), homog)


def _draw_random_state_invariants(rngs, dim):
    seeds = [int(rng.integers(0, 2**63 - 1)) for rng in rngs]
    # the check is on the single-trial generator: one call per state
    s1, s2 = (
        np.stack([la.random_state(dim, np.random.default_rng(seed)).mat for seed in seeds])
        for _ in range(2)
    )
    return s1, s2


@_check(
    "core.random_state_invariants",
    0.0,
    "random states are PSD with unit trace and deterministic per seed",
    _draw_random_state_invariants,
)
def _judge_random_state_invariants(s1, s2):
    deterministic = np.where((s1 == s2).all(axis=(1, 2)), 0.0, -1.0)
    trace_err = np.abs(la._trace(s1) - 1.0)
    return _least(1e-12 - trace_err, np.linalg.eigvalsh(s1)[:, 0] + 1e-10, deterministic)


@_check(
    "core.random_cptp_contract",
    0.0,
    "random Kraus sets are complete and map states to states (trace, PSD within 1e-10)",
    _draws(_channels, _states),
)
def _judge_random_cptp_contract(kraus, rho):
    kh = la._adjoint(kraus)
    comp_err = np.abs((kh @ kraus).sum(axis=1) - np.eye(rho.shape[-1])).max(axis=(1, 2))
    out = (kraus @ rho[:, None] @ kh).sum(axis=1)
    trace_err = np.abs(la._trace(out) - 1.0)
    min_eig = np.linalg.eigvalsh(out)[:, 0]
    return _least(1e-10 - comp_err, 1e-10 - trace_err, min_eig + 1e-10)


@_check(
    "div.sd_range",
    1e-9,
    "skew divergence of states lies in [0, 1]",
    _draws(_states, _states, _pick(0.01, 0.1, 0.5, 0.9, 0.99)),
)
def _judge_sd_range(rho, sig, alpha):
    v = dv.skew_divergence(rho, sig, alpha)
    return np.minimum(v, 1.0 - v)


def _draw_sd_orthogonality(rngs, dim):
    rho_o, sig_o = _orthogonal_pairs(rngs, dim)
    alpha = _picks(rngs, (0.01, 0.5, 0.99))
    # constructed overlapping pair: a 1% identity admixture caps the trace
    # distance at 0.99, so the skew divergence must sit below 1 - 1e-2
    eye = np.eye(dim) / dim
    rho = 0.99 * la._random_states(rngs, dim) + 0.01 * eye
    sig = 0.99 * la._random_states(rngs, dim) + 0.01 * eye
    return rho_o, sig_o, rho, sig, alpha


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


@_check(
    "div.sd_scaling",
    1e-9,
    "scaling identities: SD_a(bX||bY) = b SD_a(X||Y) and SD_a(bX||cX) = SD_a(b|c) trace X",
    _draws(_psds, _psds, _uniform(0.05, 2.0), _uniform(0.05, 2.0), _uniform(0.02, 0.98)),
)
def _judge_sd_scaling(x, y, b, c, alpha):
    bx, by, cx = (s[:, None, None] * m for s, m in ((b, x), (b, y), (c, x)))
    r1 = dv.skew_divergence(bx, by, alpha) - b * dv.skew_divergence(x, y, alpha)
    r2 = dv.skew_divergence(bx, cx, alpha) - dv.scalar_skew_divergence(b, c, alpha) * la._trace(x)
    return -np.maximum(np.abs(r1), np.abs(r2))


@_check(
    "div.sd_unitary_invariance",
    1e-9,
    "skew divergence is invariant under joint unitary conjugation",
    _draws(_states, _states, _unitaries, _uniform(0.02, 0.98)),
)
def _judge_sd_unitary_invariance(rho, sig, u, alpha):
    uh = la._adjoint(u)
    moved = dv.skew_divergence(u @ rho @ uh, u @ sig @ uh, alpha)
    return -np.abs(moved - dv.skew_divergence(rho, sig, alpha))


def _draw_channel_pair(rngs, dim):
    """A pair of states, a skew and the pair's images under a random channel."""
    rho, sig, alpha = _STATE_PAIR(rngs, dim)
    kraus = _channels(rngs, dim)
    return rho, sig, dv.apply_channel(kraus, rho), dv.apply_channel(kraus, sig), alpha


@_check(
    "div.sd_contractivity", 1e-8, "skew divergence contracts under CPTP maps", _draw_channel_pair
)
def _judge_sd_contractivity(rho, sig, rho_out, sig_out, alpha):
    return dv.skew_divergence(rho, sig, alpha) - dv.skew_divergence(rho_out, sig_out, alpha)


def _draw_sd_joint_convexity(rngs, dim):
    alpha = _uniforms(rngs, 0.02, 0.98)
    w = np.stack([rng.dirichlet(np.ones(3)) for rng in rngs])
    rhos = la._random_states(_repeated(rngs, 3), dim).reshape(-1, 3, dim, dim)
    sigs = la._random_states(_repeated(rngs, 3), dim).reshape(-1, 3, dim, dim)
    return rhos, sigs, w, alpha


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


def _draw_sd_trace_norm_sandwich(rngs, dim):
    rho, sig, alpha = _STATE_PAIR(rngs, dim)
    # tightness family diag(t,0,1-t) vs diag(0,t,1-t): SD equals t (at 1e-9)
    tf = _picks(rngs, np.arange(0.1, 0.95, 0.1))
    af = _picks(rngs, (0.1, 0.5, 0.9))
    fam_r, fam_s = np.zeros((2, len(rngs), 3, 3), dtype=np.complex128)
    fam_r[:, 0, 0] = fam_s[:, 1, 1] = tf
    fam_r[:, 2, 2] = fam_s[:, 2, 2] = 1.0 - tf
    return rho, sig, alpha, fam_r, fam_s, tf, af


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
    "div.skewed_re_bound", 1e-9, "S(rho || a rho + (1-a) sigma) <= -log a", _STATE_PAIR
)
def _judge_skewed_re_bound(rho, sig, alpha):
    return -np.log(alpha) - dv.relative_entropy(rho, la._skewed_mixture(rho, sig, alpha))


@_check(
    "div.fidelity_trace_distance",
    1e-8,
    "trace distance is bounded by sqrt(1 - F^2)",
    _draws(_states, _states),
)
def _judge_fidelity_trace_distance(rho, sig):
    f = dv.fidelity(rho, sig)
    return np.sqrt(np.maximum(0.0, 1.0 - f * f)) - dv.trace_distance(rho, sig)


@_check(
    "fre.t_order_preserving",
    1e-9,
    "the log derivative map preserves the PSD order: X <= Y implies T_A(X) <= T_A(Y)",
    _draws(_pds, _psds),  # d = Y - X for X <= Y
)
def _judge_t_order_preserving(a, d):
    return np.linalg.eigvalsh(fr.frechet_log(a, d))[:, 0]


@_check("fre.t_sum_bound", 1e-9, "T_{A+B}(A) <= id for PSD A, B", _PSD_PAIR)
def _judge_t_sum_bound(a, b, alpha):
    return 1.0 - np.linalg.eigvalsh(fr.frechet_log(a + b, a))[:, -1]


@_check("fre.r_sum_bound", 1e-9, "R_{A+B}(A) <= id for PSD A, B", _PSD_PAIR)
def _judge_r_sum_bound(a, b, alpha):
    return 1.0 - np.linalg.eigvalsh(fr.second_frechet_log(a + b, a))[:, -1]


@_check(
    "fre.r_reduces_to_t",
    1e-8,
    "the bilinear second derivative satisfies R_A(A, D) = T_A(D)",
    _draws(_pds, _herms),
)
def _judge_r_reduces_to_t(a, d):
    second = fr.second_frechet_log(a, a, d)
    return -np.linalg.norm(second - fr.frechet_log(a, d), axis=(-2, -1))


@_check(
    "fre.metric_difference",
    1e-8,
    "0 <= M_{A+B}(A,A) - M_{A+B+C}(A,A) <= a - a^2/(a+c) with a = tr A, c = tr C",
    _PSD_TRIPLE,
)
def _judge_metric_difference(a, b, c, alpha):
    diff = fr.metric_M(a + b, a, a).real - fr.metric_M(a + b + c, a, a).real
    ta, tc = la._trace(a), la._trace(c)
    return np.minimum(diff, ta - ta * ta / (ta + tc) - diff)


def _draw_quadrature_match(rngs, dim):
    conds = [10.0 ** rng.uniform(0.0, 4.0) for rng in rngs]
    v = _unitaries(rngs, dim)
    lam = np.empty((len(rngs), dim))
    for k, (rng, cond) in enumerate(zip(rngs, conds)):
        lam[k] = np.exp(rng.uniform(math.log(1.0 / cond), 0.0, dim))
        if dim >= 2 and rng.uniform() < 0.5:
            lam[k, 1] = lam[k, 0]  # exercise the confluent divided-difference branch
    a = (v * lam[:, None, :]) @ la._adjoint(v)
    d = _herms(rngs, dim)
    return a, d


@_check(
    "fre.quadrature_match",
    1e-6,
    "divided-difference log derivative matches the integral-representation quadrature",
    _draw_quadrature_match,
)
def _judge_quadrature_match(a, d):
    return -_rel_err(fr.frechet_log_quadrature(a, d), fr.frechet_log(a, d))


@_check(
    "fre.finite_difference_match",
    1e-6,
    "log derivative matches the central difference (log(A+hD)-log(A-hD))/2h at h=1e-5",
    _draws(partial(_pds, floor=0.2), _herms),
)
def _judge_finite_difference_match(a, d):
    fd = fr.frechet_log_central_diff(a, d, h=1e-5, order=2)
    return -_rel_err(fd, fr.frechet_log(a, d))


@_check(
    "fre.dsd_symmetry",
    1e-10,
    "differential skew divergence satisfies D_a(A||B) = D_{1-a}(B||A)",
    _PSD_PAIR,
)
def _judge_dsd_symmetry(a, b, alpha):
    op_dsd = fr.differential_skew_divergence
    return -np.abs(op_dsd(a, b, alpha) - op_dsd(b, a, 1.0 - alpha))


@_check(
    "fre.dsd_derivative",
    1e-6,
    "differential skew divergence equals -a d/da of the skewed relative entropy",
    _draws(_conditioned_states, _conditioned_states, _uniform(0.1, 0.9)),
)
def _judge_dsd_derivative(a, b, alpha):
    h = 1e-5
    v = fr.differential_skew_divergence(a, b, alpha)
    up, down = (
        dv.relative_entropy(a, la._skewed_mixture(a, b, x)) for x in (alpha + h, alpha - h)
    )
    return -np.abs(v + alpha * (up - down) / (2.0 * h))


@_check("fre.dsd_bounds", 1e-8, "4a(1-a) T^2 <= D_a(rho||sigma) <= T", _STATE_PAIR)
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
    _STATE_PAIR,
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
    _draws(_states, _states, _uniform(0.05, 0.95)),
)
def _judge_averaging_match(rho, sig, alpha):
    return -np.abs(dv.skew_divergence(rho, sig, alpha) - fr.sd_by_averaging(rho, sig, alpha, refine=False))


def _draw_metric_epsilon_limit(rngs, dim):
    dim = max(dim, 2)
    ranks = [int(rng.integers(1, dim)) for rng in rngs]
    us = _unitaries(rngs, dim)
    # the residual gap at the last eps scales like eps * ||C|| / lambda_min(B)^2,
    # so keep B well conditioned on its support and C of unit norm
    a, b, off = (np.empty_like(us) for _ in range(3))
    for k, (rng, rank, u) in enumerate(zip(rngs, ranks, us)):
        wb = rng.uniform(0.5, 1.0, rank)
        b[k] = (u[:, :rank] * wb) @ u[:, :rank].conj().T
        wa = rng.uniform(0.1, 1.0, rank)
        a[k] = (u[:, :rank] * wa) @ u[:, :rank].conj().T
        off[k] = u[:, rank:] @ u[:, rank:].conj().T
    c = _psds(rngs, dim) + off
    c /= la.operator_norm(c)[:, None, None]
    return a, b, c


@_check(
    "fre.metric_epsilon_limit",
    1e-6,
    "M_{B+eps C}(A,A) approaches the support-restricted metric monotonically as eps -> 0",
    _draw_metric_epsilon_limit,
)
def _judge_metric_epsilon_limit(a, b, c):
    rec = fr.metric_epsilon_limit_check(a, b, c)
    return np.where(rec.monotone, -np.abs(rec.final_gap), -1.0)


def _ensembles(weights: list, members: np.ndarray) -> en.Ensemble:
    """The padded stack of each trial's ensemble: its weights, and its slice
    of the member stack of all trials, in trial order."""
    counts = np.array([w.size for w in weights])
    real = np.arange(counts.max()) < counts[:, None]
    w = np.zeros(real.shape)
    stack = np.zeros((*real.shape, *members.shape[1:]), dtype=np.complex128)
    w[real], stack[real] = np.concatenate(weights), members
    w.flags.writeable = False
    return en.Ensemble._of(w, la._frozen(stack))


def _ensemble_members(rngs, dim, n: int | None = None) -> tuple[list, np.ndarray]:
    """The weights of each trial's ensemble, and the stack of all trials'
    members in trial order."""
    counts = [int(rng.integers(2, 5)) if n is None else n for rng in rngs]
    weights = []
    for rng, m in zip(rngs, counts):
        w = 0.8 * rng.dirichlet(np.ones(m)) + 0.2 / m
        weights.append(w / w.sum())
    return weights, la._random_states(_repeated(rngs, counts), dim)


def _random_ensembles(rngs, dim, n: int | None = None) -> en.Ensemble:
    """A padded stack of ensembles of ``n`` (else 2 to 4) random states."""
    return _ensembles(*_ensemble_members(rngs, dim, n))


@_check(
    "ens.chi_three_ways",
    1e-9,
    "Holevo information agrees across entropy, relative-entropy and skew-divergence forms",
    _draws(_random_ensembles),
)
def _judge_chi_three_ways(ens):
    chi = en.holevo_chi(ens)
    r1 = chi - en.holevo_chi_relative_entropy_form(ens)
    r2 = chi - en.holevo_chi_skew_divergence_form(ens)
    return -np.maximum(np.abs(r1), np.abs(r2))


@_check(
    "ens.chi_bound_chain",
    1e-8,
    "chi <= sum -p log p T(rho_i, rhobar_i) <= pairwise bound <= H(p) max t_ij, monotonically",
    _draws(_random_ensembles),
)
def _judge_chi_bound_chain(ens):
    rec = en.chi_upper_bounds(ens)
    comp, pair = rec.complementary_bound, rec.pairwise_bound
    return _least(comp - rec.chi, pair - comp, rec.entropy_times_t - pair)


@_check(
    "ens.chi_roga_binary",
    1e-8,
    "binary fidelity-surrogate entropy bound dominates chi and undercuts H(p) sqrt(1-F^2)",
    _draws(partial(_random_ensembles, n=2)),
)
def _judge_chi_roga_binary(ens):
    rec = en.chi_upper_bounds(ens)
    roga, members = rec.roga_bound, ens.members
    f = dv.fidelity(members[:, 0], members[:, 1])
    entropy = dv.shannon_entropy(ens.weights)
    return np.minimum(roga - rec.chi, entropy * np.sqrt(np.maximum(0.0, 1.0 - f * f)) - roga)


def _draw_ensemble_pair(rngs, dim):
    weights, own = _ensemble_members(rngs, dim)
    counts = [w.size for w in weights]
    mix = np.repeat(_uniforms(rngs, 0.0, 0.4), counts)[:, None, None]
    fresh = la._random_states(_repeated(rngs, counts), dim)
    others = _from_matrices((1.0 - mix) * own + mix * fresh)
    return _ensembles(weights, own), _ensembles(weights, others)


@_check(
    "ens.chi_continuity",
    1e-8,
    "|chi(E) - chi(E')| <= weighted bound <= t log(1+(n-1)/t) + log(1+(n-1)t); complementary distances bounded",
    _draw_ensemble_pair,
)
def _judge_chi_continuity(ens, other):
    rec = en.chi_continuity_bound(ens, other)
    weighted = rec.weighted_bound
    # complementary distances obey t-bar_i <= max_{j != i} t_j at 1e-12:
    # 1e4 is the check's pinned 1e-8 over that 1e-12. Each trial reads its
    # own n members; the NaN padding past them drops out.
    t, comp = rec.member_distances, rec.complementary_distances
    member = ens.weights > 0.0
    others = np.eye(t.shape[1], dtype=bool) | ~member[:, None, :]
    others_max = np.where(others, -np.inf, t[:, None, :]).max(axis=2)
    complementary = np.where(member, (others_max - comp) * 1e4, np.inf).min(axis=1)
    return _least(weighted - rec.delta_chi, rec.dimension_free_bound - weighted, complementary)


@_check(
    "ens.rbts_family",
    1e-8,
    "two-sided scalar bounds on SD_a(A||A+B) - SD_a(A||A+B+C) and the shifted variant, for SD and S",
    _PSD_TRIPLE,
)
def _judge_rbts_family(a, b, c, alpha):
    ta, tc = la._trace(a), la._trace(c)
    ab, abc = a + b, a + b + c
    op_sd, op_re = dv.skew_divergence, dv.relative_entropy
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
    _PSD_TRIPLE,
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


def _draw_triangle_family(rngs, dim):
    mats = la._random_states(_repeated(rngs, 3), dim).reshape(-1, 3, dim, dim)
    rho, s1, s2 = (np.ascontiguousarray(mats[:, j]) for j in range(3))
    alpha = _uniforms(rngs, 0.02, 0.98)
    return rho, s1, s2, alpha


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


def _draw_triangle_equality(rngs, dim):
    dim = max(dim, 2)
    u = _unitaries(rngs, dim)
    rho = u[:, :, 0, None] * u[:, None, :, 0].conj()
    w = np.stack([rng.dirichlet(np.ones(dim - 1)) for rng in rngs])
    s1 = (u[:, :, 1:] * w[:, None, :]) @ la._adjoint(u[:, :, 1:])
    t = _uniforms(rngs, 0.05, 0.95)
    s2 = t[:, None, None] * rho + (1.0 - t[:, None, None]) * s1
    alpha = _uniforms(rngs, 0.05, 0.95)
    return rho, s1, s2, alpha, t


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
    _draws(_uniform(0.02, 0.98)),
)
def _judge_triangle_rhs_shape(alpha):
    grid = np.arange(0.01, 0.995, 0.01)
    g = _triangle_rhs(dv.scalar_skew_divergence, alpha[:, None], grid)
    concave = (g[:, 1:-1] - (g[:, :-2] + g[:, 2:]) / 2.0).min(axis=1)
    return np.minimum(np.diff(g).min(axis=1), concave)


@_check(
    "sim.evolution_distance",
    1e-8,
    "T(U(t) rho U*(t), rho) <= t ||H||",
    _draws(_states, _hamiltonians, _uniform(0.0, 2.0)),
)
def _judge_evolution_distance(rho, h, t):
    moved = en.evolve(rho, h, t)
    return t * la.operator_norm(h) - dv.trace_distance(moved, rho)


def _experiments(rngs, dim, conditioned: bool = False) -> en.MixingExperiment:
    """A binary experiment per trial, as one stack."""
    p = _uniforms(rngs, 0.05, 0.95)
    pairs = _repeated(rngs, 2)
    mats = _from_matrices(_conditioned_states(pairs, dim, 0.1)) if conditioned else _states(pairs, dim)
    ens = _ensembles(list(np.stack([p, 1.0 - p], axis=1)), mats)
    hams = la._random_hamiltonians(pairs, dim).reshape(-1, 2, dim, dim)
    h1, h2 = (la.HermitianOperator._of(hams[:, j]) for j in range(2))  # each holds every trial
    return en.MixingExperiment(ens, h1, h2, _uniforms(rngs, 0.0, 1.0))


def _entropy_at(exp, t: np.ndarray) -> np.ndarray:
    """Entropy of each experiment's mixture with each member evolved to its
    entry of ``t``."""
    members, p = exp.ensemble.members, exp.ensemble.weights
    hams = np.stack([exp.h1.mat, exp.h2.mat], axis=1)
    flat = (-1, *members.shape[2:])
    moved = en.evolve(members.reshape(flat), hams.reshape(flat), np.repeat(t, 2)).reshape(members.shape)
    return dv.von_neumann_entropy(sum(p[:, j, None, None] * moved[:, j] for j in range(2)))


@_check(
    "sim.mixing_rate_fd",
    1e-5,
    "analytic mixing rate matches the entropy central difference at h=1e-5",
    _draws(partial(_experiments, conditioned=True)),
)
def _judge_mixing_rate_fd(exp):
    h = 1e-5
    up, down = (_entropy_at(exp, exp.time + s) for s in (h, -h))
    return -np.abs(en.mixing_rate(exp) - (up - down) / (2.0 * h))


@_check(
    "sim.svsd_identity",
    1e-8,
    "entropy gain of a binary experiment decomposes into weighted skew-divergence increments",
    _draws(_experiments),
)
def _judge_svsd_identity(exp):
    return -en.sim_bound_check(exp).sd_representation_residual


@_check(
    "sim.bravyi_bound",
    1e-8,
    "SD_a(rho||U sigma U*) - SD_a(rho||sigma) <= 2||tH||; differential version <= min(1/a,1/(1-a))||H||",
    _draws(_experiments, _states, _states, _hamiltonians, _pick(0.1, 0.5, 0.9)),
)
def _judge_bravyi_bound(exp, rho, sig, h, alpha):
    rec = en.sim_bound_check(exp)
    lhs, rhs = rec.bravyi_lhs, rec.bravyi_rhs
    # sharper bound min(1/a, 1/(1-a)) ||H|| for the differential version
    moved = en.evolve(sig, h, 1.0)
    op_dsd = fr.differential_skew_divergence
    lhs_d = op_dsd(rho, moved, alpha) - op_dsd(rho, sig, alpha)
    sharp = np.minimum(1.0 / alpha, 1.0 / (1.0 - alpha)) * la.operator_norm(h) - lhs_d
    return _least(rhs - lhs[:, 0], rhs - lhs[:, 1], sharp)


@_check(
    "sim.entropy_gain_bound",
    1e-8,
    "S(rho_0(t)) - S(rho_0) <= 2 t h(p1,p2) ||H|| for binary experiments",
    _draws(_experiments),
)
def _judge_entropy_gain_bound(exp):
    rec = en.sim_bound_check(exp)
    return rec.sim_bound - rec.entropy_gain


REGISTRY: tuple[CheckDef, ...] = tuple(_REGISTERED)
