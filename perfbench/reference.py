"""Reference values from direct ``numpy.linalg.eigh`` formulas.

These recompute a sample of the benchmark's results outside the timed phase.
They follow the library's documented conventions (natural log, ``0 log 0 = 0``,
support threshold ``dim * eps * lambda_max``, leaked trace mass above 1e-10
makes a relative entropy infinite) but share none of its code.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)
LEAK_TOL = 1e-10


def _support(mat: np.ndarray):
    w, v = np.linalg.eigh(mat)
    keep = w > mat.shape[0] * EPS * max(float(w[-1]), 0.0)
    return w, v, keep


def _xlogx(w: np.ndarray) -> float:
    pos = w[w > 0.0]
    return float(np.sum(pos * np.log(pos)))


def entropy(a: np.ndarray) -> float:
    return -_xlogx(np.linalg.eigvalsh(a))


def relative_entropy(a: np.ndarray, b: np.ndarray) -> float:
    """``tr A log A - tr A log B - tr(A - B)`` on supp(B); inf when A leaks out of it."""
    w, v, keep = _support(b)
    p = v[:, keep]
    a_r = p.conj().T @ a @ p
    tr_a = float(np.trace(a).real)
    if tr_a - float(np.trace(a_r).real) > LEAK_TOL * max(1.0, tr_a):
        return math.inf
    log_b = np.diag(np.log(w[keep]))
    return (
        _xlogx(np.linalg.eigvalsh(a_r))
        - float(np.trace(a_r @ log_b).real)
        - (float(np.trace(a_r).real) - float(w[keep].sum()))
    )


def skew_divergence(a: np.ndarray, b: np.ndarray, alpha: float) -> float:
    return relative_entropy(a, alpha * a + (1.0 - alpha) * b) / -math.log(alpha)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    wi = np.linalg.eigvalsh(root @ b @ root)
    thr = wi.size * EPS * max(float(wi[-1]), 0.0)
    return min(1.0, float(np.sqrt(wi[wi > thr]).sum()))


def _dd1(w: np.ndarray) -> np.ndarray:
    """First divided differences of log: ``(log x - log y)/(x - y)``, ``1/x`` on the diagonal."""
    x, y = w[:, None], w[None, :]
    close = np.abs(x - y) <= 1e-7 * np.maximum(x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (np.log(x) - np.log(y)) / (x - y)
    return np.where(close, 2.0 / (x + y), direct)


def frechet_log(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return v @ (_dd1(w) * (v.conj().T @ d @ v)) @ v.conj().T


def metric(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> complex:
    """``tr B* T_A(C)``."""
    return complex(np.trace(b.conj().T @ frechet_log(a, c)))


def _metric_on_support(base: np.ndarray, d: np.ndarray) -> float:
    w, v, keep = _support(base)
    p = v[:, keep]
    dt = p.conj().T @ d @ p
    return float(np.sum(_dd1(w[keep]) * np.abs(dt) ** 2))


def differential_skew_divergence(a: np.ndarray, b: np.ndarray, alpha: float) -> float:
    return alpha * (1.0 - alpha) * _metric_on_support(alpha * a + (1.0 - alpha) * b, a - b)


def chi2_log(a: np.ndarray, b: np.ndarray) -> float:
    return _metric_on_support(b, a - b)


def _dd2_slice(w: np.ndarray, f1: np.ndarray, k: int) -> np.ndarray:
    """``log[w_i, w_k, w_j]`` for all ``i, j`` at a fixed middle index ``k``.

    Assumes distinct eigenvalues, so only ``i == j`` and ``i == j == k`` are
    confluent.
    """
    gap = w[:, None] - w[None, :]
    np.fill_diagonal(gap, 1.0)
    f2 = (f1[:, k][:, None] - f1[k, :][None, :]) / gap
    off = w - w[k]
    off[k] = 1.0
    diag = (1.0 / w - f1[:, k]) / off  # d/dx log[x, w_k] at x = w_i
    diag[k] = -0.5 / w[k] ** 2
    np.fill_diagonal(f2, diag)
    return f2


def second_frechet_log(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Negative second derivative of log at ``a`` along ``d`` in both slots:
    ``-V C V*`` with ``C_ij = 2 sum_k Dt_ik log[w_i, w_k, w_j] Dt_kj``,
    contracted one middle index at a time. Needs distinct eigenvalues."""
    w, v = np.linalg.eigh(a)
    if np.min(np.diff(w) / w[1:]) <= 1e-6:
        raise ValueError("reference second derivative needs well-separated eigenvalues")
    dt = v.conj().T @ d @ v
    f1 = _dd1(w)
    core = np.zeros_like(dt)
    for k in range(w.size):
        core += dt[:, k][:, None] * _dd2_slice(w, f1, k) * dt[k, :][None, :]
    return -(v @ (2.0 * core) @ v.conj().T)


def holevo_chi(weights, states) -> float:
    avg = sum(p * s for p, s in zip(weights, states))
    avg = avg / float(np.trace(avg).real)
    return entropy(avg) - sum(p * entropy(s) for p, s in zip(weights, states))


def _evolve(rho: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * t * w)) @ v.conj().T
    return u @ rho @ u.conj().T


def mixing_rate(weights, states, h1: np.ndarray, h2: np.ndarray, t: float) -> float:
    """``-tr(rho0'(t) log rho0(t))`` on the support of the averaged state."""
    avg = np.zeros_like(states[0])
    deriv = np.zeros_like(states[0])
    for p, rho, h in zip(weights, states, (h1, h2)):
        r = _evolve(rho, h, t) if t != 0.0 else rho
        avg += p * r
        deriv += p * 1j * (h @ r - r @ h)
    w, v, keep = _support(avg)
    p = v[:, keep]
    return -float(np.trace(np.diag(np.log(w[keep])) @ (p.conj().T @ deriv @ p)).real)


FORMULAS = {
    "von_neumann_entropy": entropy,
    "relative_entropy": relative_entropy,
    "skew_divergence": skew_divergence,
    "trace_distance": trace_distance,
    "fidelity": fidelity,
    "frechet_log": frechet_log,
    "metric_M": metric,
    "differential_skew_divergence": differential_skew_divergence,
    "chi2_log": chi2_log,
    "second_frechet_log": second_frechet_log,
    "frechet_log_quadrature": frechet_log,
    "holevo_chi": holevo_chi,
    "mixing_rate": mixing_rate,
}


def close(value, ref, rtol: float) -> bool:
    """``|value - ref| <= rtol * max(1, |ref|)``, Frobenius norm for matrices."""
    if isinstance(ref, np.ndarray):
        value = np.asarray(value)
        if value.shape != ref.shape or not np.all(np.isfinite(value)):
            return False
        return float(np.linalg.norm(value - ref)) <= rtol * max(1.0, float(np.linalg.norm(ref)))
    if math.isinf(abs(ref)) or math.isinf(abs(value)):
        return value == ref
    return abs(value - ref) <= rtol * max(1.0, abs(ref))
