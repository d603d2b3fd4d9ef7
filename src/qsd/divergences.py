"""Entropies and divergences between positive operators.

Conventions: natural logarithm throughout; ``0 log 0 = 0``; relative entropy
of non-normalized positive operators carries the ``- trace(A - B)`` correction
so that it stays nonnegative. The skew divergence

    SD_a(A||B) = S(A || a A + (1-a) B) / (-log a)

is always finite because the support of ``A`` is contained in the support of
the skewed mixture; both arguments are restricted to ``supp(A+B)`` before any
spectral call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .linalg import (
    DensityMatrix,
    OperatorLike,
    _as_matrix,
    _common_dim,
    _eigh,
    _like_input,
    _psd_operands,
    _require_psd,
    _support,
    _support_quad,
    default_support_threshold,
)

INFINITE = math.inf

ALPHA_MIN = 1e-12


@dataclass(frozen=True)
class SkewParameter:
    """Skewing weight, strictly inside (0, 1).

    Values within ``1e-12`` of either endpoint are rejected to keep
    ``-log(alpha)`` and ``1 - alpha`` well conditioned.
    """

    alpha: float

    def __post_init__(self):
        a = self.alpha
        if not (ALPHA_MIN <= a <= 1.0 - ALPHA_MIN):
            raise DomainError(
                f"skew parameter must lie in [{ALPHA_MIN}, 1-{ALPHA_MIN}], got {a}"
            )

    def __float__(self) -> float:
        return self.alpha


AlphaLike = Union[SkewParameter, float]


def _as_alpha(alpha: AlphaLike) -> float:
    if isinstance(alpha, SkewParameter):
        return alpha.alpha
    return SkewParameter(float(alpha)).alpha


@dataclass(frozen=True)
class DivergenceValue:
    """Value of a divergence that may be infinite.

    ``support_defect`` is the trace mass of the first argument outside the
    support of the second; it is 0 exactly when the value is finite.
    """

    value: float
    support_defect: float = 0.0

    def __post_init__(self):
        if math.isinf(self.value) != (self.support_defect > 0.0):
            raise DomainError(
                "infinite divergence values must carry a positive support defect"
            )

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    def __float__(self) -> float:
        return self.value


def _xlogx(w: np.ndarray) -> float:
    """``sum w_i log w_i`` with the 0 log 0 = 0 convention (negatives clipped)."""
    pos = w[w > 0.0]
    if pos.size == 0:
        return 0.0
    return float(np.dot(pos, np.log(pos)))


def shannon_entropy(p: Sequence[float]) -> float:
    """Shannon entropy (natural log) of a nonnegative weight vector."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.size and arr.min() < -1e-12:
        raise DomainError("probabilities must be nonnegative")
    return -_xlogx(np.clip(arr, 0.0, None))


def von_neumann_entropy(rho: OperatorLike) -> float:
    """``-trace rho log rho`` for a PSD operator."""
    w = np.linalg.eigvalsh(_as_matrix(rho))
    _require_psd(w, "entropy argument")
    return -_xlogx(w)


def scalar_relative_entropy(a: float, b: float) -> float:
    """``a (log a - log b) - (a - b)`` for nonnegative scalars.

    Limits: ``S(0|b) = b`` and ``S(a|0) = inf`` for ``a > 0``.
    """
    if a < 0.0 or b < 0.0:
        raise DomainError("scalar relative entropy needs nonnegative arguments")
    if a == 0.0:
        return b
    if b == 0.0:
        return INFINITE
    return a * (math.log(a) - math.log(b)) - (a - b)


def relative_entropy(a: OperatorLike, b: OperatorLike) -> DivergenceValue:
    """Relative entropy ``trace A (log A - log B) - trace(A - B)``.

    Both operators are restricted to the support of ``B``; if ``A`` carries
    trace mass outside that support beyond tolerance the result is infinite,
    with the leaked mass reported in ``support_defect``.
    """
    amat, bmat = _psd_operands(a, b)
    wb, vb, keep = _support(bmat)
    quad, leak = _support_quad(amat, vb, keep)
    if leak:
        return DivergenceValue(value=INFINITE, support_defect=leak)

    if not np.any(keep):
        return DivergenceValue(value=0.0)

    basis = vb[:, keep]
    a_r = basis.conj().T @ amat @ basis
    wa_r = np.linalg.eigvalsh(a_r)
    term_alog_a = _xlogx(wa_r)
    term_alog_b = float(np.dot(np.log(wb[keep]), quad[keep]))
    trace_a_r = float(np.trace(a_r).real)
    trace_b_r = float(wb[keep].sum())
    value = term_alog_a - term_alog_b - (trace_a_r - trace_b_r)
    return DivergenceValue(value=value)


def scalar_skew_divergence(b: float, c: float, alpha: AlphaLike) -> float:
    """Skew divergence of nonnegative scalars by direct substitution.

    ``(b (log b - log(a b + (1-a) c)) - (1-a)(b - c)) / (-log a)``.
    """
    a = _as_alpha(alpha)
    if b < 0.0 or c < 0.0:
        raise DomainError("scalar skew divergence needs nonnegative arguments")
    if b == 0.0 and c == 0.0:
        raise DomainError("scalar skew divergence undefined at (0, 0)")
    neg_log_a = -math.log(a)
    if b == 0.0:
        return (1.0 - a) * c / neg_log_a
    mix = a * b + (1.0 - a) * c
    return (b * (math.log(b) - math.log(mix)) - (1.0 - a) * (b - c)) / neg_log_a


def _skewed_relative_entropy(amat: np.ndarray, bmat: np.ndarray, a: float) -> float:
    """``S(A || a A + (1-a) B)`` with both operands restricted to supp(A+B).

    The mixture has the same support as ``A + B`` for any interior ``a``, so
    its eigenbasis doubles as the restriction basis.
    """
    tau = a * amat + (1.0 - a) * bmat
    wt, vt, keep = _support(tau)
    if not np.any(keep):
        raise DomainError("A + B vanishes; skew divergence undefined")

    quad, _ = _support_quad(amat, vt, keep)
    term_alog_tau = float(np.dot(np.log(wt[keep]), quad[keep]))

    if np.all(keep):
        wa = np.linalg.eigvalsh(amat)
        term_alog_a = _xlogx(wa)
        trace_a_r = float(np.trace(amat).real)
    else:
        basis = vt[:, keep]
        a_r = basis.conj().T @ amat @ basis
        term_alog_a = _xlogx(np.linalg.eigvalsh(a_r))
        trace_a_r = float(np.trace(a_r).real)
    trace_tau_r = float(wt[keep].sum())
    return term_alog_a - term_alog_tau - (trace_a_r - trace_tau_r)


def skew_divergence(rho: OperatorLike, sigma: OperatorLike, alpha: AlphaLike) -> float:
    """Quantum skew divergence ``S(rho || a rho + (1-a) sigma) / (-log a)``.

    Finite for every pair of positive operators; lies in [0, 1] for states.
    """
    a = _as_alpha(alpha)
    amat, bmat = _psd_operands(rho, sigma)
    return _skewed_relative_entropy(amat, bmat, a) / (-math.log(a))


def trace_distance(rho: OperatorLike, sigma: OperatorLike) -> float:
    """Half the trace norm of ``rho - sigma``."""
    rmat, smat = _common_dim(rho, sigma)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rmat - smat)).sum())


def fidelity(rho: OperatorLike, sigma: OperatorLike) -> float:
    """Uhlmann fidelity ``trace sqrt(sqrt(rho) sigma sqrt(rho))``."""
    rmat, smat = _common_dim(rho, sigma)
    w, v = _eigh(rmat)
    _require_psd(w, "first argument")
    _require_psd(np.linalg.eigvalsh(smat), "second argument")
    sqrt_r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_r @ smat @ sqrt_r
    wi = np.linalg.eigvalsh(inner)
    # eigenvalue noise of order eps turns into sqrt(eps) after the root,
    # so drop anything at the numerical-zero level before summing
    thr = default_support_threshold(inner.shape[0], float(max(wi[-1], 0.0)))
    value = float(np.sqrt(wi[wi > thr]).sum())
    return min(1.0, max(0.0, value))


def apply_channel(kraus: Sequence[np.ndarray], rho: OperatorLike) -> DensityMatrix:
    """Apply a CPTP map given by Kraus operators: ``sum K rho K*``.

    Raises if the Kraus set is not complete (``sum K* K != id`` within 1e-9)
    or if the application fails to preserve the trace within 1e-10.
    """
    if not kraus:
        raise DomainError("empty Kraus set")
    ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
    dim = ops[0].shape[1]
    completeness = sum(k.conj().T @ k for k in ops)
    if np.abs(completeness - np.eye(dim)).max() > 1e-9:
        raise DomainError("Kraus operators do not satisfy sum K*K = id within 1e-9")

    rmat = _as_matrix(rho)
    if rmat.shape[0] != dim:
        raise DimensionMismatchError("state dimension does not match the channel")

    out = sum(k @ rmat @ k.conj().T for k in ops)
    tr_in = float(np.trace(rmat).real)
    tr_out = float(np.trace(out).real)
    if abs(tr_out - tr_in) > 1e-10 * max(1.0, abs(tr_in)):
        raise DomainError(
            f"channel application changed the trace by {tr_out - tr_in:.3e}"
        )
    return _like_input(rho, out)
