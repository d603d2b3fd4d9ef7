"""Entropies and divergences between positive operators.

Conventions: natural logarithm throughout; ``0 log 0 = 0``; relative entropy
of non-normalized positive operators carries the ``- trace(A - B)`` correction
so that it stays nonnegative. The skew divergence

    SD_a(A||B) = S(A || a A + (1-a) B) / (-log a)

is always finite because the support of ``A`` is contained in the support of
the skewed mixture. Both divergences share one core that works in the
eigenbasis of the second argument (``B`` or the mixture) on its support,
given as a mask: eigenvectors outside it are zeroed, not removed. The
operand validation and that eigendecomposition see the unrestricted matrices.
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
    _adjoint,
    _as_matrix,
    _common_dim,
    _eigh,
    _like_input,
    _psd_against_support,
    _psd_operands,
    _require_psd,
    _skewed_mixture,
    _support,
    _support_quad,
    _trace,
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


def _as_alpha(alpha: AlphaLike):
    """The skew parameter as a float, or an array of them validated entrywise."""
    if isinstance(alpha, SkewParameter):
        return alpha.alpha
    if np.ndim(alpha):  # the range holds every entry when it holds both extremes
        a = np.asarray(alpha, dtype=np.float64)
        SkewParameter(float(a.min())), SkewParameter(float(a.max()))
        return a
    return SkewParameter(float(alpha)).alpha


def _require_per_pair(alpha, mat: np.ndarray) -> None:
    """Raise unless ``alpha`` is one value or one entry per pair of the stack ``mat``."""
    if np.shape(alpha) not in ((), mat.shape[:-2]):
        raise DomainError(f"alpha must be one float or one per pair, got shape {np.shape(alpha)}")


def _float_or_array(value):
    """A 0-d result as a float; an array result as it is."""
    return float(value) if np.ndim(value) == 0 else value


def _nonnegative_pair(x, y, what: str, zero_pair_ok: bool = False) -> tuple:
    """The scalar arguments ``x``, ``y`` of ``what`` as float arrays; each
    entry must be nonnegative, and not both zero unless ``zero_pair_ok``."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if not ((x >= 0.0).all() and (y >= 0.0).all()):  # NaN fails too
        raise DomainError(f"{what} needs nonnegative arguments")
    if not zero_pair_ok and ((x == 0.0) & (y == 0.0)).any():
        raise DomainError(f"{what} undefined at (0, 0)")
    return x, y


@dataclass(frozen=True)
class DivergenceValue:
    """Value of a divergence that may be infinite.

    ``support_defect`` is the trace mass of the first argument outside the
    support of the second; it is 0 exactly when the value is finite. For a
    stack of pairs both fields are arrays, one entry per pair, and the rule
    holds entry by entry.
    """

    value: float | np.ndarray
    support_defect: float | np.ndarray = 0.0

    def __post_init__(self):
        mismatch = self.is_infinite != (self.support_defect > 0.0)
        if mismatch.any() if isinstance(mismatch, np.ndarray) else mismatch:
            raise DomainError(
                "infinite divergence values must carry a positive support defect"
            )

    @property
    def is_infinite(self) -> bool | np.ndarray:
        """Whether the value is infinite; for a stack, one flag per pair."""
        if isinstance(self.value, np.ndarray):
            return np.isinf(self.value)
        return math.isinf(self.value)

    def __float__(self) -> float:
        if isinstance(self.value, np.ndarray):
            raise TypeError("a stacked DivergenceValue holds one value per pair; read .value")
        return self.value


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum x_i y_i`` over the last axis, summed as ``np.dot`` sums one pair
    of vectors."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _xlogx(w: np.ndarray) -> np.ndarray:
    """``sum w_i log w_i`` over the last axis, with the 0 log 0 = 0 convention
    (negatives clipped)."""
    pos = np.where(w > 0.0, w, 1.0)  # 1 log 1 = 0 stands for a clipped entry
    return _dot(pos, np.log(pos))


def shannon_entropy(p: Sequence[float]) -> float:
    """Shannon entropy (natural log) of a nonnegative weight vector."""
    arr = np.asarray(p, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError(f"Shannon entropy needs finite weights, got {arr}")
    if arr.size and arr.min() < -1e-12:
        raise DomainError("probabilities must be nonnegative")
    return -float(_xlogx(np.clip(arr, 0.0, None)))


def von_neumann_entropy(rho: OperatorLike) -> float:
    """``-trace rho log rho`` for a PSD operator."""
    w = np.linalg.eigvalsh(_as_matrix(rho))
    _require_psd(w, "entropy argument")
    return -float(_xlogx(w))


def scalar_relative_entropy(a, b):
    """``a (log a - log b) - (a - b)`` for nonnegative scalars, or entrywise
    for arrays that broadcast together.

    Limits: ``S(0|b) = b`` and ``S(a|0) = inf`` for ``a > 0``.
    """
    a, b = _nonnegative_pair(a, b, "scalar relative entropy", zero_pair_ok=True)
    # the limits replace the 0 and inf entries; an overflow is inf, as in float arithmetic
    with np.errstate(all="ignore"):
        value = a * (np.log(a) - np.log(b)) - (a - b)
    return _float_or_array(np.where(a == 0.0, b, np.where(b == 0.0, INFINITE, value)))


def _relative_entropy_on(
    amat: np.ndarray, w: np.ndarray, v: np.ndarray, keep: np.ndarray, quad: np.ndarray
) -> np.ndarray:
    """``trace A (log A - log B) - trace(A - B)`` on the support of ``B``, for
    one pair or for each pair of an ``(n, d, d)`` stack.

    ``w``, ``v`` and ``keep`` are the eigenpairs and support mask of ``B``
    (as :func:`qsd.linalg._support` returns them) and ``quad`` the diagonal of
    ``A`` in that eigenbasis; ``A`` must not leak outside the kept columns.
    An item whose support is not full sees ``A`` through the kept
    eigenvectors only: the dropped ones are zeroed, so each item of a stack
    gets the value of its single call.
    """
    # a term that overflows makes the value inf or NaN, which callers judge
    with np.errstate(over="ignore", invalid="ignore"):
        if keep[..., 0].all():  # eigenvalues ascend: the support is full
            term_alog_a = _xlogx(np.linalg.eigvalsh(amat))
            trace_a = _trace(amat)
            log_w, mass_b = np.log(w), w.sum(axis=-1)
        else:
            # a full item keeps A itself, as in its single call
            vk = v * keep[..., None, :]
            sub = np.where(keep[..., 0, None, None], amat, _adjoint(vk) @ amat @ vk)
            term_alog_a, trace_a = _xlogx(np.linalg.eigvalsh(sub)), _trace(sub)
            log_w, mass_b = np.log(np.where(keep, w, 1.0)), w.sum(axis=-1, where=keep)
        return term_alog_a - _dot(log_w, quad) - (trace_a - mass_b)


def relative_entropy(a: OperatorLike, b: OperatorLike) -> DivergenceValue:
    """Relative entropy ``trace A (log A - log B) - trace(A - B)``.

    Both operators are restricted to the support of ``B``; if ``A`` carries
    trace mass outside that support beyond tolerance the result is infinite,
    with the leaked mass reported in ``support_defect``. A value that
    overflows without a leak raises :class:`DomainError`. Raw ``(n, d, d)``
    stacks give one value and one defect per pair, as arrays.
    """
    amat, bmat = _common_dim(a, b, stacked=True)
    wb, vb, keep, quad, leak = _psd_against_support(amat, bmat)
    # the value is finite where A does not leak; it is 0 where B vanishes
    value = np.where(leak > 0.0, INFINITE, 0.0)
    finite = (leak == 0.0) & keep[..., -1]
    if finite.any():  # only then are the eigenvalues of A needed
        inside = _relative_entropy_on(amat, wb, vb, keep, quad)
        overflow = finite & ~np.isfinite(inside)
        if overflow.any():
            raise DomainError(
                f"relative entropy overflows ({np.extract(overflow, inside)[0]}) on these operands"
            )
        value = np.where(finite, inside, value)
    return DivergenceValue(_float_or_array(value), _float_or_array(leak))


def scalar_skew_divergence(b, c, alpha):
    """Skew divergence of nonnegative scalars: ``S(b || a b + (1-a) c) / (-log a)``,
    or entrywise for arrays that broadcast together."""
    a = _as_alpha(alpha)
    b, c = _nonnegative_pair(b, c, "scalar skew divergence")
    return _float_or_array(scalar_relative_entropy(b, a * b + (1.0 - a) * c) / -np.log(a))


def _skewed_relative_entropy(amat: np.ndarray, bmat: np.ndarray, a) -> np.ndarray:
    """``S(A || a A + (1-a) B)`` on the support of the mixture, for one pair
    or for each pair of an ``(n, d, d)`` stack at its own entry of ``a``.

    The mixture has the same support as ``A + B`` for any interior ``a``, so
    ``A`` never leaks outside it.
    """
    wt, vt, keep = _support(_skewed_mixture(amat, bmat, a))
    if not keep[..., -1].all():
        raise DomainError("A + B vanishes; skew divergence undefined")
    return _relative_entropy_on(amat, wt, vt, keep, _support_quad(amat, vt))


def skew_divergence(
    rho: OperatorLike, sigma: OperatorLike, alpha: AlphaLike
) -> float | np.ndarray:
    """Quantum skew divergence ``S(rho || a rho + (1-a) sigma) / (-log a)``.

    Finite for every pair of positive operators; lies in [0, 1] for states.
    Raw ``(n, d, d)`` stacks give one value per pair, at one ``alpha`` or at
    an array of one entry per pair.
    """
    a = _as_alpha(alpha)
    rmat, smat = _psd_operands(rho, sigma, stacked=True)
    _require_per_pair(a, rmat)
    return _float_or_array(_skewed_relative_entropy(rmat, smat, a) / -np.log(a))


def _trace_distance(rmat: np.ndarray, smat: np.ndarray) -> np.ndarray:
    """Half the trace norm of ``rho - sigma``, for one pair or each pair of a stack."""
    # halving before the sum keeps every representable distance finite
    return (0.5 * np.abs(np.linalg.eigvalsh(rmat - smat))).sum(axis=-1)


def trace_distance(rho: OperatorLike, sigma: OperatorLike) -> float | np.ndarray:
    """Half the trace norm of ``rho - sigma``; raw ``(n, d, d)`` stacks give
    one value per pair."""
    return _float_or_array(_trace_distance(*_common_dim(rho, sigma, stacked=True)))


def fidelity(rho: OperatorLike, sigma: OperatorLike) -> float | np.ndarray:
    """Uhlmann fidelity ``trace sqrt(sqrt(rho) sigma sqrt(rho))`` of positive
    operators; ``F(c rho, c sigma) = c F(rho, sigma)``. Raw ``(n, d, d)``
    stacks give one value per pair."""
    rmat, smat = _common_dim(rho, sigma, stacked=True)
    w, v = _eigh(rmat)
    _require_psd(w, "first argument")
    ws = np.linalg.eigvalsh(smat)
    _require_psd(ws, "second argument")
    w = np.maximum(w, 0.0)
    sqrt_r = (v * np.sqrt(w)[..., None, :]) @ _adjoint(v)
    inner = sqrt_r @ smat @ sqrt_r
    wi = np.linalg.eigvalsh(inner)
    # eigenvalue noise of order eps turns into sqrt(eps) after the root,
    # so drop anything at the numerical-zero level before summing
    thr = default_support_threshold(inner.shape[-1], wi[..., -1:])
    value = np.sqrt(np.where(wi > thr, wi, 0.0)).sum(axis=-1)
    # Cauchy-Schwarz: F <= sqrt(trace rho trace sigma), which is 1 for states
    bound = np.sqrt(w.sum(axis=-1)) * np.sqrt(np.maximum(ws, 0.0).sum(axis=-1))
    return _float_or_array(np.minimum(bound, np.maximum(0.0, value)))


def apply_channel(kraus: Sequence[np.ndarray], rho: OperatorLike) -> DensityMatrix:
    """Apply a CPTP map given by Kraus operators: ``sum K rho K*``.

    Raises if the Kraus set is not complete: some entry of ``sum K* K - id``
    exceeds 1e-9 in modulus. Since ``tr(sum K rho K*) - tr rho =
    tr(rho (sum K* K - id))``, a complete set moves a positive operator's
    trace by at most ``dim * 1e-9`` times that trace.
    """
    if not kraus:
        raise DomainError("empty Kraus set")
    ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
    if any(k.ndim != 2 for k in ops):
        raise DomainError("every Kraus operator must be a matrix")
    if any(k.shape != ops[0].shape for k in ops):
        raise DimensionMismatchError("Kraus operators have different shapes")
    dim = ops[0].shape[1]
    completeness = sum(k.conj().T @ k for k in ops)
    if np.abs(completeness - np.eye(dim)).max() > 1e-9:
        raise DomainError("Kraus operators do not satisfy sum K*K = id within 1e-9")

    rmat = _as_matrix(rho)
    if rmat.shape[0] != dim:
        raise DimensionMismatchError("state dimension does not match the channel")

    return _like_input(rho, sum(k @ rmat @ k.conj().T for k in ops))
