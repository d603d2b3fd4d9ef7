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

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .linalg import (
    DensityMatrix,
    OperatorLike,
    _adjoint,
    _as_matrix,
    _common_dim,
    _eigh,
    _float_or_array,
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

ALPHA_MIN = 1e-12


def _as_alpha(alpha):
    """A float or array of skew parameters, each checked to lie in ``[ALPHA_MIN,
    1 - ALPHA_MIN]``: ``-log(alpha)`` and ``1 - alpha`` stay well conditioned."""
    if np.ndim(alpha):  # the extremes decide the range; a NaN entry is both
        a = np.asarray(alpha, dtype=np.float64)
        extremes = (a.min(), a.max())
    else:
        a = float(alpha)
        extremes = (a,)
    for x in extremes:
        if not ALPHA_MIN <= x <= 1.0 - ALPHA_MIN:
            raise DomainError(f"skew parameter must lie in [{ALPHA_MIN}, 1-{ALPHA_MIN}], got {x}")
    return a


def _require_per_pair(alpha, mat: np.ndarray) -> None:
    """Raise unless ``alpha`` is one value or one entry per pair of the stack ``mat``."""
    if np.shape(alpha) not in ((), mat.shape[:-2]):
        raise DomainError(f"alpha must be one float or one per pair, got shape {np.shape(alpha)}")


def _nonnegative_pair(x, y, what: str, zero_pair_ok: bool = False) -> tuple:
    """The scalar arguments ``x``, ``y`` of ``what`` as float arrays; each
    entry must be nonnegative, and not both zero unless ``zero_pair_ok``."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if not ((x >= 0.0).all() and (y >= 0.0).all()):  # NaN fails too
        raise DomainError(f"{what} needs nonnegative arguments")
    if not zero_pair_ok and ((x == 0.0) & (y == 0.0)).any():
        raise DomainError(f"{what} undefined at (0, 0)")
    return x, y


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum x_i y_i`` over the last axis, summed as ``np.dot`` sums one pair
    of vectors."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _xlogx(w: np.ndarray) -> np.ndarray:
    """``sum w_i log w_i`` over the last axis, with the 0 log 0 = 0 convention
    (negatives clipped)."""
    pos = np.where(w > 0.0, w, 1.0)  # 1 log 1 = 0 stands for a clipped entry
    return _dot(pos, np.log(pos))


def shannon_entropy(p: Sequence[float]) -> float | np.ndarray:
    """Shannon entropy (natural log) of a nonnegative weight vector, or of
    each row of a 2-D array of them."""
    arr = np.asarray(p, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError(f"Shannon entropy needs finite weights, got {arr}")
    if arr.size and arr.min() < -1e-12:
        raise DomainError("probabilities must be nonnegative")
    return _float_or_array(-_xlogx(np.clip(arr, 0.0, None)))


def von_neumann_entropy(rho: OperatorLike) -> float | np.ndarray:
    """``-trace rho log rho`` for a PSD operator; a raw ``(n, d, d)`` stack
    gives one value per item."""
    w = np.linalg.eigvalsh(_as_matrix(rho, stacked=True))
    _require_psd(w, "entropy argument")
    return _float_or_array(-_xlogx(w))


def _scalar_relative_entropy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`scalar_relative_entropy` of validated float arrays."""
    # the limits replace the 0 and inf entries; an overflow is inf, as in float arithmetic
    with np.errstate(all="ignore"):
        value = a * (np.log(a) - np.log(b)) - (a - b)
    return np.where(a == 0.0, b, np.where(b == 0.0, np.inf, value))


def scalar_relative_entropy(a, b):
    """``a (log a - log b) - (a - b)`` for nonnegative scalars, or entrywise
    for arrays that broadcast together.

    Limits: ``S(0|b) = b`` and ``S(a|0) = inf`` for ``a > 0``.
    """
    a, b = _nonnegative_pair(a, b, "scalar relative entropy", zero_pair_ok=True)
    return _float_or_array(_scalar_relative_entropy(a, b))


def _relative_entropy_on(
    amat: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    keep: np.ndarray,
    quad: np.ndarray,
    wa: np.ndarray | None = None,
) -> np.ndarray:
    """``trace A (log A - log B) - trace(A - B)`` on the support of ``B``, for
    one pair or for each pair of an ``(n, d, d)`` stack.

    ``w``, ``v`` and ``keep`` are the eigenpairs and support mask of ``B``
    (as :func:`qsd.linalg._support` returns them) and ``quad`` the diagonal of
    ``A`` in that eigenbasis; ``A`` must not leak outside the kept columns.
    ``wa``, when given, is ``eigvalsh(A)``, already computed.
    An item whose support is not full sees ``A`` through the kept
    eigenvectors only: the dropped ones are zeroed, so each item of a stack
    gets the value of its single call.
    """
    # a term that overflows makes the value inf or NaN, which callers judge
    with np.errstate(over="ignore", invalid="ignore"):
        if keep[..., 0].all():  # eigenvalues ascend: the support is full
            term_alog_a = _xlogx(np.linalg.eigvalsh(amat) if wa is None else wa)
            trace_a = _trace(amat)
            log_w, mass_b = np.log(w), w.sum(axis=-1)
        else:
            # a full item keeps A itself, as in its single call
            vk = v * keep[..., None, :]
            sub = np.where(keep[..., 0, None, None], amat, _adjoint(vk) @ amat @ vk)
            term_alog_a, trace_a = _xlogx(np.linalg.eigvalsh(sub)), _trace(sub)
            log_w, mass_b = np.log(np.where(keep, w, 1.0)), w.sum(axis=-1, where=keep)
        return term_alog_a - _dot(log_w, quad) - (trace_a - mass_b)


def relative_entropy(a: OperatorLike, b: OperatorLike) -> float | np.ndarray:
    """Relative entropy ``trace A (log A - log B) - trace(A - B)``.

    Both operators are restricted to the support of ``B``; the result is
    infinite exactly when ``A`` carries trace mass outside that support
    beyond tolerance. A value that overflows without a leak raises
    :class:`DomainError`. Raw ``(n, d, d)`` stacks give one value per pair.
    """
    amat, bmat = _common_dim(a, b, stacked=True)
    wa, wb, vb, keep, quad, leak = _psd_against_support(amat, bmat)
    # the value is finite where A does not leak; it is 0 where B vanishes
    value = np.where(leak > 0.0, np.inf, 0.0)
    finite = (leak == 0.0) & keep[..., -1]
    if finite.any():  # only then are the eigenvalues of A needed
        inside = _relative_entropy_on(amat, wb, vb, keep, quad, wa)
        overflow = finite & ~np.isfinite(inside)
        if overflow.any():
            raise DomainError(
                f"relative entropy overflows ({np.extract(overflow, inside)[0]}) on these operands"
            )
        value = np.where(finite, inside, value)
    return _float_or_array(value)


def scalar_skew_divergence(b, c, alpha):
    """Skew divergence of nonnegative scalars: ``S(b || a b + (1-a) c) / (-log a)``,
    or entrywise for arrays that broadcast together."""
    a = _as_alpha(alpha)
    b, c = _nonnegative_pair(b, c, "scalar skew divergence")
    # the mixture of nonnegative b and c is nonnegative: no second validation
    return _float_or_array(_scalar_relative_entropy(b, a * b + (1.0 - a) * c) / -np.log(a))


def _skewed_relative_entropy(amat: np.ndarray, bmat: np.ndarray, a) -> np.ndarray:
    """``S(A || a A + (1-a) B)`` on the support of the mixture, for one pair
    or for each pair of a stack at its own entry of ``a``.

    The mixture has the same support as ``A + B`` for any interior ``a``, so
    ``A`` never leaks outside it.
    """
    wt, vt, keep = _support(_skewed_mixture(amat, bmat, a))
    if not keep[..., -1].all():
        raise DomainError("A + B vanishes; skew divergence undefined")
    return _relative_entropy_on(amat, wt, vt, keep, _support_quad(amat, vt))


def skew_divergence(
    rho: OperatorLike, sigma: OperatorLike, alpha: float
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
    # so drop anything at the numerical-zero level before summing. That
    # noise scales with ||rho|| ||sigma||, which for two pure states of small
    # overlap lies far above the largest eigenvalue |<psi|phi>|^2
    scale = np.maximum(wi[..., -1:], w[..., -1:] * ws[..., -1:])
    thr = default_support_threshold(inner.shape[-1], scale)
    value = np.sqrt(np.where(wi > thr, wi, 0.0)).sum(axis=-1)
    # Cauchy-Schwarz: F <= sqrt(trace rho trace sigma), which is 1 for states
    bound = np.sqrt(w.sum(axis=-1)) * np.sqrt(np.maximum(ws, 0.0).sum(axis=-1))
    return _float_or_array(np.minimum(bound, np.maximum(0.0, value)))


def apply_channel(kraus: Sequence[np.ndarray], rho: OperatorLike) -> DensityMatrix:
    """Apply a CPTP map given by Kraus operators: ``sum K rho K*``, divided
    by its trace when ``rho`` is a state (trace within ``STATE_TRACE_TOL`` of
    1), otherwise a positive operator. A stack of Kraus sets ``(n, k, d, d)``
    maps each item of a raw ``(n, d, d)`` stack by its own set, into the
    read-only stack of the images; a zero block pads a set and adds zeros.

    Raises if a Kraus set is not complete: some entry of ``sum K* K - id``
    exceeds 1e-9 in modulus. Since ``tr(sum K rho K*) - tr rho =
    tr(rho (sum K* K - id))``, a complete set moves a positive operator's
    trace by at most ``dim * 1e-9`` times that trace.
    """
    if len(kraus) == 0:
        raise DomainError("empty Kraus set")
    try:
        ops = np.asarray(kraus, dtype=np.complex128)
    except ValueError as exc:  # blocks of different shapes make no array
        raise DimensionMismatchError("Kraus operators have different shapes") from exc
    if ops.ndim not in (3, 4):
        raise DomainError("every Kraus operator must be a matrix")
    blocks = np.moveaxis(ops, -3, 0)
    completeness = sum(_adjoint(k) @ k for k in blocks)
    if np.abs(completeness - np.eye(ops.shape[-1])).max() > 1e-9:
        raise DomainError("Kraus operators do not satisfy sum K*K = id within 1e-9")

    rmat = _as_matrix(rho, stacked=ops.ndim == 4)
    if rmat.shape[:-2] != ops.shape[:-3] or rmat.shape[-1] != ops.shape[-1]:
        raise DimensionMismatchError("state dimension does not match the channel")
    return _like_input(rmat, sum(k @ rmat @ _adjoint(k) for k in blocks))
