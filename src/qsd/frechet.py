"""First and second derivatives of the operator logarithm and the calculus
built on them.

The primary evaluation path is the divided-difference (Daleckii-Krein) form in
the eigenbasis of the base operator, which is exact up to eigendecomposition
error. The integral representations

    T_A(D) = int_0^inf (A+s)^-1 D (A+s)^-1 ds
    R_A(D) = 2 int_0^inf (A+s)^-1 D (A+s)^-1 D (A+s)^-1 ds

are implemented with composite Gauss-Legendre quadrature (after mapping
``s = u/(1-u)``) purely as an independent cross-check: they never touch the
eigenvector path, only linear solves.

The oracle routes evaluate their nodes in stacked blocks: the shifted matrices
``A + s_k`` of the quadrature (or the mixtures of :func:`sd_by_averaging`) form
one ``(n, d, d)`` array per block, handled by a single batched LAPACK call.
A block holds at most ``_NODE_BLOCK_ELEMS`` complex entries per array, so
memory stays bounded at every dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError
from .divergences import AlphaLike, _as_alpha
from .linalg import (
    HermitianOperator,
    OperatorLike,
    _common_dim,
    _eigh,
    _psd_operands,
    _require_pd,
    _support,
    _support_quad,
)

# Largest number of complex entries in one stacked (n, d, d) node array
# (2**16 entries, 1 MiB); the oracle node loops run in blocks of this size.
_NODE_BLOCK_ELEMS = 1 << 16

# Relative eigenvalue gap below which divided differences switch to their
# confluent forms; prevents catastrophic cancellation of log differences.
DD_CLOSE_RTOL = 1e-7


def _log_dd1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First divided difference of log on positive arguments (vectorized).

    Close pairs use the midpoint derivative ``2/(x+y)``; at the switch point
    the two branches agree to machine precision.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    close = np.abs(x - y) <= DD_CLOSE_RTOL * np.maximum(x, y)
    denom = np.where(close, 1.0, x - y)
    direct = (np.log(x) - np.log(y)) / denom
    return np.where(close, 2.0 / (x + y), direct)


def _log_dd2(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Second divided difference of log, fully symmetric in its arguments.

    Evaluated through the extreme pair so the outer division carries the
    largest available gap; a fully confluent triple falls back to the limit
    ``-1/(2 m^2)`` at the midpoint.
    """
    x, y, z = np.broadcast_arrays(
        np.asarray(x, dtype=np.float64),
        np.asarray(y, dtype=np.float64),
        np.asarray(z, dtype=np.float64),
    )
    lo = np.minimum(np.minimum(x, y), z)
    hi = np.maximum(np.maximum(x, y), z)
    mid = x + y + z - lo - hi
    confluent = (hi - lo) <= DD_CLOSE_RTOL * hi
    denom = np.where(confluent, 1.0, lo - hi)
    direct = (_log_dd1(lo, mid) - _log_dd1(mid, hi)) / denom
    m = (lo + mid + hi) / 3.0
    return np.where(confluent, -1.0 / (2.0 * m * m), direct)


class DividedDifferenceTable:
    """Divided differences of log over a fixed positive spectrum.

    ``first_dd[i, j] = log^[1](w_i, w_j)`` and
    ``second_dd[i, j, k] = log^[2](w_i, w_j, w_k)``; the rank-3 table is only
    materialized on first access.
    """

    def __init__(self, eigenvalues: Sequence[float]):
        w = np.asarray(eigenvalues, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise DomainError("eigenvalues must form a nonempty vector")
        if w.min() <= 0.0:
            raise DomainError("divided differences of log need positive eigenvalues")
        self.eigenvalues = w

    @cached_property
    def first_dd(self) -> np.ndarray:
        w = self.eigenvalues
        return _log_dd1(w[:, None], w[None, :])

    @cached_property
    def second_dd(self) -> np.ndarray:
        w = self.eigenvalues
        return _log_dd2(w[:, None, None], w[None, :, None], w[None, None, :])


def _pd_eigh(mat: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a positive-definite Hermitian matrix."""
    w, v = _eigh(mat)
    _require_pd(w, what)
    return w, v


def frechet_log(a: OperatorLike, delta: OperatorLike) -> HermitianOperator:
    """Derivative of the operator logarithm at ``a`` in direction ``delta``."""
    mat, dmat = _common_dim(a, delta)
    w, v = _pd_eigh(mat, "base operator")
    dtil = v.conj().T @ dmat @ v
    f1 = _log_dd1(w[:, None], w[None, :])
    return HermitianOperator(v @ (f1 * dtil) @ v.conj().T)


def metric_M(a: OperatorLike, b: OperatorLike, c: OperatorLike) -> complex:
    """Monotone metric ``trace B* T_A(C)`` for a positive-definite base ``A``."""
    mat, bmat, cmat = _common_dim(a, b, c)
    w, v = _pd_eigh(mat, "base operator")
    btil = v.conj().T @ bmat @ v
    ctil = v.conj().T @ cmat @ v
    f1 = _log_dd1(w[:, None], w[None, :])
    return complex(np.sum(np.conj(btil) * f1 * ctil))


def second_frechet_log(
    a: OperatorLike, delta1: OperatorLike, delta2: OperatorLike | None = None
) -> HermitianOperator:
    """Negative second derivative of the operator logarithm, bilinear in the
    two perturbations (``delta2`` defaults to ``delta1``)."""
    mat, d1, d2 = _common_dim(a, delta1, delta1 if delta2 is None else delta2)
    w, v = _pd_eigh(mat, "base operator")
    d1t = v.conj().T @ d1 @ v
    d2t = v.conj().T @ d2 @ v
    f2 = DividedDifferenceTable(w).second_dd
    core = np.einsum("ik,ikj,kj->ij", d1t, f2, d2t) + np.einsum(
        "ik,ikj,kj->ij", d2t, f2, d1t
    )
    return HermitianOperator(-(v @ core @ v.conj().T))


# ---------------------------------------------------------------------------
# Quadrature cross-checks (independent of the eigenvector path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureScheme:
    """Composite Gauss-Legendre rule in the variable ``u = s/(1+s)``.

    ``panels`` is the minimum panel count; for spectra spanning several
    decades the mesh is graded geometrically so each decade of the spectrum
    gets resolved, which a uniform mesh cannot do for ill-conditioned
    operators.
    """

    panels: int = 8
    nodes_per_panel: int = 16

    def __post_init__(self):
        if self.panels < 1 or self.nodes_per_panel < 2:
            raise DomainError("quadrature needs at least 1 panel of 2 nodes")
        if self.panels * self.nodes_per_panel < 64:
            raise DomainError("quadrature needs at least 64 nodes in total")


_DEFAULT_SCHEME = QuadratureScheme()
_MAX_QUAD_NODES = 4096


def _composite_gl(edges: np.ndarray, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    x, wts = np.polynomial.legendre.leggauss(nodes_per_panel)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * wts[None, :]).ravel()
    return nodes, weights


def _graded_u_edges(wmin: float, wmax: float, min_panels: int, density: int = 1) -> np.ndarray:
    """Panel edges in u-space, geometrically graded over the spectral range."""
    s_lo = wmin * 1e-3
    s_hi = wmax * 1e3
    decades = math.log10(s_hi / s_lo)
    n_geo = max(min_panels - 2, int(math.ceil(decades * density)))
    s_edges = np.geomspace(s_lo, s_hi, n_geo + 1)
    u_edges = s_edges / (1.0 + s_edges)
    return np.concatenate(([0.0], u_edges, [1.0]))


def _node_blocks(n_nodes: int, dim: int) -> list[slice]:
    """Consecutive slices of ``range(n_nodes)``, each short enough that a
    stack of that many ``dim x dim`` matrices fits in ``_NODE_BLOCK_ELEMS``."""
    step = max(1, _NODE_BLOCK_ELEMS // (dim * dim))
    return [slice(lo, min(lo + step, n_nodes)) for lo in range(0, n_nodes, step)]


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _integral_pass(
    mat: np.ndarray, dmat: np.ndarray, u_edges: np.ndarray, nodes_per_panel: int, second: bool
) -> np.ndarray:
    dim = mat.shape[0]
    eye = np.eye(dim)
    u, wts = _composite_gl(u_edges, nodes_per_panel)
    s = u / (1.0 - u)
    coef = wts * (1.0 / (1.0 - u) ** 2)
    if second:
        coef = 2.0 * coef
    total = np.zeros_like(mat)
    for block in _node_blocks(s.size, dim):
        shifted = mat + s[block, None, None] * eye  # stack of A + s_k
        left = np.linalg.solve(shifted, np.broadcast_to(dmat, shifted.shape))  # (A+s)^-1 D
        rhs = left @ left if second else left
        core = _adjoint(np.linalg.solve(shifted, _adjoint(rhs)))
        total += np.tensordot(coef[block], core, axes=1)
    return total


def _quadrature_log_derivative(
    a: OperatorLike, delta: OperatorLike, scheme: QuadratureScheme | None, second: bool
) -> HermitianOperator:
    mat, dmat = _common_dim(a, delta)
    w = np.linalg.eigvalsh(mat)
    _require_pd(w, "base operator")
    wmin, wmax = float(w[0]), float(w[-1])

    if scheme is not None:
        edges = _graded_u_edges(wmin, wmax, scheme.panels)
        return HermitianOperator(
            _integral_pass(mat, dmat, edges, scheme.nodes_per_panel, second)
        )

    nodes = _DEFAULT_SCHEME.nodes_per_panel
    density = 1
    edges = _graded_u_edges(wmin, wmax, _DEFAULT_SCHEME.panels, density)
    estimate = _integral_pass(mat, dmat, edges, nodes, second)
    while (len(edges) - 1) * nodes * 2 <= _MAX_QUAD_NODES:
        density *= 2
        edges = _graded_u_edges(wmin, wmax, _DEFAULT_SCHEME.panels, density)
        refined = _integral_pass(mat, dmat, edges, nodes, second)
        change = np.linalg.norm(refined - estimate)
        estimate = refined
        if change <= 1e-8 * max(1.0, float(np.linalg.norm(refined))):
            break
    return HermitianOperator(estimate)


def frechet_log_quadrature(
    a: OperatorLike, delta: OperatorLike, scheme: QuadratureScheme | None = None
) -> HermitianOperator:
    """Quadrature evaluation of the log derivative (oracle route)."""
    return _quadrature_log_derivative(a, delta, scheme, second=False)


def second_frechet_log_quadrature(
    a: OperatorLike, delta: OperatorLike, scheme: QuadratureScheme | None = None
) -> HermitianOperator:
    """Quadrature evaluation of the quadratic log derivative (oracle route)."""
    return _quadrature_log_derivative(a, delta, scheme, second=True)


def _matrix_log(mat: np.ndarray) -> np.ndarray:
    w, v = _eigh(mat)
    if w[0] <= 0.0:
        raise DomainError("matrix log of a non-positive operator")
    return (v * np.log(w)) @ v.conj().T


def frechet_log_central_diff(
    a: OperatorLike, delta: OperatorLike, h: float = 1e-5, order: int = 2
) -> HermitianOperator:
    """Finite-difference estimate of the log derivative (oracle route)."""
    mat, dmat = _common_dim(a, delta)
    if order == 2:
        diff = _matrix_log(mat + h * dmat) - _matrix_log(mat - h * dmat)
        return HermitianOperator(diff / (2.0 * h))
    if order == 4:
        diff = (
            -_matrix_log(mat + 2 * h * dmat)
            + 8.0 * _matrix_log(mat + h * dmat)
            - 8.0 * _matrix_log(mat - h * dmat)
            + _matrix_log(mat - 2 * h * dmat)
        )
        return HermitianOperator(diff / (12.0 * h))
    raise DomainError("order must be 2 or 4")


def second_frechet_log_central_diff(
    a: OperatorLike, delta: OperatorLike, h: float = 1e-3, order: int = 4
) -> HermitianOperator:
    """Finite-difference estimate of the quadratic log derivative."""
    mat, dmat = _common_dim(a, delta)
    if order == 2:
        diff = (
            _matrix_log(mat + h * dmat)
            - 2.0 * _matrix_log(mat)
            + _matrix_log(mat - h * dmat)
        )
        return HermitianOperator(-diff / (h * h))
    if order == 4:
        diff = (
            -_matrix_log(mat + 2 * h * dmat)
            + 16.0 * _matrix_log(mat + h * dmat)
            - 30.0 * _matrix_log(mat)
            + 16.0 * _matrix_log(mat - h * dmat)
            - _matrix_log(mat - 2 * h * dmat)
        )
        return HermitianOperator(-diff / (12.0 * h * h))
    raise DomainError("order must be 2 or 4")


# ---------------------------------------------------------------------------
# Differential skew divergence and the logarithmic chi-square
# ---------------------------------------------------------------------------


def _restrict_pair(
    amat: np.ndarray, bmat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Compress both operators onto the support of their sum."""
    _, v, keep = _support(amat + bmat)
    if not np.any(keep):
        raise DomainError("A + B vanishes")
    if np.all(keep):
        return amat, bmat
    basis = v[:, keep]
    return basis.conj().T @ amat @ basis, basis.conj().T @ bmat @ basis


def _metric_on_eigenbasis(w: np.ndarray, basis: np.ndarray, dmat: np.ndarray) -> float:
    """``M(D, D)`` for a base with eigenvalues ``w`` on the columns of ``basis``."""
    dtil = basis.conj().T @ dmat @ basis
    f1 = _log_dd1(w[:, None], w[None, :])
    return float(np.sum(f1 * np.abs(dtil) ** 2))


def _dsd_kernel(amat: np.ndarray, bmat: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """``a(1-a) M_tau(A-B, A-B)`` with ``tau = a A + (1-a) B`` for each ``a`` in
    ``alphas`` (all interior), restricted to supp(A+B).

    For interior alpha the mixture shares its support with A+B, so its own
    eigenbasis provides the restriction: a pair of eigenvectors contributes
    only when both eigenvalues lie above the support threshold.
    """
    dim = amat.shape[0]
    diff = amat - bmat
    out = np.empty(alphas.shape[0])
    for block in _node_blocks(alphas.shape[0], dim):
        a = alphas[block]
        al = a[:, None, None]
        wt, vt, keep = _support(al * amat + (1.0 - al) * bmat)
        if not keep[:, -1].all():
            raise DomainError("A + B vanishes; differential skew divergence undefined")
        # zeroed eigenvectors outside the support null every pair they enter
        vk = vt * keep[:, None, :]
        dtil = _adjoint(vk) @ diff @ vk
        wk = np.where(keep, wt, 1.0)  # keeps log finite on the dropped eigenvalues
        f1 = _log_dd1(wk[:, :, None], wk[:, None, :])
        out[block] = a * (1.0 - a) * (f1 * np.abs(dtil) ** 2).sum(axis=(1, 2))
    return out


def differential_skew_divergence(
    a: OperatorLike, b: OperatorLike, alpha: float
) -> float:
    """Differential skew divergence ``a(1-a) M_{aA+(1-a)B}(A-B, A-B)``.

    Defined on the closed interval: exactly zero at ``alpha`` 0 or 1.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    amat, bmat = _psd_operands(a, b)
    if alpha == 0.0 or alpha == 1.0:
        return 0.0
    return float(_dsd_kernel(amat, bmat, np.array([alpha]))[0])


def scalar_differential_sd(b: float, c: float, alpha: float) -> float:
    """``a(1-a)(b-c)^2 / (a b + (1-a) c)`` for nonnegative scalars."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    if b < 0.0 or c < 0.0:
        raise DomainError("scalar arguments must be nonnegative")
    if b == 0.0 and c == 0.0:
        raise DomainError("scalar differential skew divergence undefined at (0, 0)")
    if alpha == 0.0 or alpha == 1.0:
        return 0.0
    return alpha * (1.0 - alpha) * (b - c) ** 2 / (alpha * b + (1.0 - alpha) * c)


def chi2_log(a: OperatorLike, b: OperatorLike) -> float:
    """Logarithmic chi-square divergence ``M_B(A-B, A-B)``.

    Both operators are compressed onto the support of ``B``; the first
    argument may not leak trace mass outside that support.
    """
    amat, bmat = _psd_operands(a, b)
    wb, vb, keep = _support(bmat)
    if not np.any(keep):
        raise DomainError("second argument vanishes")
    _, leak = _support_quad(amat, vb, keep)
    if leak:
        raise DomainError(
            f"first argument leaks outside the support of the second ({leak:.3e})"
        )
    return _metric_on_eigenbasis(wb[keep], vb[:, keep], amat - bmat)


def sd_by_averaging(
    a: OperatorLike,
    b: OperatorLike,
    alpha: AlphaLike,
    quad: QuadratureScheme | None = None,
) -> float:
    """Skew divergence reconstructed by averaging the differential version
    over ``-log(alpha')`` from 0 to ``-log(alpha)``.

    Must agree with :func:`qsd.divergences.skew_divergence`; serves as the
    integral-representation cross-check of the closed form.
    """
    alpha = _as_alpha(alpha)
    ar, br = _restrict_pair(*_psd_operands(a, b))
    b_total = -math.log(alpha)

    def integral(panels: int, nodes: int, density: int) -> float:
        # The integrand develops a boundary layer at u -> 0 (alpha' -> 1) on
        # the scale of the smallest eigenvalue of A, so the mesh is graded
        # geometrically toward that endpoint instead of kept uniform.
        n_geo = max(panels - 1, int(math.ceil(9 * density)))
        geo = b_total * np.geomspace(1e-9, 1.0, n_geo + 1)
        edges = np.concatenate(([0.0], geo))
        u, wts = _composite_gl(edges, nodes)
        return float(np.dot(wts, _dsd_kernel(ar, br, np.exp(-u))))

    if quad is not None:
        return integral(quad.panels, quad.nodes_per_panel, 1) / b_total

    panels, nodes = _DEFAULT_SCHEME.panels, _DEFAULT_SCHEME.nodes_per_panel
    density = 1
    estimate = integral(panels, nodes, density)
    while (max(panels - 1, 9 * density) + 1) * nodes * 2 <= _MAX_QUAD_NODES:
        density *= 2
        refined = integral(panels, nodes, density)
        change = abs(refined - estimate)
        estimate = refined
        if change <= 1e-8 * max(1.0, abs(refined)):
            break
    return estimate / b_total


@dataclass(frozen=True)
class MetricLimitRecord:
    """Trace of ``M_{B+eps C}(A, A)`` along a decreasing eps sequence."""

    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    limit: float
    final_gap: float
    monotone: bool


def metric_epsilon_limit_check(
    a: OperatorLike,
    b: OperatorLike,
    c: OperatorLike,
    eps_sequence: Sequence[float] = tuple(10.0 ** -k for k in range(1, 9)),
) -> MetricLimitRecord:
    """Evaluate ``M_{B+eps C}(A, A)`` along ``eps_sequence`` and compare with
    the support-restricted limit ``M_{B|B}(A|B, A|B)``.

    Requires ``supp A`` inside ``supp B`` and ``B + C`` positive-definite.
    """
    amat, bmat, cmat = _psd_operands(a, b, c)
    eps = [float(e) for e in eps_sequence]
    if len(eps) < 1 or any(e <= 0 for e in eps) or any(
        e2 >= e1 for e1, e2 in zip(eps, eps[1:])
    ):
        raise DomainError("eps_sequence must be positive and strictly decreasing")

    _, vb, keep = _support(bmat)
    _, leak = _support_quad(amat, vb, keep)
    if leak:
        raise DomainError("support of A is not contained in the support of B")

    values = []
    for e in eps:
        w, v = _pd_eigh(bmat + e * cmat, "metric base")
        values.append(_metric_on_eigenbasis(w, v, amat))

    if np.any(keep):
        basis = vb[:, keep]
        a_r = basis.conj().T @ amat @ basis
        w, v = _pd_eigh(basis.conj().T @ bmat @ basis, "metric base")
        limit = _metric_on_eigenbasis(w, v, a_r)
    else:
        limit = 0.0

    diffs = np.diff(values)
    scale = max(1.0, max(abs(v) for v in values))
    monotone = bool(np.all(diffs >= -1e-10 * scale))
    return MetricLimitRecord(
        epsilons=tuple(eps),
        values=tuple(values),
        limit=limit,
        final_gap=limit - values[-1],
        monotone=monotone,
    )
