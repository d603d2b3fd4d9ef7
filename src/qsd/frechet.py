"""First and second derivatives of the operator logarithm and the calculus
built on them.

The primary evaluation path is the divided-difference (Daleckii-Krein) form in
the eigenbasis of the base operator, which is exact up to eigendecomposition
error. The second derivative never forms the d^3 table of
``log[w_i, w_k, w_j]``: the recursion
``log[w_i, w_k, w_j] = (log[w_i, w_k] - log[w_k, w_j]) / (w_i - w_j)`` turns
the sum over ``k`` into two matrix products for every pair whose relative gap
exceeds ``_SPLIT_RTOL`` = 0.01, and the diagonal into one d x d table. Only
the off-diagonal close pairs (and the diagonal of their rows) are summed
directly, in blocks, so memory is O(d^2). The recursion divides the rounding
error of its products by the gap, so a far pair loses at most a factor
1/_SPLIT_RTOL = 100 against a direct sum.

The integral representations

    T_A(D) = int_0^inf (A+s)^-1 D (A+s)^-1 ds
    R_A(D) = 2 int_0^inf (A+s)^-1 D (A+s)^-1 D (A+s)^-1 ds

are implemented with composite Gauss-Legendre quadrature purely as an
independent cross-check: they never touch the eigenvector path. The panels
are equal in ``t = log s`` over the spectral range padded by 10^3 on both
sides, where every pole ``s = -w_i`` sits at ``Im t = pi`` whatever the
spectrum, so each panel converges at the same rate (Bernstein parameter
rho ~ 3.1 over two decades, 5.6 over one; Trefethen & Weideman, SIAM Review
56 (2014)): 16 nodes integrate ``(w+s)^-2`` to about 1e-14 over two decades
and 1e-15 over one. Only the tails ``[0, s_lo]`` and ``[s_hi, inf)`` map
``s = s_lo u/(1-u)`` and ``s = s_hi u/(1-u)``, so the whole rule scales with
the spectrum; :func:`sd_by_averaging` takes the same rule in
``x = 1/alpha' - 1``, whose singularities also lie on the negative axis. One
Householder reduction ``A = Q T Q*`` per item (Golub & Van Loan, Matrix
Computations, 8.3), with the band's phases folded into ``Q``, makes each
``T + s`` real symmetric tridiagonal, so a node costs a real LDL^T
factorization and banded sweeps, O(d^2), not a dense solve.

The oracles validate a raw ``(n, d, d)`` stack at once, then integrate each
pair on its own mesh in node blocks of at most ``_NODE_BLOCK_ELEMS`` complex
entries per array (the quadrature's right-hand sides, or the mixtures of
:func:`sd_by_averaging`), so memory stays bounded at every dimension.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .divergences import _as_alpha, _nonnegative_pair, _require_per_pair
from .linalg import (
    HermitianOperator,
    OperatorLike,
    _adjoint,
    _common_dim,
    _eigh,
    _float_or_array,
    _operator,
    _psd_against_support,
    _psd_operands,
    _require_pd,
    _require_psd,
    _skewed_mixture,
    _support,
    spectral_fn,
)

# Largest number of complex entries in one stacked (d, n, d) or (n, d, d) node
# array (2**16 entries, 1 MiB); the oracle node loops run in blocks of this size.
_NODE_BLOCK_ELEMS = 1 << 16

# Relative eigenvalue gap below which divided differences switch to their
# confluent forms; prevents catastrophic cancellation of log differences.
DD_CLOSE_RTOL = 1e-7

# Relative spread below which the second divided difference uses its Taylor
# series. The direct form divides a difference of two first differences, each
# good to a few ulps, by the spread, so it loses about 1e-15/spread relative;
# the series, cut after its degree-6 term, errs by order spread^7. At 1e-2
# both stay below 1e-13 relative (60-digit reference).
_DD2_TAYLOR_RTOL = 1e-2

# Relative eigenvalue gap above which ``_second_core`` takes a pair from the
# two-GEMM split form, which divides the GEMM rounding error by the gap: a pair
# loses at most a factor 1/_SPLIT_RTOL = 100 against a direct sum (30-digit
# reference: tests/test_reference_precision.py); closer pairs are summed directly.
_SPLIT_RTOL = 0.01


def _log_dd1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First divided difference of log on positive arguments (vectorized).

    Distinct pairs use ``log1p(gap/lo)/gap`` with ``lo = min(x, y)`` and
    ``gap = |x - y|``, accurate to a few ulps at every gap; close pairs use
    the midpoint derivative ``2/(x+y)``. At the switch point the two
    branches agree to machine precision.
    """
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    gap = hi - lo
    close = gap <= DD_CLOSE_RTOL * hi
    gap[close] = 1.0
    out = np.divide(gap, lo)
    np.log1p(out, out=out)
    out /= gap
    hi += lo
    np.divide(2.0, hi, out=hi)
    np.copyto(out, hi, where=close)
    return out


def _order3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """Elementwise ``(lowest, median, highest)`` of three arrays, by min/max
    alone, so each result is one of the arguments bit for bit."""
    lo_xy = np.minimum(x, y)
    hi_xy = np.maximum(x, y)
    mid = np.maximum(lo_xy, np.minimum(hi_xy, z))
    return np.minimum(lo_xy, z), mid, np.maximum(hi_xy, z)


def _log_dd2(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Second divided difference of log, fully symmetric in its arguments."""
    lo, mid, hi = _order3(x, y, z)
    return _log_dd2_ordered(lo, mid, hi, _log_dd1(lo, mid), _log_dd1(mid, hi))


def _log_dd2_ordered(
    lo: np.ndarray, mid: np.ndarray, hi: np.ndarray, f_lm: np.ndarray, f_mh: np.ndarray
) -> np.ndarray:
    """``log[lo, mid, hi]`` for ordered arguments ``lo <= mid <= hi``, given
    the first differences ``f_lm = log[lo, mid]`` and ``f_mh = log[mid, hi]``.

    A triple whose spread exceeds ``_DD2_TAYLOR_RTOL`` of ``hi`` is
    ``(f_lm - f_mh) / (lo - hi)``, so the outer division carries the largest
    gap. A closer triple uses the Taylor series about its mean ``m``: with
    relative deviations ``a, b, c`` (which sum to zero),
    ``r2 = (a^2 + b^2 + c^2)/2`` and ``r3 = abc``,

        log[x, y, z] = -1/(2 m^2) (1 + r2/2 - 2 r3/5 + r2^2/3 - 4 r2 r3/7
                                  + (r2^3 + r3^2)/4 + ...)

    which is exact at full confluence.
    """
    spread = lo - hi
    taylor = spread >= -_DD2_TAYLOR_RTOL * hi
    spread[taylor] = 1.0
    out = f_lm - f_mh
    out /= spread
    lo, mid, hi = lo[taylor], mid[taylor], hi[taylor]
    m = (lo + mid + hi) / 3.0
    a = (lo - m) / m
    b = (hi - m) / m
    s = a + b  # the third deviation is -s
    r2 = a * s + b * b
    r3 = a * b * s  # minus abc
    series = ((r2 / 4.0 + 1.0 / 3.0) * r2 + 0.5) * r2 + 1.0
    series += (0.4 + (4.0 / 7.0) * r2 + r3 / 4.0) * r3
    out[taylor] = series / (-2.0 * m * m)
    return out


def _eigenframe(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs and first differences ``log[w_i, w_j]`` of a positive-definite
    base, or of each base of a stack."""
    w, v = _eigh(mat)
    _require_pd(w, "base operator")
    return w, v, _log_dd1(w[..., :, None], w[..., None, :])


def frechet_log(a: OperatorLike, delta: OperatorLike) -> HermitianOperator:
    """Derivative of the operator logarithm at ``a`` in direction ``delta``;
    raw ``(n, d, d)`` stacks give the read-only stack of one derivative per
    pair."""
    mat, dmat = _common_dim(a, delta)
    w, v, f1 = _eigenframe(mat)
    dtil = _adjoint(v) @ dmat @ v
    return _operator(v @ (f1 * dtil) @ _adjoint(v))


def metric_M(a: OperatorLike, b: OperatorLike, c: OperatorLike) -> complex | np.ndarray:
    """Monotone metric ``trace B* T_A(C)`` for a positive-definite base ``A``;
    raw ``(n, d, d)`` stacks give one complex value per triple."""
    mat, bmat, cmat = _common_dim(a, b, c)
    w, v, f1 = _eigenframe(mat)
    btil = _adjoint(v) @ bmat @ v
    # M_A(X, X) changes basis once; real products (numpy fuses complex ones) keep it real
    ctil = btil if c is b else _adjoint(v) @ cmat @ v
    (br, bi), (cr, ci) = (btil.real, btil.imag), (ctil.real, ctil.imag)
    value = (f1 * (br * cr + bi * ci)).sum(axis=(-2, -1))
    value = value + 1j * (f1 * (br * ci - bi * cr)).sum(axis=(-2, -1))
    return complex(value) if value.ndim == 0 else value


def _second_core(w: np.ndarray, f1: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``C_ij = sum_k x_ik log[w_i, w_k, w_j] y_kj`` for each item of a stack,
    without a d^3 table.

    Each row of ``w`` ascends (as ``eigh`` returns it) and ``f1`` is the
    first-difference table ``log[w_i, w_j]``. Far pairs use
    ``log[w_i, w_k, w_j] = (log[w_i, w_k] - log[w_k, w_j]) / (w_i - w_j)``,
    which turns their sums into two matrix products. The diagonal takes
    ``log[w_i, w_k, w_i]`` from one d x d table by the same recursion, which
    is accurate for every ``k`` far from ``i``, and the limit ``-1/(2 w_i^2)``
    at ``k = i``. Off-diagonal close pairs, and the diagonal of their rows,
    are summed directly from ``(pairs, d)`` tables of at most
    ``_NODE_BLOCK_ELEMS`` entries, whose rows come from the tables of all
    items flattened to ``(item * d + row)`` rows, so a block may mix items.
    For ``i <= j`` the ordered triple's first differences are row ``i`` of
    the symmetric ``f1`` up to ``k = j`` and row ``j`` from ``k = i``, and
    ``log[w_i, w_j]`` beyond. The table row of ``(i, j)`` also serves
    ``(j, i)``, since ``log[w_i, w_k, w_j]`` is symmetric.
    """
    n, dim = w.shape
    gap = w[:, :, None] - w[:, None, :]
    close = np.abs(gap) <= _SPLIT_RTOL * np.maximum(w[:, :, None], w[:, None, :])
    gap[close] = 1.0
    core = (x * f1) @ y
    core -= x @ (f1 * y)
    core /= gap
    diag = (np.diagonal(f1, 0, -2, -1)[:, :, None] - f1) / gap
    diagonal = np.s_[:, :: dim + 1]  # of a (n, d * d) view
    diag.reshape(n, -1)[diagonal] = -0.5 / (w * w)
    core.reshape(n, -1)[diagonal] = np.einsum("nik,nik,nki->ni", x, diag, y)
    # a row with a close partner also redoes its diagonal, whose table entry
    # at that partner divided by a small gap
    close.reshape(n, -1)[diagonal] = close.sum(axis=-1) > 1
    items, rows, cols = np.nonzero(close)
    upper = rows <= cols  # the row of (i, j) also serves (j, i)
    items, rows, cols = items[upper], rows[upper], cols[upper]
    f1f, xf, coref = (m.reshape(-1, dim) for m in (f1, x, core))
    k = np.arange(dim)
    step = max(1, _NODE_BLOCK_ELEMS // dim)
    for start in range(0, rows.size, step):
        t, i, j = (idx[start : start + step] for idx in (items, rows, cols))
        ti, tj = t * dim + i, t * dim + j  # rows of the flattened tables
        f_lm, f_mh, f_ij = f1f[ti], f1f[tj], f1[t, i, j, None]
        np.copyto(f_lm, f_ij, where=k > j[:, None])
        np.copyto(f_mh, f_ij, where=k < i[:, None])
        f2 = _log_dd2_ordered(*_order3(w[t, i, None], w[t, j, None], w[t]), f_lm, f_mh)
        p, q, tt = np.concatenate((ti, tj)), np.concatenate((j, i)), np.concatenate((t, t))
        coref[p, q] = np.einsum("pk,pk,kp->p", xf[p], np.concatenate((f2, f2)), y[tt, :, q].T)
    return core


def second_frechet_log(
    a: OperatorLike, delta1: OperatorLike, delta2: OperatorLike | None = None
) -> HermitianOperator:
    """Negative second derivative of the operator logarithm, bilinear in the
    two perturbations (``delta2`` defaults to ``delta1``); raw ``(n, d, d)``
    stacks give the read-only stack of one derivative per item."""
    deltas = (delta1,) if delta2 is None else (delta1, delta2)
    mats = _common_dim(a, *deltas)
    shape = mats[0].shape
    # one matrix is the stack of one
    mat, *dmats = (m.reshape(-1, *shape[-2:]) for m in mats)
    w, v, f1 = _eigenframe(mat)
    x = _adjoint(v) @ dmats[0] @ v
    y = x if delta2 is None else _adjoint(v) @ dmats[1] @ v
    # For Hermitian x and y the swapped term C(y, x) is the adjoint of
    # C(x, y); the Hermitian part (M + M*)/2 of the result keeps both, so
    # one core and a factor 2 give both terms.
    core = _second_core(w, f1, x, y)
    return _operator((-2.0 * (v @ core @ _adjoint(v))).reshape(shape))


# ---------------------------------------------------------------------------
# Quadrature cross-checks (independent of the eigenvector path)
# ---------------------------------------------------------------------------


# Composite Gauss-Legendre rules of _NODES_PER_PANEL-node panels, one rule
# for both oracles (_log_panels): panels equal in a log variable, one per two
# decades at density 1 (every pole lies pi from the real axis there, so
# rho ~ 3.1), after one head panel in u, all scaled to the range. The adaptive
# routes double the density until the estimate settles, with no pass above
# _MAX_QUAD_NODES nodes.
_NODES_PER_PANEL = 16
_MAX_QUAD_NODES = 4096


def _refine(integral: Callable[[int], tuple], refine: bool = True):
    """Value of ``integral(density)``, which returns ``(value, nodes)``.

    Starting from density 1, the density doubles until two successive
    values differ by at most ``1e-8 * max(1, |value|)`` or the next pass
    would exceed ``_MAX_QUAD_NODES`` nodes; ``refine=False`` keeps the first
    pass.
    """
    density = 1
    estimate, nodes = integral(density)
    while refine and 2 * nodes <= _MAX_QUAD_NODES:
        density *= 2
        refined, nodes = integral(density)
        change = np.linalg.norm(refined - estimate)
        estimate = refined
        if change <= 1e-8 * max(1.0, float(np.linalg.norm(refined))):
            break
    return estimate


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre rule on [-1, 1], built on first use, not at import."""
    x, wts = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    x.flags.writeable = wts.flags.writeable = False
    return x, wts


def _composite_gl(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x, wts = _gauss_legendre()
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * wts[None, :]).ravel()
    return nodes, weights


def _u_panel(scale: float, u_lo: float, u_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``s = scale u/(1-u)`` and weights of one Gauss-Legendre panel ``[u_lo, u_hi]`` in u."""
    u, wts = _composite_gl(np.array([u_lo, u_hi]))
    return scale * u / (1.0 - u), scale * wts / (1.0 - u) ** 2


def _log_panels(lo: float, hi: float, density: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes ``x`` and weights of the rule for ``int_0^hi dx``: one
    panel in u on ``[0, lo]``, mapped by ``x = lo u/(1-u)`` on ``[0, 1/2]``,
    then equal panels in ``t = log x`` over ``[lo, hi]``, one per
    ``2 / density`` decades, whose nodes ``x = exp(t)`` weigh ``w x``."""
    n_log = math.ceil(math.log10(hi / lo) * density / 2)
    t, wts = _composite_gl(np.linspace(math.log(lo), math.log(hi), n_log + 1))
    x = np.exp(t)
    head = _u_panel(lo, 0.0, 0.5)
    return np.concatenate((head[0], x)), np.concatenate((head[1], wts * x))


def _quadrature_nodes(wmin: float, wmax: float, density: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes ``s`` and weights of the rule for ``int_0^inf ds``:
    :func:`_log_panels` over the padded spectral range ``[s_lo, s_hi] =
    [wmin 1e-3, wmax 1e3]``, then ``[s_hi, inf)`` as one panel in u, mapped by
    ``s = s_hi u/(1-u)`` on ``[1/2, 1]``, so the rule scales with the spectrum."""
    s_hi = wmax * 1e3
    panels = (_log_panels(wmin * 1e-3, s_hi, density), _u_panel(s_hi, 0.5, 1.0))
    return tuple(np.concatenate(part) for part in zip(*panels))


def _node_blocks(n_nodes: int, dim: int) -> list[slice]:
    """Consecutive slices of ``range(n_nodes)``, each short enough that a
    stack of that many ``dim x dim`` matrices fits in ``_NODE_BLOCK_ELEMS``."""
    step = max(1, _NODE_BLOCK_ELEMS // (dim * dim))
    return [slice(lo, min(lo + step, n_nodes)) for lo in range(0, n_nodes, step)]


def _tridiagonal(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary ``q`` and real symmetric tridiagonal ``t``, band >= 0, with ``mat = q t q*``."""
    t = np.array(mat, dtype=complex)
    q = np.eye(t.shape[0], dtype=complex)
    for k in range(t.shape[0] - 2):
        x = t[k + 1 :, k]
        if not x[1:].any():
            continue  # column k is already reduced
        norm = np.linalg.norm(x)
        phase = x[0] / abs(x[0]) if x[0] else 1.0
        v = x.copy()
        v[0] += phase * norm
        v /= np.linalg.norm(v)
        # H = I - 2 v v* maps x to -phase * norm * e_1; H t H on the trailing block
        p = t[k + 1 :, k + 1 :] @ v
        w = p - (v.conj() @ p) * v
        t[k + 1 :, k + 1 :] -= 2.0 * (np.outer(v, w.conj()) + np.outer(w, v.conj()))
        t[k + 1, k] = -phase * norm
        q[:, k + 1 :] -= 2.0 * np.outer(q[:, k + 1 :] @ v, v.conj())
    sub = t.diagonal(-1)  # the band, read from the lower triangle only
    band = np.abs(sub)
    # q diag(1, p_0, p_0 p_1, ...) with p_k the phase of band entry k makes it |t_{k+1,k}|
    q[:, 1:] *= np.cumprod(np.divide(sub, band, out=np.ones_like(sub), where=band > 0))
    return q, np.diag(t.diagonal().real) + np.diag(band, -1) + np.diag(band, 1)


def _banded_solve(piv: np.ndarray, mult: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Overwrite each ``x[:, k]`` of a complex (d, n, m) stack with ``(T + s_k)^-1 x[:, k]``,
    from LDL^T pivots ``piv`` (d, n) and real multipliers ``mult`` (d-1, n),
    sweeping the float64 view of ``x``."""
    xr = x.view(np.float64)
    step = np.empty_like(xr[0])
    for i in range(1, len(xr)):
        xr[i] -= np.multiply(mult[i - 1, :, None], xr[i - 1], out=step)
    xr /= piv[:, :, None]
    for i in range(len(xr) - 2, -1, -1):
        xr[i] -= np.multiply(mult[i, :, None], xr[i + 1], out=step)
    return x


def _integral_pass(
    mat: np.ndarray, dmat: np.ndarray, s: np.ndarray, coef: np.ndarray, second: bool
) -> np.ndarray:
    """The rule with nodes ``s`` and weights ``coef`` applied to the integrand;
    ``mat`` is the ``t`` of :func:`_tridiagonal`."""
    dim = mat.shape[0]
    if second:
        coef = 2.0 * coef
    # T + s is real symmetric positive definite, so LDL^T needs no pivoting
    piv, mult = np.empty((dim, s.size)), np.empty((dim - 1, s.size))
    piv[0] = mat[0, 0] + s
    for i in range(dim - 1):
        mult[i] = mat[i + 1, i] / piv[i]
        piv[i + 1] = mat[i + 1, i + 1] + s - mat[i + 1, i] ** 2 / piv[i]
    total = np.zeros_like(dmat)
    for block in _node_blocks(s.size, dim):
        p, m = piv[:, block], mult[:, block]
        dstack = np.repeat(dmat[:, None, :], p.shape[1], axis=1)  # D at every node
        left = _banded_solve(p, m, dstack).transpose(1, 0, 2)  # left[k] = (T + s_k)^-1 D
        rhs = left @ left if second else left
        # core[:, k] is the adjoint of node k's integrand rhs[k] (T + s_k)^-1
        core = _banded_solve(p, m, np.conj(rhs.transpose(2, 0, 1), order="C"))
        total += coef[block] @ core
    return _adjoint(total)


def _quadrature_item(mat: np.ndarray, dmat: np.ndarray, w: np.ndarray, second: bool) -> np.ndarray:
    """The refined quadrature of one pair on its own mesh; ``w`` is its base's spectrum."""
    q, t = _tridiagonal(mat)
    dt = _adjoint(q) @ dmat @ q

    def integral(density: int) -> tuple[np.ndarray, int]:
        s, coef = _quadrature_nodes(float(w[0]), float(w[-1]), density)
        return _integral_pass(t, dt, s, coef, second), s.size

    return q @ _refine(integral) @ _adjoint(q)


def _quadrature_log_derivative(a: OperatorLike, delta: OperatorLike, second: bool):
    mat, dmat = _common_dim(a, delta)
    w = np.linalg.eigvalsh(mat)
    _require_pd(w, "base operator")
    out = [_quadrature_item(mat[k], dmat[k], w[k], second) for k in np.ndindex(mat.shape[:-2])]
    return _operator(np.reshape(out, mat.shape))


def frechet_log_quadrature(a: OperatorLike, delta: OperatorLike) -> HermitianOperator | np.ndarray:
    """Quadrature evaluation of the log derivative (oracle route); raw stacks give one per pair."""
    return _quadrature_log_derivative(a, delta, second=False)


def second_frechet_log_quadrature(a: OperatorLike, delta: OperatorLike) -> HermitianOperator | np.ndarray:
    """Quadrature evaluation of the quadratic log derivative (oracle route), as the first."""
    return _quadrature_log_derivative(a, delta, second=True)


# Central-difference stencils, keyed by (derivative, order): offsets k,
# coefficients c and divisor q of sum_k c log(A + k h D) / (q h^derivative).
_STENCILS = {
    (1, 2): ((1, -1), (1.0, -1.0), 2.0),
    (1, 4): ((2, 1, -1, -2), (-1.0, 8.0, -8.0, 1.0), 12.0),
    (2, 2): ((1, 0, -1), (1.0, -2.0, 1.0), 1.0),
    (2, 4): ((2, 1, 0, -1, -2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0),
}


def _central_diff(
    a: OperatorLike, delta: OperatorLike, h: float, order: int, derivative: int
) -> np.ndarray:
    """Central-difference estimate of a derivative of log at ``a`` along
    ``delta``, or at each pair of raw ``(n, d, d)`` stacks."""
    mat, dmat = _common_dim(a, delta)
    if order not in (2, 4):
        raise DomainError("order must be 2 or 4")
    if not (math.isfinite(h) and h != 0.0):
        raise DomainError(f"step h must be finite and nonzero, got {h}")
    offsets, coefs, divisor = _STENCILS[derivative, order]
    shifted = np.stack([mat + k * h * dmat if k else mat for k in offsets])
    # one spectral call takes every stencil point of every pair
    logs = spectral_fn(shifted.reshape(-1, *mat.shape[-2:]), np.log).reshape(shifted.shape)
    terms = [c * m for m, c in zip(logs, coefs)]
    diff = sum(terms[1:], terms[0])
    return diff / (divisor * h * h if derivative == 2 else divisor * h)


def frechet_log_central_diff(
    a: OperatorLike, delta: OperatorLike, h: float = 1e-5, order: int = 2
) -> HermitianOperator:
    """Finite-difference estimate of the log derivative (oracle route); raw
    ``(n, d, d)`` stacks give the read-only stack of one estimate per pair."""
    return _operator(_central_diff(a, delta, h, order, derivative=1))


def second_frechet_log_central_diff(
    a: OperatorLike, delta: OperatorLike, h: float = 1e-3, order: int = 4
) -> HermitianOperator:
    """Finite-difference estimate of the quadratic log derivative; raw
    ``(n, d, d)`` stacks give the read-only stack of one estimate per pair."""
    return _operator(-_central_diff(a, delta, h, order, derivative=2))


# ---------------------------------------------------------------------------
# Differential skew divergence and the logarithmic chi-square
# ---------------------------------------------------------------------------


def _metric_on_support(
    w: np.ndarray, v: np.ndarray, keep: np.ndarray, dmat: np.ndarray
) -> np.ndarray:
    """``M(D, D)`` on the support of a base, or of each base in a stack, from
    its eigenpairs ``w``, ``v`` and support mask ``keep`` as
    :func:`qsd.linalg._support` returns them.

    A pair of eigenvectors contributes only when both are kept: zeroed
    eigenvectors outside the support null every pair they enter.
    """
    vk = v * keep[..., None, :]
    dtil = _adjoint(vk) @ dmat @ vk
    wk = np.where(keep, w, 1.0)  # keeps log finite on the dropped eigenvalues
    f1 = _log_dd1(wk[..., :, None], wk[..., None, :])
    return (f1 * np.abs(dtil) ** 2).sum(axis=(-2, -1))


def _dsd_kernel(amat: np.ndarray, bmat: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """``a(1-a) M_tau(A-B, A-B)`` with ``tau = a A + (1-a) B``, restricted to
    supp(A+B), for each pair of an ``(n, d, d)`` stack at its own entry of
    ``alphas`` (all interior); one pair at many alphas comes as a broadcast
    view, so memory stays bounded by the blocks.

    For interior alpha the mixture shares its support with A+B, so its own
    eigenbasis provides the restriction.
    """
    out = np.empty(alphas.shape[0])
    for block in _node_blocks(alphas.shape[0], amat.shape[-1]):
        a, pa, pb = alphas[block], amat[block], bmat[block]
        wt, vt, keep = _support(_skewed_mixture(pa, pb, a))
        if not keep[:, -1].all():
            raise DomainError("A + B vanishes; differential skew divergence undefined")
        out[block] = a * (1.0 - a) * _metric_on_support(wt, vt, keep, pa - pb)
    return out


def differential_skew_divergence(
    a: OperatorLike, b: OperatorLike, alpha: float | np.ndarray
) -> float | np.ndarray:
    """Differential skew divergence ``a(1-a) M_{aA+(1-a)B}(A-B, A-B)``.

    Defined on the closed interval: exactly zero at ``alpha`` 0 or 1. Raw
    ``(n, d, d)`` stacks give one value per pair, at one ``alpha`` or at an
    array of one entry per pair.
    """
    al = np.asarray(alpha, dtype=np.float64)
    inner = (0.0 < al) & (al < 1.0)
    interior = inner.all() if al.ndim else bool(inner)  # no 0-d reduction on one alpha
    if not interior:
        outside = ~((0.0 <= al) & (al <= 1.0))
        if outside.any():
            raise DomainError(f"alpha must lie in [0, 1], got {al[outside][0]}")
    amat, bmat = _psd_operands(a, b)
    _require_per_pair(al, amat)
    if interior:
        if amat.ndim == 2:  # one pair, as a stack of one
            return float(_dsd_kernel(amat[None], bmat[None], al.reshape(1))[0])
        return _dsd_kernel(amat, bmat, np.broadcast_to(al, amat.shape[:1]))
    out = np.zeros(amat.shape[:-2])  # 0 at the endpoints; the kernel sees the other entries
    if inner.any():
        out[inner] = _dsd_kernel(amat[inner], bmat[inner], al[inner])
    return _float_or_array(out)


def scalar_differential_sd(b, c, alpha):
    """``a(1-a)(b-c)^2 / (a b + (1-a) c)`` for nonnegative scalars, or
    entrywise for arrays that broadcast together; 0 at ``a`` 0 or 1."""
    a = np.asarray(alpha, dtype=np.float64)
    outside = ~((0.0 <= a) & (a <= 1.0))
    if outside.any():
        raise DomainError(f"alpha must lie in [0, 1], got {a[outside][0]}")
    b, c = _nonnegative_pair(b, c, "scalar differential skew divergence")
    # a b + (1-a) c may vanish at the ends, where the value is 0; an overflow is inf
    with np.errstate(all="ignore"):
        value = a * (1.0 - a) * (b - c) ** 2 / (a * b + (1.0 - a) * c)
    return _float_or_array(np.where((a == 0.0) | (a == 1.0), 0.0, value))


def chi2_log(a: OperatorLike, b: OperatorLike) -> float | np.ndarray:
    """Logarithmic chi-square divergence ``M_B(A-B, A-B)``.

    Both operators are restricted to the support of ``B``: eigenvectors of
    ``B`` outside it are masked out. The first argument may not leak trace
    mass outside that support. Raw ``(n, d, d)`` stacks give one value per
    pair.
    """
    amat, bmat = _common_dim(a, b)
    _, wb, vb, keep, _, leak = _psd_against_support(amat, bmat)
    if not keep[..., -1].all():
        raise DomainError("second argument vanishes")
    if leak.any():
        raise DomainError(
            f"first argument leaks outside the support of the second ({leak[leak > 0.0][0]:.3e})"
        )
    return _float_or_array(_metric_on_support(wb, vb, keep, amat - bmat))


def _averaged(amat: np.ndarray, bmat: np.ndarray, alpha: float, refine: bool) -> float:
    """:func:`sd_by_averaging` of one pair."""
    b_total = -math.log(alpha)

    def integral(density: int) -> tuple[float, int]:
        # d(-log alpha') = alpha' dx in x = 1/alpha' - 1, where the mixture is
        # (A + x B) alpha': every singularity, the boundary layer of A's smallest
        # eigenvalue too, lies at x <= 0, pi from the real axis in log x. Near 0,
        # x ~ -log alpha', so the head panel spans about [0, 1e-9 b] in it.
        x, wts = _log_panels(1e-9 * b_total, (1.0 - alpha) / alpha, density)
        alphas = 1.0 / (1.0 + x)
        pair = (np.broadcast_to(m, x.shape + m.shape) for m in (amat, bmat))
        return float(np.dot(wts * alphas, _dsd_kernel(*pair, alphas))), x.size

    return _refine(integral, refine) / b_total


def sd_by_averaging(
    a: OperatorLike, b: OperatorLike, alpha: float | np.ndarray, refine: bool = True
) -> float | np.ndarray:
    """Skew divergence reconstructed by averaging the differential version
    over ``-log(alpha')`` from 0 to ``-log(alpha)``; raw ``(n, d, d)`` stacks
    give one value per pair, at one ``alpha`` or one per pair.

    Must agree with :func:`qsd.divergences.skew_divergence`; serves as the
    integral-representation cross-check of the closed form. ``refine=False``
    keeps the first quadrature pass instead of refining it.
    """
    alpha = _as_alpha(alpha)
    amat, bmat = _psd_operands(a, b)
    _require_per_pair(alpha, amat)
    alphas = np.broadcast_to(alpha, amat.shape[:-2])  # each pair on the mesh of its own alpha
    out = [_averaged(amat[k], bmat[k], float(alphas[k]), refine) for k in np.ndindex(alphas.shape)]
    return _float_or_array(np.reshape(out, alphas.shape))


@dataclass(frozen=True)
class MetricLimitRecord:
    """Trace of ``M_{B+eps C}(A, A)`` along a decreasing eps sequence; for
    raw ``(n, d, d)`` stacks, each field holds one entry per item."""

    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    limit: float
    final_gap: float
    monotone: bool


# Decreasing eps sequence along which M_{B+eps C}(A, A) approaches its limit.
_METRIC_EPSILONS = tuple(10.0 ** -k for k in range(1, 9))


def metric_epsilon_limit_check(
    a: OperatorLike, b: OperatorLike, c: OperatorLike
) -> MetricLimitRecord:
    """Evaluate ``M_{B+eps C}(A, A)`` for eps = 1e-1, ..., 1e-8 and compare
    with the support-restricted limit ``M_{B|B}(A|B, A|B)``.

    Requires ``supp A`` inside ``supp B`` and every ``B + eps C``
    positive-definite. Raw ``(n, d, d)`` stacks give a record whose
    ``values`` and ``epsilons`` are ``(n, 8)`` and whose other fields are
    ``(n,)``.
    """
    amat, bmat, cmat = _common_dim(a, b, c)
    _, wb, vb, keep, _, leak = _psd_against_support(amat, bmat)
    _require_psd(np.linalg.eigvalsh(cmat), "third argument")
    if leak.any():
        raise DomainError(
            f"support of A is not contained in the support of B (leak {leak[leak > 0.0][0]:.3e})"
        )

    eps = np.array(_METRIC_EPSILONS)
    # the bases B + eps C of every item, as one (..., 8, d, d) stack
    w, v, kept = _support(bmat[..., None, :, :] + eps[:, None, None] * cmat[..., None, :, :])
    _require_pd(w, "metric base B + eps C")
    values = _metric_on_support(w, v, kept, amat[..., None, :, :])
    limit = _metric_on_support(wb, vb, keep, amat)

    scale = np.maximum(1.0, np.abs(values).max(axis=-1))
    monotone = np.all(np.diff(values) >= -1e-10 * scale[..., None], axis=-1)
    final_gap = limit - values[..., -1]
    if values.ndim == 1:  # one triple: tuples, floats and a bool
        return MetricLimitRecord(
            _METRIC_EPSILONS, tuple(values.tolist()), float(limit), float(final_gap), bool(monotone)
        )
    return MetricLimitRecord(np.broadcast_to(eps, values.shape), values, limit, final_gap, monotone)
