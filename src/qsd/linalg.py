"""Dense complex Hermitian linear algebra.

Everything downstream (divergences, derivative calculus, ensemble analysis)
reduces to spectral calculus on small dense Hermitian matrices, so this module
owns the carrier types, the eigendecomposition, spectral matrix functions,
support projections, norms, and seeded random generation of states,
Hamiltonians and channels.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EigendecompositionError,
)

EPS = float(np.finfo(np.float64).eps)

# Eigenvalues may dip this far below zero before an operator stops counting
# as positive semidefinite; anything in (-PSD_TOL, 0) is clipped to 0.
PSD_TOL = 1e-10

# Trace mass of an operator allowed outside a support before it counts as
# leaking out of it (an infinite relative entropy, a domain error elsewhere).
SUPPORT_DEFECT_TOL = 1e-10

# A matrix, whatever type carries it, is a state when its trace is this close to 1.
STATE_TRACE_TOL = 1e-10


def _adjoint(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return mat.conj().swapaxes(-1, -2)


def _trace(mat: np.ndarray) -> np.ndarray:
    """Real part of the trace of a matrix, or of each matrix of a stack."""
    return mat.diagonal(0, -2, -1).sum(axis=-1).real


def _float_or_array(value):
    """A 0-d result as a float; an array result as it is."""
    return float(value) if np.ndim(value) == 0 else value


def _integral(value) -> bool:
    """Whether ``value`` is an integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _symmetrized(entries: np.ndarray) -> np.ndarray:
    # (M + M*)/2 is exactly Hermitian in floating point: the (i,j) and (j,i)
    # results are the same two flops up to conjugation.
    return (entries + _adjoint(entries)) / 2.0


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    mat.flags.writeable = False
    return mat


def _hermitian(entries, stacked: bool = False) -> np.ndarray:
    """``(M + M*)/2`` of a square matrix with finite entries, read-only; with
    ``stacked``, of a square matrix or of each matrix of an ``(n, d, d)`` stack."""
    mat = np.asarray(entries, dtype=np.complex128)
    if not (mat.ndim == 2 or stacked and mat.ndim == 3) or mat.shape[-1] != mat.shape[-2]:
        what = "square matrix or a stack of square matrices" if stacked else "square matrix"
        raise DomainError(f"expected a {what}, got shape {mat.shape}")
    if mat.shape[-1] < 1:
        raise DomainError("dimension must be at least 1")
    # finite entries may overflow in (M + M*)/2; the check below rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        sym = _symmetrized(mat)
    if np.count_nonzero(np.isfinite(sym)) != sym.size:
        raise DomainError("matrix has non-finite entries")
    return _frozen(sym)


class HermitianOperator:
    """Immutable dense complex Hermitian matrix.

    The constructor symmetrizes its input and rejects non-finite entries.
    """

    __slots__ = ("_mat",)

    def __init__(self, entries):
        self._mat = _hermitian(entries)

    @classmethod
    def _of(cls, mat: np.ndarray) -> "HermitianOperator":
        """``mat``, already Hermitian (and PSD for a DensityMatrix), unchecked."""
        self = object.__new__(cls)
        self._hold(mat)
        return self

    def _hold(self, mat: np.ndarray) -> None:
        self._mat = _frozen(mat)

    @property
    def mat(self) -> np.ndarray:
        """The matrix entries as a read-only (dim, dim) complex array."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[-1]

    def trace(self) -> float:
        return float(np.trace(self._mat).real)

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self._mat + _as_matrix(other))

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self._mat - _as_matrix(other))

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(self._mat * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


class DensityMatrix(HermitianOperator):
    """Positive-semidefinite Hermitian operator; a state, :attr:`is_normalized`,
    when its trace lies within ``STATE_TRACE_TOL`` of 1.

    Construction clips eigenvalues in ``(-1e-10, 0)`` to zero and rejects
    anything more negative; all but :meth:`positive_operator` then divide by
    the trace. A DensityMatrix that is a state is kept as it is.
    """

    __slots__ = ("_normalized",)

    def __init__(self, entries):
        if isinstance(entries, DensityMatrix) and entries.is_normalized:
            self._mat, self._normalized = entries.mat, True
        else:
            self._hold(_unit_trace(_clip_psd(entries)))

    def _hold(self, mat: np.ndarray) -> None:
        super()._hold(mat)
        self._normalized = bool(_is_state(self._mat))

    @classmethod
    def from_matrix(cls, entries) -> "DensityMatrix":
        """Normalized state: clip tiny negative eigenvalues, rescale to unit trace."""
        return cls(entries)

    @classmethod
    def positive_operator(cls, entries) -> "DensityMatrix":
        """Positive operator: same PSD clipping, but the trace is left alone."""
        return cls._of(_clip_psd(entries))

    @property
    def is_normalized(self) -> bool:
        """Whether the trace lies within ``STATE_TRACE_TOL`` of 1, read at construction."""
        return self._normalized

    def __repr__(self) -> str:
        kind = "state" if self._normalized else "positive operator"
        return f"DensityMatrix(dim={self.dim}, {kind})"


OperatorLike = Union[HermitianOperator, np.ndarray, Sequence]


def _as_matrix(value: OperatorLike, stacked: bool = False) -> np.ndarray:
    """Coerce to a Hermitian ndarray (symmetrizing raw arrays); with
    ``stacked``, a raw ``(n, d, d)`` array too, to a stack of them."""
    if isinstance(value, HermitianOperator):
        return value.mat
    return _hermitian(value, stacked)


def _operator(raw: np.ndarray):
    """The Hermitian part of a matrix result as a :class:`HermitianOperator`,
    or of each matrix of a stack as a read-only ``(n, d, d)`` array."""
    return HermitianOperator(raw) if raw.ndim == 2 else _hermitian(raw, stacked=True)


def _is_state(mat: np.ndarray):
    """Whether a matrix, or each matrix of an ``(n, d, d)`` stack, is a state:
    its trace lies within ``STATE_TRACE_TOL`` of 1."""
    return np.abs(_trace(mat) - 1.0) <= STATE_TRACE_TOL


def _like_input(mat: np.ndarray, out: np.ndarray):
    """``out`` clipped PSD and divided by its trace where the input ``mat``,
    or the matching item of a stack, is a state: a :class:`DensityMatrix`,
    or for a stack a read-only array."""
    out = _unit_trace(_clip_psd(out, stacked=True), _is_state(mat))
    if out.ndim == 3:
        return _frozen(out)
    return DensityMatrix._of(out)


def _require_psd(w: np.ndarray, what: str) -> None:
    """Raise unless the ascending eigenvalues ``w``, or each row of a stack of
    them, are nonnegative up to ``PSD_TOL`` relative to ``max(1, max |w|)``;
    the message names the first offending row."""
    low = w[..., 0]
    if not (low < -PSD_TOL).any():
        return  # the tolerance scale max(1, max |w|) is at least 1
    bad = low < -PSD_TOL * np.maximum(1.0, np.abs(w).max(axis=-1))
    if bad.any():
        raise DomainError(
            f"{what} is not positive semidefinite (min eigenvalue {low[bad][0]:.3e})"
        )


def _require_pd(w: np.ndarray, what: str) -> None:
    """Raise unless the smallest of the ascending eigenvalues ``w``, or of
    each row of a stack of them, lies above the support threshold
    ``dim * eps * max(lambda_max, 0)``; the message names the first
    offending row."""
    low = w[..., 0]
    bad = low <= default_support_threshold(w.shape[-1], w[..., -1])
    if bad.any():
        raise DomainError(
            f"{what} is not positive-definite on the working space "
            f"(min eigenvalue {low[bad][0]:.3e})"
        )


_ARGUMENTS = ("first argument", "second argument", "third argument")


def _psd_operands(*values: OperatorLike, stacked: bool = False) -> list[np.ndarray]:
    """Matrices of PSD operands that share one shape, validated in order;
    with ``stacked``, raw ``(n, d, d)`` stacks too, validated item by item."""
    mats = _common_dim(*values, stacked=stacked)
    for what, mat in zip(_ARGUMENTS, mats):
        _require_psd(np.linalg.eigvalsh(mat), what)
    return mats


def _common_dim(*values: OperatorLike, stacked: bool = False) -> list[np.ndarray]:
    """Matrices of the operands, after checking that they all have one shape;
    with ``stacked``, raw ``(n, d, d)`` stacks of them too."""
    mats = [_as_matrix(value, stacked) for value in values]
    for m in mats[1:]:
        if m.shape != mats[0].shape:
            raise DimensionMismatchError("operands have different dimensions")
    return mats


def _clip_psd(entries, stacked: bool = False) -> np.ndarray:
    """Eigenvalue-clipped PSD version of ``entries``, or with ``stacked`` of
    each matrix of a raw stack; rejects genuine negativity."""
    mat = _as_matrix(entries, stacked)
    w, v = _eigh(mat)
    _require_psd(w, "operator")
    kept = w[..., 0] >= 0.0
    if kept.all():
        return mat
    clipped = _symmetrized((v * np.maximum(w, 0.0)[..., None, :]) @ _adjoint(v))
    return np.where(kept[..., None, None], mat, clipped)


def _unit_trace(mat: np.ndarray, states=True) -> np.ndarray:
    """``mat``, or each matrix of a stack, divided by its trace where
    ``states`` holds (one flag, or one per matrix); the others are divided by
    1.0, which keeps them. A trace that divides must be positive."""
    tr = np.where(states, _trace(mat), 1.0)[..., None, None]
    if not (tr > 0.0).all():
        raise DomainError("cannot normalize an operator with non-positive trace")
    # dividing by a positive scalar keeps the matrix exactly Hermitian
    return mat / tr


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        # off-diagonal mass; works for one matrix and for a stack of them
        residual = float(np.linalg.norm(mat * (1.0 - np.eye(mat.shape[-1]))))
        raise EigendecompositionError(
            f"eigendecomposition did not converge: {exc}", residual
        ) from exc


def eigendecompose(a: OperatorLike) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues ``w`` and the unitary ``v`` of eigenvectors (as
    columns) of a Hermitian operator, or of each item of a raw ``(n, d, d)``
    stack, as a plain ``(w, v)`` tuple."""
    return tuple(_eigh(_as_matrix(a, stacked=True)))


def spectral_fn(a: OperatorLike, f: Callable[[np.ndarray], np.ndarray]) -> HermitianOperator:
    """Apply a real function to a Hermitian operator through its eigenbasis.

    ``f`` must be defined (and finite) at every eigenvalue; ``log`` of a
    singular operator, for example, is a domain error here. A raw
    ``(n, d, d)`` stack gives the read-only stack of the results' matrices,
    and ``f`` then sees the ``(n, d)`` array of their eigenvalues.
    """
    w, v = _eigh(_as_matrix(a, stacked=True))
    with np.errstate(all="ignore"):
        fw = np.asarray(f(w))
    if fw.shape != w.shape:
        raise DomainError("spectral function must map eigenvalues elementwise")
    if np.iscomplexobj(fw) and (fw.imag != 0.0).any():
        raise DomainError(f"function not real at eigenvalue(s) {w[fw.imag != 0.0]}")
    fw = fw.real.astype(np.float64, copy=False)
    if not np.all(np.isfinite(fw)):
        bad = w[~np.isfinite(fw)]
        raise DomainError(f"function undefined at eigenvalue(s) {bad}")
    return _operator((v * fw[..., None, :]) @ _adjoint(v))


@dataclass(frozen=True)
class SupportProjection:
    """Isometry onto the span of eigenvectors above an eigenvalue threshold."""

    rank: int
    basis: np.ndarray  # (dim, rank), orthonormal columns
    threshold: float

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def default_support_threshold(dim: int, lambda_max):
    """``dim * eps * max(lambda_max, 0)``, also for the ``(n, 1)`` column of
    a stack's largest eigenvalues; the support lies strictly above it."""
    return dim * EPS * np.maximum(lambda_max, 0.0)


def _support(mat: np.ndarray, what: str | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix, or of each matrix in an ``(n, d, d)``
    stack, and the mask of eigenvalues above the support threshold; a matrix
    or stack labelled ``what`` must also pass :func:`_require_psd` on ``w``."""
    w, v = _eigh(mat)
    if what is not None:
        _require_psd(w, what)
    return w, v, w > default_support_threshold(mat.shape[-1], w[..., -1:])


def _support_quad(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Diagonal ``v_k* X v_k`` of ``X`` in the eigenbasis ``v``, or of each
    matrix of a stack in its own eigenbasis."""
    return (np.conj(v) * (x @ v)).real.sum(axis=-2)


def _psd_against_support(amat: np.ndarray, bmat: np.ndarray) -> tuple:
    """Validate the first argument ``A``, then the second ``B``, as PSD, for
    one pair or each pair of an ``(n, d, d)`` stack. Returns the eigenvalues
    of ``A`` that the validation read, the eigenpairs and support mask of
    ``B`` (as :func:`_support` returns them), the diagonal ``quad`` of ``A``
    in that eigenbasis, and the leak: the trace mass of ``A`` outside the
    support where it exceeds ``SUPPORT_DEFECT_TOL * max(1, trace A)``, 0.0
    within tolerance."""
    wa = np.linalg.eigvalsh(amat)
    _require_psd(wa, "first argument")
    w, v, keep = _support(bmat, "second argument")
    quad = _support_quad(amat, v)
    # a full support leaks nothing; the defect would be rounding noise
    full = keep[..., 0]  # the eigenvalues ascend, so the smallest decides
    if full.all():
        return wa, w, v, keep, quad, np.zeros(full.shape)
    trace_a = _trace(amat)
    leak = trace_a - quad.sum(axis=-1, where=keep)
    leaks = ~full & (leak > SUPPORT_DEFECT_TOL * np.maximum(1.0, trace_a))
    return wa, w, v, keep, quad, np.where(leaks, leak, 0.0)


def _skewed_mixture(amat: np.ndarray, bmat: np.ndarray, a) -> np.ndarray:
    """``a A + (1 - a) B`` of one pair at a float ``a``, or of each pair of a
    stack at its own entry of the array ``a``."""
    al = a[..., None, None] if np.ndim(a) else a
    return al * amat + (1.0 - al) * bmat


def support_of(a: OperatorLike) -> SupportProjection:
    """Support projection of a PSD operator: the eigenvectors with eigenvalue
    strictly above ``dim * eps * lambda_max``."""
    mat = _as_matrix(a)
    w, v, keep = _support(mat, "support argument")
    return SupportProjection(
        rank=int(keep.sum()),
        basis=np.ascontiguousarray(v[:, keep]),
        threshold=float(default_support_threshold(mat.shape[0], w[-1])),
    )


def restrict(a: OperatorLike, projection: SupportProjection) -> HermitianOperator:
    """Compress a Hermitian operator onto a support subspace: ``basis* A basis``."""
    mat = _as_matrix(a)
    if mat.shape[0] != projection.dim:
        raise DimensionMismatchError(
            f"operator dim {mat.shape[0]} != projection dim {projection.dim}"
        )
    b = projection.basis
    return HermitianOperator(b.conj().T @ mat @ b)


def trace_norm(x: OperatorLike) -> float | np.ndarray:
    """Sum of absolute eigenvalues; a raw ``(n, d, d)`` stack gives one per item."""
    return _float_or_array(np.abs(np.linalg.eigvalsh(_as_matrix(x, True))).sum(axis=-1))


def operator_norm(x: OperatorLike) -> float | np.ndarray:
    """Largest absolute eigenvalue; a raw ``(n, d, d)`` stack gives one per item."""
    return _float_or_array(np.abs(np.linalg.eigvalsh(_as_matrix(x, True))).max(axis=-1))


# ---------------------------------------------------------------------------
# Seeded random generation
# ---------------------------------------------------------------------------

RngLike = Union["np.random.Generator", int]  # a string: qsd loads numpy.random lazily


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# The stacked generators below draw one item per generator, each generator
# making the calls its single draw makes, so an item is the same alone as in
# any stack; a single draw is the stack of one.


def _complex_gaussians(rngs: Sequence[np.random.Generator], shape) -> np.ndarray:
    """A complex Gaussian array of ``shape`` from each generator, stacked: in
    one call, the generator draws its real parts, then its imaginary parts."""
    parts = np.empty((len(rngs), 2, *shape))
    for rng, block in zip(rngs, parts):
        rng.standard_normal(out=block)
    g = np.empty(parts[:, 0].shape, dtype=np.complex128)
    g.real, g.imag = parts[:, 0], parts[:, 1]
    return g


def _random_states(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    """The matrix :func:`random_state` draws from each generator, stacked."""
    g = _complex_gaussians(rngs, (dim, dim))
    # G G* is PSD by construction: the clipping eigh of from_matrix would
    # keep it as it is, so only its trace is divided out
    return _unit_trace(_symmetrized(g @ _adjoint(g)))


def _random_hamiltonians(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    """The matrix :func:`random_hamiltonian` draws from each generator, as
    one read-only stack."""
    h = _symmetrized(_complex_gaussians(rngs, (dim, dim)))
    norm = np.abs(np.linalg.eigvalsh(h)).max(axis=-1)
    for k in np.flatnonzero(norm == 0.0):
        while norm[k] == 0.0:  # a zero matrix has no unit-norm rescaling: draw again
            h[k] = _symmetrized(_complex_gaussians([rngs[k]], (dim, dim))[0])
            norm[k] = np.abs(np.linalg.eigvalsh(h[k])).max()
    return _hermitian(h / norm[:, None, None], stacked=True)


def _haar_columns(g: np.ndarray, columns: int) -> np.ndarray:
    """The first ``columns`` columns of the Haar unitary that the QR
    factorization of the square Gaussian matrix ``g`` gives, or of each
    matrix of a stack."""
    q, r = np.linalg.qr(g)
    phases = r.diagonal(0, -2, -1).copy()
    phases /= np.abs(phases)
    # fix the QR gauge so the distribution is Haar
    return (q * phases[..., None, :])[..., :columns]


def random_state(dim: int, rng: RngLike) -> DensityMatrix:
    """Random density matrix from the Hilbert-Schmidt measure: G G* normalized."""
    if dim < 1:
        raise DomainError("dim must be at least 1")
    (mat,) = _random_states([_as_rng(rng)], dim)
    return DensityMatrix._of(mat)


def random_hamiltonian(dim: int, rng: RngLike) -> HermitianOperator:
    """Random GUE-style Hermitian matrix rescaled to unit operator norm."""
    if dim < 1:
        raise DomainError("dim must be at least 1")
    (mat,) = _random_hamiltonians([_as_rng(rng)], dim)
    return HermitianOperator._of(mat)


def random_cptp(dim_in: int, dim_env: int, rng: RngLike) -> list[np.ndarray]:
    """Random quantum channel as Kraus operators via a Stinespring isometry.

    A Haar unitary on the system-environment space is drawn from the QR
    factorization of a Gaussian matrix; its first ``dim_in`` columns split into
    ``dim_env`` Kraus blocks satisfying ``sum K_i* K_i = id``.
    """
    if dim_in < 1 or dim_env < 1:
        raise DomainError("dimensions must be at least 1")
    total = dim_in * dim_env
    isometry = _haar_columns(_complex_gaussians([_as_rng(rng)], (total, total))[0], dim_in)
    return list(isometry.reshape(dim_env, dim_in, dim_in))


def random_unitary(dim: int, rng: RngLike) -> np.ndarray:
    """Haar-distributed unitary matrix."""
    (k,) = random_cptp(dim, 1, rng)
    return k
