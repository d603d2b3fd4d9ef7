"""Dense complex Hermitian linear algebra.

Everything downstream (divergences, derivative calculus, ensemble analysis)
reduces to spectral calculus on small dense Hermitian matrices, so this module
owns the carrier types, the eigendecomposition, spectral matrix functions,
support projections, norms, and seeded random generation of states,
Hamiltonians and channels.
"""

from __future__ import annotations

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


def _symmetrized(entries: np.ndarray) -> np.ndarray:
    # (M + M*)/2 is exactly Hermitian in floating point: the (i,j) and (j,i)
    # results are the same two flops up to conjugation.
    return (entries + entries.conj().T) / 2.0


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    mat.flags.writeable = False
    return mat


def _hermitian(entries) -> np.ndarray:
    """``(M + M*)/2`` of a square matrix with finite entries, read-only."""
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] < 1:
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

    @property
    def mat(self) -> np.ndarray:
        """The matrix entries as a read-only (dim, dim) complex array."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

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
    """Positive-semidefinite Hermitian operator, unit trace unless built
    through :meth:`positive_operator`.

    Construction clips eigenvalues in ``(-1e-10, 0)`` to zero and rejects
    anything more negative. A normalized input is already a state and is
    kept as it is.
    """

    __slots__ = ("_normalized",)

    def __init__(self, entries):
        if isinstance(entries, DensityMatrix) and entries.is_normalized:
            self._mat = entries.mat
        else:
            clipped = _clip_psd(entries)
            tr = float(np.trace(clipped).real)
            if not tr > 0.0:
                raise DomainError("cannot normalize an operator with non-positive trace")
            # dividing by a positive scalar keeps the matrix exactly Hermitian
            self._mat = _frozen(clipped / tr)
        self._normalized = True

    @classmethod
    def from_matrix(cls, entries) -> "DensityMatrix":
        """Normalized state: clip tiny negative eigenvalues, rescale to unit trace."""
        return cls(entries)

    @classmethod
    def positive_operator(cls, entries) -> "DensityMatrix":
        """Positive operator: same PSD clipping, but the trace is left alone."""
        self = object.__new__(cls)
        self._mat = _frozen(_clip_psd(entries))
        self._normalized = False
        return self

    @property
    def is_normalized(self) -> bool:
        return self._normalized

    def __repr__(self) -> str:
        kind = "state" if self._normalized else "positive operator"
        return f"DensityMatrix(dim={self.dim}, {kind})"


OperatorLike = Union[HermitianOperator, np.ndarray, Sequence]


def _as_matrix(value: OperatorLike) -> np.ndarray:
    """Coerce to a Hermitian ndarray (symmetrizing raw arrays)."""
    if isinstance(value, HermitianOperator):
        return value.mat
    return _hermitian(value)


def _like_input(rho: OperatorLike, out: np.ndarray) -> DensityMatrix:
    """``out`` as a normalized state exactly when ``rho`` is one, otherwise
    as a positive operator that keeps its trace."""
    if isinstance(rho, DensityMatrix) and rho.is_normalized:
        return DensityMatrix(out)
    return DensityMatrix.positive_operator(out)


def _require_psd(w: np.ndarray, what: str) -> None:
    """Raise unless the ascending eigenvalues ``w`` are nonnegative up to
    ``PSD_TOL`` relative to ``max(1, max |w|)``."""
    scale = max(1.0, float(np.abs(w).max()))
    if w[0] < -PSD_TOL * scale:
        raise DomainError(
            f"{what} is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )


def _require_pd(w: np.ndarray, what: str) -> None:
    """Raise unless the smallest of the ascending eigenvalues ``w`` lies above
    the support threshold ``dim * eps * max(lambda_max, 0)``."""
    if w[0] <= default_support_threshold(w.shape[0], float(w[-1])):
        raise DomainError(
            f"{what} is not positive-definite on the working space "
            f"(min eigenvalue {w[0]:.3e})"
        )


_ARGUMENTS = ("first argument", "second argument", "third argument")


def _psd_operands(*values: OperatorLike) -> list[np.ndarray]:
    """Matrices of PSD operands that share one dimension, validated in order."""
    mats = _common_dim(*values)
    for what, mat in zip(_ARGUMENTS, mats):
        _require_psd(np.linalg.eigvalsh(mat), what)
    return mats


def _common_dim(*values: OperatorLike) -> list[np.ndarray]:
    """Matrices of the operands, after checking that they all have one shape."""
    mats = [_as_matrix(value) for value in values]
    for m in mats[1:]:
        if m.shape != mats[0].shape:
            raise DimensionMismatchError("operands have different dimensions")
    return mats


def _clip_psd(entries) -> np.ndarray:
    """Eigenvalue-clipped PSD version of ``entries``; rejects genuine negativity."""
    mat = _as_matrix(entries)
    w, v = _eigh(mat)
    _require_psd(w, "operator")
    if w[0] >= 0.0:
        return mat
    return _symmetrized((v * np.maximum(w, 0.0)) @ v.conj().T)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order plus the unitary matrix of eigenvectors
    (as columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        # off-diagonal mass; works for one matrix and for a stack of them
        residual = float(np.linalg.norm(mat * (1.0 - np.eye(mat.shape[-1]))))
        raise EigendecompositionError(
            f"eigendecomposition did not converge: {exc}", residual
        ) from exc


def eigendecompose(a: OperatorLike) -> SpectralDecomposition:
    """Full spectral decomposition of a Hermitian operator."""
    mat = _as_matrix(a)
    w, v = _eigh(mat)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def spectral_fn(a: OperatorLike, f: Callable[[np.ndarray], np.ndarray]) -> HermitianOperator:
    """Apply a real function to a Hermitian operator through its eigenbasis.

    ``f`` must be defined (and finite) at every eigenvalue; ``log`` of a
    singular operator, for example, is a domain error here.
    """
    mat = _as_matrix(a)
    w, v = _eigh(mat)
    with np.errstate(all="ignore"):
        fw = np.asarray(f(w), dtype=np.float64)
    if fw.shape != w.shape:
        raise DomainError("spectral function must map eigenvalues elementwise")
    if not np.all(np.isfinite(fw)):
        bad = w[~np.isfinite(fw)]
        raise DomainError(f"function undefined at eigenvalue(s) {bad}")
    return HermitianOperator((v * fw) @ v.conj().T)


@dataclass(frozen=True)
class SupportProjection:
    """Isometry onto the span of eigenvectors above an eigenvalue threshold."""

    rank: int
    basis: np.ndarray  # (dim, rank), orthonormal columns
    threshold: float

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def default_support_threshold(dim: int, lambda_max: float) -> float:
    return dim * EPS * max(lambda_max, 0.0)


def _support(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix, or of each matrix in an ``(n, d, d)``
    stack, and the mask of the support: eigenvalues strictly above
    ``dim * eps * max(lambda_max, 0)`` (:func:`default_support_threshold`)."""
    w, v = _eigh(mat)
    lam = max(float(w[-1]), 0.0) if w.ndim == 1 else np.maximum(w[:, -1:], 0.0)
    return w, v, w > mat.shape[-1] * EPS * lam


def _support_quad(
    x: np.ndarray, v: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, float]:
    """Diagonal ``v_k* X v_k`` of ``X`` in the eigenbasis ``v``, and the trace
    mass of ``X`` outside the kept columns when it exceeds
    ``SUPPORT_DEFECT_TOL * max(1, trace X)`` (0.0 within tolerance)."""
    quad = np.real(np.sum(np.conj(v) * (x @ v), axis=0))
    if keep.all():
        # a full support leaks nothing; the defect would be rounding noise
        return quad, 0.0
    trace_x = float(x.trace().real)
    leak = trace_x - float(quad[keep].sum())
    return quad, leak if leak > SUPPORT_DEFECT_TOL * max(1.0, trace_x) else 0.0


def support_of(a: OperatorLike) -> SupportProjection:
    """Support projection of a PSD operator: the eigenvectors with eigenvalue
    strictly above ``dim * eps * lambda_max``."""
    mat = _as_matrix(a)
    w, v, keep = _support(mat)
    _require_psd(w, "support argument")
    return SupportProjection(
        rank=int(keep.sum()),
        basis=np.ascontiguousarray(v[:, keep]),
        threshold=default_support_threshold(mat.shape[0], float(w[-1])),
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


def trace_norm(x: OperatorLike) -> float:
    """Sum of absolute eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(_as_matrix(x))).sum())


def operator_norm(x: OperatorLike) -> float:
    """Largest absolute eigenvalue."""
    return float(np.abs(np.linalg.eigvalsh(_as_matrix(x))).max())


# ---------------------------------------------------------------------------
# Seeded random generation
# ---------------------------------------------------------------------------

RngLike = Union[np.random.Generator, int]


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_state(dim: int, rng: RngLike) -> DensityMatrix:
    """Random density matrix from the Hilbert-Schmidt measure: G G* normalized."""
    if dim < 1:
        raise DomainError("dim must be at least 1")
    rng = _as_rng(rng)
    g = _complex_gaussian(rng, (dim, dim))
    p = g @ g.conj().T
    return DensityMatrix.from_matrix(p)


def random_hamiltonian(dim: int, rng: RngLike) -> HermitianOperator:
    """Random GUE-style Hermitian matrix rescaled to unit operator norm."""
    if dim < 1:
        raise DomainError("dim must be at least 1")
    rng = _as_rng(rng)
    while True:
        h = _symmetrized(_complex_gaussian(rng, (dim, dim)))
        norm = float(np.abs(np.linalg.eigvalsh(h)).max())
        if norm > 0.0:
            return HermitianOperator(h / norm)


def random_cptp(dim_in: int, dim_env: int, rng: RngLike) -> list[np.ndarray]:
    """Random quantum channel as Kraus operators via a Stinespring isometry.

    A Haar unitary on the system-environment space is drawn from the QR
    factorization of a Gaussian matrix; its first ``dim_in`` columns split into
    ``dim_env`` Kraus blocks satisfying ``sum K_i* K_i = id``.
    """
    if dim_in < 1 or dim_env < 1:
        raise DomainError("dimensions must be at least 1")
    rng = _as_rng(rng)
    total = dim_in * dim_env
    g = _complex_gaussian(rng, (total, total))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    q = q * phases  # fix the QR gauge so the distribution is Haar
    isometry = q[:, :dim_in]
    return [
        np.ascontiguousarray(isometry[i * dim_in : (i + 1) * dim_in, :])
        for i in range(dim_env)
    ]


def random_unitary(dim: int, rng: RngLike) -> np.ndarray:
    """Haar-distributed unitary matrix."""
    (k,) = random_cptp(dim, 1, rng)
    return k
