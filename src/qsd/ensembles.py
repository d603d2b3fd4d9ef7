"""Ensembles of quantum states: Holevo information, complementary states,
continuity bounds, Hamiltonian mixing dynamics and the incremental-mixing
entropy bound.

Every route evaluates on member stacks. One ensemble (or experiment) gives a
float, or a record of floats. The verify harness builds, through
``Ensemble._of``, one ensemble of its trials' ensembles, each padded with zero
weights and zero matrices to the largest member count ``n`` (at most 4), and
experiments of such ensembles. A route runs it once as a ``(T, n, d, d)``
stack and gives an array of one value per trial, or a record of such arrays,
each trial its single call bit for bit while n <= 7.
A member, or an operand of ``evolve``, is a state by its trace alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .divergences import (
    _as_alpha,
    _dot,
    _relative_entropy_on,
    _skewed_relative_entropy,
    _trace_distance,
    _xlogx,
    fidelity,
    shannon_entropy,
    von_neumann_entropy,
)
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    OperatorLike,
    _adjoint,
    _common_dim,
    _eigh,
    _frozen,
    _integral,
    _is_state,
    _like_input,
    _support,
    _support_quad,
    _symmetrized,
)

WEIGHT_SUM_TOL = 1e-12


class Ensemble:
    """Probability weights paired with states of a common dimension, each
    an array or an operator whose trace lies within ``STATE_TRACE_TOL`` of 1.

    Zero-weight members are dropped at construction so that every
    ``-p log p`` and skew parameter derived from the weights is well defined.
    The validated members are kept as one read-only ``(n, d, d)`` stack,
    :attr:`members`, on which every route of this module evaluates;
    :attr:`states` views it.
    """

    __slots__ = ("_weights", "_stack")

    def __init__(self, weights: Sequence[float], states: Sequence):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must form a nonempty vector")
        if len(states) != w.size:
            raise DomainError("weights and states must have equal length")
        if not np.isfinite(w).all():
            raise DomainError(f"non-finite weight {w[~np.isfinite(w)][0]}")
        if w.min() < 0.0:
            raise DomainError(f"negative weight {w.min()}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(f"weights sum to {w.sum()}, expected 1")

        # weights summing to 1 keep at least one member
        kept = np.flatnonzero(w)
        operators = []
        for i in kept:
            # a raw member is symmetrized once, here; DensityMatrix reads .mat
            s = states[i]
            op = s if isinstance(s, HermitianOperator) else HermitianOperator(s)
            if not _is_state(op.mat):
                raise DomainError("ensemble members must have unit trace")
            operators.append(op)
        members = [DensityMatrix(op).mat for op in operators]
        dims = {m.shape[0] for m in members}
        if len(dims) != 1:
            raise DimensionMismatchError(f"states have mixed dimensions {sorted(dims)}")
        self._weights, self._stack = w[kept], _frozen(np.stack(members))
        self._weights.flags.writeable = False

    @classmethod
    def _of(cls, weights: np.ndarray, stack: np.ndarray) -> "Ensemble":
        """Read-only ``(n,)`` weights summing to 1 and ``(n, d, d)`` states,
        unchecked; or ``(T, n)`` and ``(T, n, d, d)``, the ensembles of ``T``
        trials, each padded past its members with zero weights and matrices."""
        self = object.__new__(cls)
        self._weights, self._stack = weights, stack
        return self

    def __getitem__(self, k: int) -> "Ensemble":
        """Trial ``k`` of a stack of ensembles, its pads dropped."""
        if self._weights.ndim != 2:
            raise TypeError("only a stack of ensembles has trials")
        n = np.count_nonzero(self._weights[k])
        return Ensemble._of(self._weights[k, :n], self._stack[k, :n])

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def members(self) -> np.ndarray:
        """The read-only member stack."""
        return self._stack

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        return tuple(map(DensityMatrix._of, self._stack))

    @property
    def n(self) -> int:
        return self._stack.shape[-3]

    @property
    def dim(self) -> int:
        return self._stack.shape[-1]

    def __repr__(self) -> str:
        return f"Ensemble(n={self.n}, dim={self.dim})"


@dataclass(frozen=True)
class MixingExperiment:
    """A binary ensemble whose members evolve under their own Hamiltonians
    for a fixed time; on a stack of ensembles, a pair and a time per trial."""

    ensemble: Ensemble
    h1: HermitianOperator
    h2: HermitianOperator
    time: float

    def __post_init__(self):
        if self.ensemble.n != 2:
            raise DomainError("mixing experiments require a binary ensemble")
        if self.h1.dim != self.ensemble.dim or self.h2.dim != self.ensemble.dim:
            raise DimensionMismatchError("Hamiltonian dimension must match the ensemble")
        t = np.asarray(self.time)
        if not np.all(np.isfinite(t) & (t >= 0.0)):
            raise DomainError(f"time must be finite and nonnegative, got {self.time}")

    def __getitem__(self, k: int) -> "MixingExperiment":
        """Trial ``k`` of a stack of experiments."""
        h1, h2 = (HermitianOperator._of(h.mat[k]) for h in (self.h1, self.h2))
        return MixingExperiment(self.ensemble[k], h1, h2, float(self.time[k]))


def _arrays(item) -> tuple:
    """The arrays a route evaluates of one ensemble or experiment."""
    if isinstance(item, MixingExperiment):
        return (*_arrays(item.ensemble), item.h1.mat, item.h2.mat, item.time)
    if not isinstance(item, Ensemble):
        raise TypeError(f"expected an Ensemble or a MixingExperiment, got {type(item).__name__}")
    return (item.weights, item.members)


def _plain(result):
    """A single item's result as floats: an axis as a tuple, a record field
    by field, None as it is."""
    if dataclasses.is_dataclass(result):
        fields = dataclasses.fields(result)
        return dataclasses.replace(result, **{f.name: _plain(getattr(result, f.name)) for f in fields})
    if result is None or np.ndim(result) == 0:
        return None if result is None else float(result)
    return tuple(result.tolist())


def _route(core, *items):
    """``core`` on the :func:`_arrays` of one ensemble or experiment per
    argument: floats for one trial, an axis of values for a stack of them.
    Zero weights pad a stack, so ``w > 0`` is the member mask of every core."""
    arrays = [a for item in items for a in _arrays(item)]
    result = core(*arrays)
    return _plain(result) if arrays[0].ndim == 1 else result


def _mixture(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``sum p_j rho_j`` of one ensemble's weights and member stack, or of
    each ensemble of a stack of them. The members were validated when the
    ensemble was built; a consumer that needs a state validates the mixture
    where it enters."""
    return np.einsum("...j,...jkl->...kl", w, stack)


def _complement_weights(w: np.ndarray) -> np.ndarray:
    """Row ``i``: the weights of every member but ``i``, divided by their sum
    (``1 - p_i`` loses digits when ``p_i`` is near 1); a lone member's row
    stays 0."""
    c = np.where(np.eye(w.shape[-1], dtype=bool), 0.0, w[..., None, :])
    total = c.sum(axis=-1, keepdims=True)
    return c / np.where(total > 0.0, total, 1.0)


def _complements(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The ``n >= 2`` complementary mixtures of each member stack: item ``i``
    mixes every member but ``i`` with the weights of row ``i`` of
    :func:`_complement_weights`, in one real BLAS matrix product over the
    flattened members (its ``n^2 d^2`` terms are too many for ``einsum``);
    real and imaginary parts as columns of their own keep ``d = 1`` off the
    matrix-vector product, whose sums a zero pad can regroup."""
    flat = stack.reshape(*stack.shape[:-2], -1).view(np.float64)
    return (_complement_weights(w) @ flat).view(np.complex128).reshape(stack.shape)


def average_state(ensemble: Ensemble) -> DensityMatrix:
    """Weighted mixture ``sum p_i rho_i`` of the ensemble members."""
    return DensityMatrix.from_matrix(_mixture(ensemble.weights, ensemble.members))


def complementary_state(ensemble: Ensemble, index: int) -> DensityMatrix:
    """Reweighted mixture of all members except ``index``."""
    if ensemble.n < 2:
        raise DomainError("complementary states need at least two members")
    if not (_integral(index) and 0 <= index < ensemble.n):
        raise DomainError(f"index must be an integer in [0, {ensemble.n}), got {index!r}")
    stack = ensemble.members
    row = _complement_weights(ensemble.weights)[index] @ stack.reshape(ensemble.n, -1)
    return DensityMatrix.from_matrix(row.reshape(stack.shape[1:]))


def _chi(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    entropies = -_xlogx(np.linalg.eigvalsh(stack))
    return von_neumann_entropy(_mixture(w, stack)) - _dot(w, entropies)


def holevo_chi(ensemble: Ensemble) -> float:
    """Holevo information ``S(sum p_i rho_i) - sum p_i S(rho_i)``."""
    return _route(_chi, ensemble)


def _chi_relative_entropy_form(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    wm, v, keep = _support(_mixture(w, stack))
    wm, v, keep = wm[..., None, :], v[..., None, :, :], keep[..., None, :]
    return _dot(w, _relative_entropy_on(stack, wm, v, keep, _support_quad(stack, v)))


def holevo_chi_relative_entropy_form(ensemble: Ensemble) -> float:
    """Equivalent evaluation ``sum p_i S(rho_i || rho_0)`` (cross-check route);
    ``rho_0 >= p_i rho_i``, so no member leaks out of the support of ``rho_0``."""
    return _route(_chi_relative_entropy_form, ensemble)


def _chi_skew_divergence_form(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    if stack.shape[-3] == 1:
        return np.zeros(stack.shape[:-3])
    # a pad is skewed at 0 against the average and weighs 0; a lone member,
    # skewed at 1 against its empty complement, has no divergence
    chi = _dot(w, _skewed_relative_entropy(stack, _complements(w, stack), w))
    return np.where(np.count_nonzero(w, axis=-1) > 1, chi, 0.0)


def holevo_chi_skew_divergence_form(ensemble: Ensemble) -> float:
    """Equivalent evaluation ``-sum p_i log(p_i) SD_{p_i}(rho_i || rhobar_i)``
    through the complementary states (cross-check route); ``-log p_i`` cancels
    the divergence's ``1/(-log p_i)``, so every weight is a valid skew."""
    return _route(_chi_skew_divergence_form, ensemble)


@dataclass(frozen=True)
class ChiBoundRecord:
    """Holevo information together with its upper-bound chain.

    ``chi <= complementary_bound <= pairwise_bound <= entropy_times_t`` holds
    trial by trial; ``roga_bound`` (binary ensembles only) is the entropy of
    the 2x2 fidelity surrogate state.
    """

    chi: float
    complementary_bound: float
    pairwise_bound: float
    entropy_times_t: float
    max_pairwise_distance: float
    roga_bound: float | None = None


def _chi_bounds(w: np.ndarray, stack: np.ndarray) -> ChiBoundRecord:
    n, real = stack.shape[-3], w > 0.0
    dist = np.zeros((*stack.shape[:-3], n, n))
    comp_bound = pair_bound = np.zeros(stack.shape[:-3])
    if n > 1:
        i, j = np.triu_indices(n, 1)
        # a pair with a pad is no pair: its distance stays 0
        t_pairs = _trace_distance(stack[..., i, :, :], stack[..., j, :, :])
        dist[..., i, j] = dist[..., j, i] = np.where(real[..., i] & real[..., j], t_pairs, 0.0)
        coeff = -w * np.log(np.where(real, w, 1.0))
        comp_bound = _dot(coeff, _trace_distance(stack, _complements(w, stack)))
        # the complementary weights, normalized as _complements normalizes them
        pair_bound = _dot(coeff, (_complement_weights(w) * dist).sum(axis=-1))
    t_max = dist.max(axis=(-2, -1))

    binary = np.count_nonzero(w, axis=-1) == 2
    roga = np.full(binary.shape, np.nan)
    if binary.any():
        p = w[..., 0]
        off = np.sqrt(p * (1.0 - p)) * fidelity(stack[..., 0, :, :], stack[..., 1, :, :])
        surrogate = np.stack([np.stack([p, off], -1), np.stack([off, 1.0 - p], -1)], -2)
        roga = np.where(binary, von_neumann_entropy(surrogate), np.nan)

    return ChiBoundRecord(
        chi=_chi(w, stack),
        complementary_bound=comp_bound,
        pairwise_bound=pair_bound,
        entropy_times_t=shannon_entropy(w) * t_max,
        max_pairwise_distance=t_max,
        roga_bound=roga if binary.ndim or binary else None,
    )


def chi_upper_bounds(ensemble: Ensemble) -> ChiBoundRecord:
    """Holevo information and its trace-distance upper-bound chain."""
    return _route(_chi_bounds, ensemble)


@dataclass(frozen=True)
class ChiContinuityRecord:
    """Change of the Holevo information under member-wise perturbations."""

    delta_chi: float
    weighted_bound: float
    dimension_free_bound: float
    max_member_distance: float
    member_distances: tuple[float, ...]
    complementary_distances: tuple[float, ...]


def _chi_continuity(w, stack, w_other, stack_other) -> ChiContinuityRecord:
    real, n = w > 0.0, np.count_nonzero(w, axis=-1)
    if np.any(n != np.count_nonzero(w_other, axis=-1)):
        raise DomainError("ensembles must have the same number of members")
    if stack.shape[-1] != stack_other.shape[-1]:
        raise DimensionMismatchError("ensembles must share dimension")
    if not np.allclose(w, w_other, rtol=0.0, atol=1e-12):
        raise DomainError("ensembles must carry identical weights")

    t_members = _trace_distance(stack, stack_other)
    t = t_members.max(axis=-1)
    # a single member has no complement
    t_comp = np.empty((*stack.shape[:-3], 0))
    if stack.shape[-3] > 1:
        t_comp = _trace_distance(_complements(w, stack), _complements(w_other, stack_other))

    # the bound formulas divide by t; where it vanishes, so do the bounds.
    # A pad enters as p = 1, whose terms are 0
    s = np.where(t == 0.0, 1.0, t)
    p, s1 = np.where(real, w, 1.0), s[..., None]
    weighted = np.sum(p * s1 * np.log1p((1.0 - p) / (p * s1)) + p * np.log1p((1.0 - p) * s1 / p), -1)
    dimension_free = s * np.log1p((n - 1) / s) + np.log1p((n - 1) * s)
    return ChiContinuityRecord(
        delta_chi=np.abs(_chi(w, stack) - _chi(w_other, stack_other)),
        weighted_bound=np.where(t == 0.0, 0.0, weighted),
        dimension_free_bound=np.where(t == 0.0, 0.0, dimension_free),
        max_member_distance=t,
        member_distances=np.where(real, t_members, np.nan),
        complementary_distances=np.where(real & (n > 1)[..., None], t_comp, np.nan),
    )


def chi_continuity_bound(ensemble: Ensemble, other: Ensemble) -> ChiContinuityRecord:
    """Bound ``|chi(E) - chi(E')|`` for ensembles with identical weights.

    The weighted bound sums ``p_i [t log(1 + (1-p_i)/(p_i t)) +
    log(1 + (1-p_i) t / p_i)]`` over members with ``t`` the largest member
    distance; eliminating the weights by concavity of the log gives the
    dimension-free form ``t log(1 + (n-1)/t) + log(1 + (n-1) t)``.
    """
    return _route(_chi_continuity, ensemble, other)


def _propagator(w: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """``U = exp(i t H)`` from the eigenpairs ``w``, ``v`` of ``H``, or of
    each ``H`` of a stack; ``t`` broadcasts against ``w``."""
    return (v * np.exp(1j * t * w)[..., None, :]) @ _adjoint(v)


def evolve(rho: OperatorLike, hamiltonian: OperatorLike, t) -> DensityMatrix:
    """Unitary evolution ``U rho U*`` with ``U = exp(i t H)``: divided by its
    trace when ``rho`` is a state (trace within ``STATE_TRACE_TOL`` of 1),
    otherwise a positive operator with the trace of ``rho``. A raw
    ``(n, d, d)`` stack, with a raw stack of Hamiltonians and one ``t`` or one
    per item, gives the read-only stack of the moved items, each under the
    same rule."""
    t = np.asarray(t, dtype=np.float64)
    if not np.isfinite(t).all():
        raise DomainError(f"evolution time t must be finite, got {t[~np.isfinite(t)][0]}")
    hmat, rmat = _common_dim(hamiltonian, rho, stacked=True)
    if t.shape not in ((), hmat.shape[:-2]):
        raise DomainError(f"t must be one float or one per item, got shape {t.shape}")
    u = _propagator(*_eigh(hmat), t[..., None])
    return _like_input(rmat, u @ rmat @ _adjoint(u))


def _mixing_rate(p, stack, h1, h2, t) -> np.ndarray:
    t, h, r = np.asarray(t), np.stack([h1, h2], axis=-3), stack
    moving = t != 0.0
    if moving.any():
        u = _propagator(*_eigh(h), t[..., None, None])
        r = np.where(moving[..., None, None, None], u @ r @ _adjoint(u), r)
    w, v, keep = _support(_mixture(p, r))  # rho_0(t)
    quad = _support_quad(_mixture(p * 1j, h @ r - r @ h), v)
    return -_dot(np.log(np.where(keep, w, 1.0)), quad)  # log 1 = 0 off the support


def mixing_rate(experiment: MixingExperiment) -> float:
    """Entropy production rate ``d/dt S(rho_0(t))`` at the experiment's time.

    Evaluates ``-trace(rho_0' log rho_0)`` on the support of ``rho_0``; the
    derivative ``sum p_j i [H_j, rho_j(t)]`` is traceless, so no identity term.
    """
    return _route(_mixing_rate, experiment)


@dataclass(frozen=True)
class SimBoundRecord:
    """Finite-time entropy gain of a binary mixing experiment and its bounds.

    Each member evolves under its own Hamiltonian, as in :func:`mixing_rate`;
    ``H = H_2 - H_1``. ``bravyi_lhs`` holds the two skew-divergence
    increments (at skew parameters ``p_1`` and ``p_2``) whose weighted sum
    reconstructs the entropy gain; each is bounded by ``bravyi_rhs = 2 t
    ||H||``.
    """

    entropy_gain: float
    sim_bound: float
    sd_representation_residual: float
    bravyi_lhs: tuple[float, float]
    bravyi_rhs: float
    hamiltonian_norm: float


def _sim_bound(w, stack, h1, h2, t) -> SimBoundRecord:
    # the increments are skew divergences at skews p_1 and p_2
    p, t = _as_alpha(w), np.asarray(t)
    p1, p2 = p[..., 0], p[..., 1]
    rho1, rho2 = stack[..., 0, :, :], stack[..., 1, :, :]
    wh, vh = _eigh(np.stack([h1, h2, _symmetrized(h2 - h1)], axis=-3))
    h_norm = np.abs(wh[..., 2, :]).max(axis=-1)

    # rho_0(t) = U_1 (p_1 rho_1 + p_2 V rho_2 V*) U_1* with the relative
    # unitary V = U_1* U_2, and every quantity below is unitarily invariant
    u12 = _propagator(wh[..., :2, :], vh[..., :2, :, :], t[..., None, None])
    u = _adjoint(u12[..., 0, :, :]) @ u12[..., 1, :, :]
    rho2_t = _symmetrized(u @ rho2 @ _adjoint(u))
    rho1_back = _symmetrized(_adjoint(u) @ rho1 @ u)

    rho0_t = p1[..., None, None] * rho1 + p2[..., None, None] * rho2_t
    entropy_gain = von_neumann_entropy(rho0_t) - von_neumann_entropy(_mixture(w, stack))

    # d_i is -log p_i times the skew-divergence increment of member i: its
    # skewed entropy against the moved partner less that against the unmoved
    s = _skewed_relative_entropy(
        np.stack([rho1, rho1, rho2, rho2], axis=-3),
        np.stack([rho2_t, rho2, rho1_back, rho1], axis=-3),
        np.stack([p1, p1, p2, p2], axis=-1),
    )
    d1, d2 = s[..., 0] - s[..., 1], s[..., 2] - s[..., 3]

    return SimBoundRecord(
        entropy_gain=entropy_gain,
        sim_bound=2.0 * t * shannon_entropy(p) * h_norm,
        sd_representation_residual=np.abs(entropy_gain - (p1 * d1 + p2 * d2)),
        bravyi_lhs=np.stack([d1, d2], axis=-1) / -np.log(p),
        bravyi_rhs=2.0 * t * h_norm,
        hamiltonian_norm=h_norm,
    )


def sim_bound_check(experiment: MixingExperiment) -> SimBoundRecord:
    """Entropy gain of a binary mixing experiment against ``2 t h(p) ||H||``."""
    return _route(_sim_bound, experiment)
