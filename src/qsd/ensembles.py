"""Ensembles of quantum states: Holevo information, complementary states,
continuity bounds, Hamiltonian mixing dynamics and the incremental-mixing
entropy bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .divergences import (
    _as_alpha,
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
    _as_matrix,
    _common_dim,
    _eigh,
    _frozen,
    _integral,
    _like_input,
    _support,
    _support_quad,
    _symmetrized,
)

WEIGHT_SUM_TOL = 1e-12


class Ensemble:
    """Probability weights paired with density matrices of a common dimension.

    Zero-weight members are dropped at construction so that every
    ``-p log p`` and skew parameter derived from the weights is well defined.
    The validated members are also kept as one read-only ``(n, d, d)`` stack,
    on which every route of this module evaluates.
    """

    __slots__ = ("_weights", "_states", "_stack")

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

        kept = np.flatnonzero(w)
        if kept.size == 0:
            raise DomainError("all weights are zero")
        if any(abs(float(np.trace(_as_matrix(states[i])).real) - 1.0) > 1e-10 for i in kept):
            raise DomainError("ensemble members must have unit trace")
        members = tuple(DensityMatrix(states[i]) for i in kept)
        dims = {dm.dim for dm in members}
        if len(dims) != 1:
            raise DimensionMismatchError(f"states have mixed dimensions {sorted(dims)}")

        self._weights = w[kept]
        self._weights.flags.writeable = False
        self._states = members
        self._stack = _frozen(np.stack([dm.mat for dm in members]))

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def states(self) -> tuple[DensityMatrix, ...]:
        return self._states

    @property
    def n(self) -> int:
        return len(self._states)

    @property
    def dim(self) -> int:
        return self._stack.shape[-1]

    def __repr__(self) -> str:
        return f"Ensemble(n={self.n}, dim={self.dim})"


@dataclass(frozen=True)
class MixingExperiment:
    """A binary ensemble whose members evolve under their own Hamiltonians
    for a fixed time."""

    ensemble: Ensemble
    h1: HermitianOperator
    h2: HermitianOperator
    time: float

    def __post_init__(self):
        if self.ensemble.n != 2:
            raise DomainError("mixing experiments require a binary ensemble")
        if self.h1.dim != self.ensemble.dim or self.h2.dim != self.ensemble.dim:
            raise DimensionMismatchError("Hamiltonian dimension must match the ensemble")
        if not (math.isfinite(self.time) and self.time >= 0.0):
            raise DomainError(f"time must be finite and nonnegative, got {self.time}")


def _mixture(ensemble: Ensemble) -> np.ndarray:
    """``sum p_j rho_j`` over the members. The members were validated when
    the ensemble was built; a consumer that needs a state validates the
    mixture where it enters."""
    return np.einsum("j,jkl->kl", ensemble.weights, ensemble._stack)


def _complement_weights(w: np.ndarray) -> np.ndarray:
    """Row ``i``: the weights of every member but ``i``, divided by their sum
    (``1 - p_i`` loses digits when ``p_i`` is near 1)."""
    c = np.where(np.eye(w.size, dtype=bool), 0.0, w)
    return c / c.sum(axis=1, keepdims=True)


def _complements(ensemble: Ensemble) -> np.ndarray:
    """The ``n >= 2`` complementary mixtures as an ``(n, d, d)`` stack: item
    ``i`` mixes every member but ``i`` with the weights of row ``i`` of
    :func:`_complement_weights`, in one BLAS matrix product over the
    flattened members (its ``n^2 d^2`` terms are too many for ``einsum``)."""
    c, stack = _complement_weights(ensemble.weights), ensemble._stack
    return (c @ stack.reshape(ensemble.n, -1)).reshape(stack.shape)


def average_state(ensemble: Ensemble) -> DensityMatrix:
    """Weighted mixture ``sum p_i rho_i`` of the ensemble members."""
    return DensityMatrix.from_matrix(_mixture(ensemble))


def complementary_state(ensemble: Ensemble, index: int) -> DensityMatrix:
    """Reweighted mixture of all members except ``index``."""
    if ensemble.n < 2:
        raise DomainError("complementary states need at least two members")
    if not (_integral(index) and 0 <= index < ensemble.n):
        raise DomainError(f"index must be an integer in [0, {ensemble.n}), got {index!r}")
    stack = ensemble._stack
    row = _complement_weights(ensemble.weights)[index] @ stack.reshape(ensemble.n, -1)
    return DensityMatrix.from_matrix(row.reshape(stack.shape[1:]))


def holevo_chi(ensemble: Ensemble) -> float:
    """Holevo information ``S(sum p_i rho_i) - sum p_i S(rho_i)``."""
    entropies = -_xlogx(np.linalg.eigvalsh(ensemble._stack))
    return von_neumann_entropy(_mixture(ensemble)) - float(np.dot(ensemble.weights, entropies))


def holevo_chi_relative_entropy_form(ensemble: Ensemble) -> float:
    """Equivalent evaluation ``sum p_i S(rho_i || rho_0)`` (cross-check route);
    ``rho_0 >= p_i rho_i``, so no member leaks out of the support of ``rho_0``."""
    stack = ensemble._stack
    w, v, keep = _support(_mixture(ensemble))
    values = _relative_entropy_on(stack, w, v, keep, _support_quad(stack, v))
    return float(np.dot(ensemble.weights, values))


def holevo_chi_skew_divergence_form(ensemble: Ensemble) -> float:
    """Equivalent evaluation ``-sum p_i log(p_i) SD_{p_i}(rho_i || rhobar_i)``
    through the complementary states (cross-check route); ``-log p_i`` cancels
    the divergence's ``1/(-log p_i)``, so every weight is a valid skew."""
    if ensemble.n == 1:
        return 0.0
    w = ensemble.weights
    return float(np.dot(w, _skewed_relative_entropy(ensemble._stack, _complements(ensemble), w)))


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


def chi_upper_bounds(ensemble: Ensemble) -> ChiBoundRecord:
    """Holevo information and its trace-distance upper-bound chain."""
    chi = holevo_chi(ensemble)
    w, n, stack = ensemble.weights, ensemble.n, ensemble._stack

    dist = np.zeros((n, n))
    comp_bound = pair_bound = 0.0
    if n > 1:
        i, j = np.triu_indices(n, 1)
        dist[i, j] = dist[j, i] = _trace_distance(stack[i], stack[j])
        coeff = -w * np.log(w)
        comp_bound = float(np.dot(coeff, _trace_distance(stack, _complements(ensemble))))
        # the complementary weights, normalized as _complements normalizes them
        pair_bound = float(np.dot(coeff, (_complement_weights(w) * dist).sum(axis=1)))
    t_max = float(dist.max())
    entropy_times_t = shannon_entropy(w) * t_max

    roga = None
    if n == 2:
        p = float(w[0])
        off = math.sqrt(p * (1.0 - p)) * fidelity(*ensemble.states)
        roga = von_neumann_entropy(np.array([[p, off], [off, 1.0 - p]]))

    return ChiBoundRecord(
        chi=chi,
        complementary_bound=comp_bound,
        pairwise_bound=pair_bound,
        entropy_times_t=entropy_times_t,
        max_pairwise_distance=t_max,
        roga_bound=roga,
    )


@dataclass(frozen=True)
class ChiContinuityRecord:
    """Change of the Holevo information under member-wise perturbations."""

    delta_chi: float
    weighted_bound: float
    dimension_free_bound: float
    max_member_distance: float
    member_distances: tuple[float, ...]
    complementary_distances: tuple[float, ...]


def chi_continuity_bound(ensemble: Ensemble, other: Ensemble) -> ChiContinuityRecord:
    """Bound ``|chi(E) - chi(E')|`` for ensembles with identical weights.

    The weighted bound sums ``p_i [t log(1 + (1-p_i)/(p_i t)) +
    log(1 + (1-p_i) t / p_i)]`` over members with ``t`` the largest member
    distance; eliminating the weights by concavity of the log gives the
    dimension-free form ``t log(1 + (n-1)/t) + log(1 + (n-1) t)``.
    """
    if ensemble.n != other.n:
        raise DomainError("ensembles must have the same number of members")
    if ensemble.dim != other.dim:
        raise DimensionMismatchError("ensembles must share dimension")
    if not np.allclose(ensemble.weights, other.weights, rtol=0.0, atol=1e-12):
        raise DomainError("ensembles must carry identical weights")

    n = ensemble.n
    t_members = _trace_distance(ensemble._stack, other._stack)
    t = float(t_members.max())
    delta_chi = abs(holevo_chi(ensemble) - holevo_chi(other))

    # a single member has no complement
    t_comp = _trace_distance(_complements(ensemble), _complements(other)) if n > 1 else np.empty(0)

    if t == 0.0:  # the bound formulas divide by t
        weighted = dimension_free = 0.0
    else:
        p = ensemble.weights
        weighted = float(
            np.sum(p * t * np.log1p((1.0 - p) / (p * t)) + p * np.log1p((1.0 - p) * t / p))
        )
        dimension_free = t * math.log1p((n - 1) / t) + math.log1p((n - 1) * t)
    return ChiContinuityRecord(
        delta_chi=delta_chi,
        weighted_bound=weighted,
        dimension_free_bound=dimension_free,
        max_member_distance=t,
        member_distances=tuple(t_members.tolist()),
        complementary_distances=tuple(t_comp.tolist()),
    )


def _propagator(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """``U = exp(i t H)`` from the eigenpairs ``w``, ``v`` of ``H``, or of
    each ``H`` of a stack."""
    return (v * np.exp(1j * t * w)[..., None, :]) @ _adjoint(v)


def evolve(rho: OperatorLike, hamiltonian: OperatorLike, t: float) -> DensityMatrix:
    """Unitary evolution ``U rho U*`` with ``U = exp(i t H)``; a state when
    ``rho`` is a normalized :class:`DensityMatrix`, otherwise a positive
    operator with the trace of ``rho``."""
    if not math.isfinite(t):
        raise DomainError(f"evolution time t must be finite, got {t}")
    hmat, rmat = _common_dim(hamiltonian, rho)
    u = _propagator(*_eigh(hmat), t)
    return _like_input(rho, u @ rmat @ _adjoint(u))


def mixing_rate(experiment: MixingExperiment) -> float:
    """Entropy production rate ``d/dt S(rho_0(t))`` at the experiment's time.

    Evaluates ``-trace(rho_0' log rho_0)`` on the support of ``rho_0``; the
    derivative ``sum p_j i [H_j, rho_j(t)]`` is traceless, so no identity term.
    """
    t, ens = experiment.time, experiment.ensemble
    h = np.stack([experiment.h1.mat, experiment.h2.mat])
    r = ens._stack
    if t != 0.0:
        u = _propagator(*_eigh(h), t)
        r = u @ r @ _adjoint(u)
    p = ens.weights
    w, v, keep = _support(np.einsum("j,jkl->kl", p, r))  # rho_0(t)
    quad = _support_quad(np.einsum("j,jkl->kl", p * 1j, h @ r - r @ h), v)
    return -float(np.dot(np.log(np.where(keep, w, 1.0)), quad))  # log 1 = 0 off the support


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


def sim_bound_check(experiment: MixingExperiment) -> SimBoundRecord:
    """Entropy gain of a binary mixing experiment against ``2 t h(p) ||H||``."""
    ens = experiment.ensemble
    # the increments are skew divergences at skews p_1 and p_2
    p1, p2 = (_as_alpha(float(x)) for x in ens.weights)
    rho1, rho2 = ens._stack
    t = experiment.time
    h1, h2 = experiment.h1, experiment.h2
    w, v = _eigh(np.stack([h1.mat, h2.mat, (h2 - h1).mat]))
    h_norm = float(np.abs(w[2]).max())

    # rho_0(t) = U_1 (p_1 rho_1 + p_2 V rho_2 V*) U_1* with the relative
    # unitary V = U_1* U_2, and every quantity below is unitarily invariant
    u1, u2 = _propagator(w[:2], v[:2], t)
    u = _adjoint(u1) @ u2
    rho2_t = _symmetrized(u @ rho2 @ _adjoint(u))
    rho1_back = _symmetrized(_adjoint(u) @ rho1 @ u)

    rho0_t = p1 * rho1 + p2 * rho2_t
    entropy_gain = von_neumann_entropy(rho0_t) - von_neumann_entropy(_mixture(ens))

    # d_i is -log p_i times the skew-divergence increment of member i: its
    # skewed entropy against the moved partner less that against the unmoved
    s = _skewed_relative_entropy(
        np.stack([rho1, rho1, rho2, rho2]),
        np.stack([rho2_t, rho2, rho1_back, rho1]),
        np.array([p1, p1, p2, p2]),
    )
    d1, d2 = s[0] - s[1], s[2] - s[3]

    return SimBoundRecord(
        entropy_gain=entropy_gain,
        sim_bound=2.0 * t * shannon_entropy((p1, p2)) * h_norm,
        sd_representation_residual=abs(entropy_gain - (p1 * d1 + p2 * d2)),
        bravyi_lhs=(d1 / -math.log(p1), d2 / -math.log(p2)),
        bravyi_rhs=2.0 * t * h_norm,
        hamiltonian_norm=h_norm,
    )
