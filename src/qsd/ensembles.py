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
    fidelity,
    shannon_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    OperatorLike,
    _as_matrix,
    _common_dim,
    _eigh,
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
    """

    __slots__ = ("_weights", "_states")

    def __init__(self, weights: Sequence[float], states: Sequence):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise DomainError("weights must form a nonempty vector")
        if len(states) != w.size:
            raise DomainError("weights and states must have equal length")
        if w.min() < 0.0:
            raise DomainError(f"negative weight {w.min()}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(f"weights sum to {w.sum()}, expected 1")

        members = []
        for wi, state in zip(w, states):
            if wi == 0.0:
                continue
            if abs(float(np.trace(_as_matrix(state)).real) - 1.0) > 1e-10:
                raise DomainError("ensemble members must have unit trace")
            members.append((float(wi), DensityMatrix(state)))
        if not members:
            raise DomainError("all weights are zero")
        dims = {dm.dim for _, dm in members}
        if len(dims) != 1:
            raise DimensionMismatchError(f"states have mixed dimensions {sorted(dims)}")

        arr = np.array([wi for wi, _ in members])
        arr.flags.writeable = False
        self._weights = arr
        self._states = tuple(dm for _, dm in members)

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
        return self._states[0].dim

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
        if self.time < 0.0:
            raise DomainError("time must be nonnegative")


def _mixture(ensemble: Ensemble, skip: int | None = None) -> np.ndarray:
    """``sum p_j rho_j`` over the members, or over all but ``skip`` divided by
    the sum of their weights (``1 - p_skip`` loses digits when ``p_skip`` is
    near 1). The members were validated when the ensemble was built; a
    consumer that needs a state validates the mixture where it enters."""
    kept = [j for j in range(ensemble.n) if j != skip]
    acc = sum(ensemble.weights[j] * ensemble.states[j].mat for j in kept)
    return acc if skip is None else acc / ensemble.weights[kept].sum()


def average_state(ensemble: Ensemble) -> DensityMatrix:
    """Weighted mixture ``sum p_i rho_i`` of the ensemble members."""
    return DensityMatrix.from_matrix(_mixture(ensemble))


def complementary_state(ensemble: Ensemble, index: int) -> DensityMatrix:
    """Reweighted mixture of all members except ``index``."""
    if ensemble.n < 2:
        raise DomainError("complementary states need at least two members")
    if not 0 <= index < ensemble.n:
        raise DomainError(f"index {index} out of range for n={ensemble.n}")
    return DensityMatrix.from_matrix(_mixture(ensemble, skip=index))


def holevo_chi(ensemble: Ensemble) -> float:
    """Holevo information ``S(sum p_i rho_i) - sum p_i S(rho_i)``."""
    return von_neumann_entropy(_mixture(ensemble)) - float(
        sum(
            wi * von_neumann_entropy(dm)
            for wi, dm in zip(ensemble.weights, ensemble.states)
        )
    )


def holevo_chi_relative_entropy_form(ensemble: Ensemble) -> float:
    """Equivalent evaluation ``sum p_i S(rho_i || rho_0)`` (cross-check route);
    ``rho_0 >= p_i rho_i``, so no member leaks out of the support of ``rho_0``."""
    w, v, keep = _support(_mixture(ensemble))
    total = 0.0
    for wi, dm in zip(ensemble.weights, ensemble.states):
        quad = _support_quad(dm.mat, v)
        total += wi * _relative_entropy_on(dm.mat, w, v, keep, quad)
    return total


def holevo_chi_skew_divergence_form(ensemble: Ensemble) -> float:
    """Equivalent evaluation ``-sum p_i log(p_i) SD_{p_i}(rho_i || rhobar_i)``
    through the complementary states (cross-check route); ``-log p_i`` cancels
    the divergence's ``1/(-log p_i)``, so every weight is a valid skew."""
    if ensemble.n == 1:
        return 0.0
    total = 0.0
    for i, (wi, dm) in enumerate(zip(ensemble.weights, ensemble.states)):
        total += wi * _skewed_relative_entropy(dm.mat, _mixture(ensemble, skip=i), wi)
    return total


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
    w = ensemble.weights
    states = ensemble.states
    n = ensemble.n

    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = trace_distance(states[i], states[j])
    t_max = float(dist.max())

    comp_bound = 0.0
    pair_bound = 0.0
    if n > 1:
        for i in range(n):
            coeff = -w[i] * math.log(w[i])
            comp_bound += coeff * trace_distance(states[i], _mixture(ensemble, skip=i))
            # the complementary weights, normalized as _mixture normalizes them
            kept = np.arange(n) != i
            pair_bound += coeff * float(np.dot(w[kept], dist[i, kept]) / w[kept].sum())
    entropy_times_t = shannon_entropy(w) * t_max

    roga = None
    if n == 2:
        p = float(w[0])
        f = fidelity(states[0], states[1])
        off = math.sqrt(p * (1.0 - p)) * f
        surrogate = np.array([[p, off], [off, 1.0 - p]])
        roga = von_neumann_entropy(surrogate)

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
    t_members = tuple(
        trace_distance(a, b) for a, b in zip(ensemble.states, other.states)
    )
    t = max(t_members)
    delta_chi = abs(holevo_chi(ensemble) - holevo_chi(other))

    t_comp = tuple(  # a single member has no complement
        trace_distance(_mixture(ensemble, skip=i), _mixture(other, skip=i))
        for i in range(n if n > 1 else 0)
    )

    if t == 0.0:  # the bound formulas divide by t
        weighted = dimension_free = 0.0
    else:
        weighted = float(
            sum(
                p * t * math.log1p((1.0 - p) / (p * t))
                + p * math.log1p((1.0 - p) * t / p)
                for p in ensemble.weights
            )
        )
        dimension_free = t * math.log1p((n - 1) / t) + math.log1p((n - 1) * t)
    return ChiContinuityRecord(
        delta_chi=delta_chi,
        weighted_bound=weighted,
        dimension_free_bound=dimension_free,
        max_member_distance=t,
        member_distances=t_members,
        complementary_distances=t_comp,
    )


def _propagator(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """``U = exp(i t H)`` from the eigenpairs ``w``, ``v`` of ``H``."""
    return (v * np.exp(1j * t * w)) @ v.conj().T


def evolve(rho: OperatorLike, hamiltonian: OperatorLike, t: float) -> DensityMatrix:
    """Unitary evolution ``U rho U*`` with ``U = exp(i t H)``; a state when
    ``rho`` is a normalized :class:`DensityMatrix`, otherwise a positive
    operator with the trace of ``rho``."""
    hmat, rmat = _common_dim(hamiltonian, rho)
    u = _propagator(*_eigh(hmat), t)
    return _like_input(rho, u @ rmat @ u.conj().T)


def mixing_rate(experiment: MixingExperiment) -> float:
    """Entropy production rate ``d/dt S(rho_0(t))`` at the experiment's time.

    Evaluates ``-trace(rho_0' log rho_0)`` on the support of ``rho_0``; the
    derivative ``sum p_j i [H_j, rho_j(t)]`` is traceless, so no identity term.
    """
    t, ens = experiment.time, experiment.ensemble
    avg = np.zeros((ens.dim, ens.dim), dtype=np.complex128)
    deriv = np.zeros_like(avg)
    for p, dm, ham in zip(ens.weights, ens.states, (experiment.h1, experiment.h2)):
        h, r = ham.mat, dm.mat
        if t != 0.0:
            u = _propagator(*_eigh(h), t)
            r = u @ r @ u.conj().T
        avg += p * r
        deriv += p * 1j * (h @ r - r @ h)
    w, v, keep = _support(avg)
    quad = _support_quad(deriv, v)
    return -float(np.dot(np.log(w[keep]), quad[keep]))


@dataclass(frozen=True)
class SimBoundRecord:
    """Finite-time entropy gain of a binary mixing experiment and its bounds.

    The experiment is canonicalized to ``H_1 = 0`` and ``H = H_2 - H_1``
    before evaluation. ``bravyi_lhs`` holds the two skew-divergence
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
    rho1, rho2 = (dm.mat for dm in ens.states)
    t = experiment.time
    w, v = _eigh((experiment.h2 - experiment.h1).mat)
    h_norm = float(np.abs(w).max())

    u = _propagator(w, v, t)
    rho2_t = _symmetrized(u @ rho2 @ u.conj().T)
    rho1_back = _symmetrized(u.conj().T @ rho1 @ u)

    rho0_t = p1 * rho1 + p2 * rho2_t
    entropy_gain = von_neumann_entropy(rho0_t) - von_neumann_entropy(_mixture(ens))

    # d_i is -log p_i times the skew-divergence increment of member i
    skewed = _skewed_relative_entropy
    d1 = skewed(rho1, rho2_t, p1) - skewed(rho1, rho2, p1)
    d2 = skewed(rho2, rho1_back, p2) - skewed(rho2, rho1, p2)

    return SimBoundRecord(
        entropy_gain=entropy_gain,
        sim_bound=2.0 * t * shannon_entropy((p1, p2)) * h_norm,
        sd_representation_residual=abs(entropy_gain - (p1 * d1 + p2 * d2)),
        bravyi_lhs=(d1 / -math.log(p1), d2 / -math.log(p2)),
        bravyi_rhs=2.0 * t * h_norm,
        hamiltonian_norm=h_norm,
    )
