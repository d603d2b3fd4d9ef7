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
    fidelity,
    relative_entropy,
    shannon_entropy,
    skew_divergence,
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
    operator_norm,
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
            if isinstance(state, DensityMatrix):
                dm = state
            else:
                mat = _as_matrix(state)
                if abs(float(np.trace(mat).real) - 1.0) > 1e-10:
                    raise DomainError("ensemble members must have unit trace")
                dm = DensityMatrix.from_matrix(mat)
            if abs(dm.trace() - 1.0) > 1e-10:
                raise DomainError("ensemble members must have unit trace")
            members.append((float(wi), dm))
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


def average_state(ensemble: Ensemble) -> DensityMatrix:
    """Weighted mixture ``sum p_i rho_i`` of the ensemble members."""
    acc = sum(
        wi * dm.mat for wi, dm in zip(ensemble.weights, ensemble.states)
    )
    return DensityMatrix.from_matrix(acc)


def complementary_state(ensemble: Ensemble, index: int) -> DensityMatrix:
    """Reweighted mixture of all members except ``index``."""
    if ensemble.n < 2:
        raise DomainError("complementary states need at least two members")
    if not 0 <= index < ensemble.n:
        raise DomainError(f"index {index} out of range for n={ensemble.n}")
    p_i = ensemble.weights[index]
    acc = sum(
        wi * dm.mat
        for j, (wi, dm) in enumerate(zip(ensemble.weights, ensemble.states))
        if j != index
    )
    return DensityMatrix.from_matrix(acc / (1.0 - p_i))


def holevo_chi(ensemble: Ensemble) -> float:
    """Holevo information ``S(sum p_i rho_i) - sum p_i S(rho_i)``."""
    avg = average_state(ensemble)
    return von_neumann_entropy(avg) - float(
        sum(
            wi * von_neumann_entropy(dm)
            for wi, dm in zip(ensemble.weights, ensemble.states)
        )
    )


def holevo_chi_relative_entropy_form(ensemble: Ensemble) -> float:
    """Equivalent evaluation ``sum p_i S(rho_i || rho_0)`` (cross-check route)."""
    avg = average_state(ensemble)
    total = 0.0
    for wi, dm in zip(ensemble.weights, ensemble.states):
        total += wi * float(relative_entropy(dm, avg))
    return total


def holevo_chi_skew_divergence_form(ensemble: Ensemble) -> float:
    """Equivalent evaluation ``-sum p_i log(p_i) SD_{p_i}(rho_i || rhobar_i)``
    through the complementary states (cross-check route)."""
    if ensemble.n == 1:
        return 0.0
    total = 0.0
    for i, (wi, dm) in enumerate(zip(ensemble.weights, ensemble.states)):
        comp = complementary_state(ensemble, i)
        total += -wi * math.log(wi) * skew_divergence(dm, comp, wi)
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
    t_max = float(dist.max()) if n > 1 else 0.0

    comp_bound = 0.0
    pair_bound = 0.0
    if n > 1:
        for i in range(n):
            coeff = -w[i] * math.log(w[i])
            comp = complementary_state(ensemble, i)
            comp_bound += coeff * trace_distance(states[i], comp)
            pair_bound += coeff * float(
                sum(w[j] * dist[i, j] for j in range(n) if j != i) / (1.0 - w[i])
            )
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

    if n >= 2:
        t_comp = tuple(
            trace_distance(complementary_state(ensemble, i), complementary_state(other, i))
            for i in range(n)
        )
    else:
        t_comp = ()

    if t == 0.0:
        return ChiContinuityRecord(
            delta_chi=delta_chi,
            weighted_bound=0.0,
            dimension_free_bound=0.0,
            max_member_distance=0.0,
            member_distances=t_members,
            complementary_distances=t_comp,
        )

    w = ensemble.weights
    weighted = float(
        sum(
            p * t * math.log1p((1.0 - p) / (p * t))
            + p * math.log1p((1.0 - p) * t / p)
            for p in w
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


def evolve(rho: OperatorLike, hamiltonian: OperatorLike, t: float) -> DensityMatrix:
    """Unitary evolution ``U rho U*`` with ``U = exp(i t H)``; a state when
    ``rho`` is a normalized :class:`DensityMatrix`, otherwise a positive
    operator with the trace of ``rho``."""
    hmat, rmat = _common_dim(hamiltonian, rho)
    w, v = _eigh(hmat)
    u = (v * np.exp(1j * t * w)) @ v.conj().T
    return _like_input(rho, u @ rmat @ u.conj().T)


def _average_derivative(experiment: MixingExperiment, at_time: float) -> tuple[np.ndarray, np.ndarray]:
    """Averaged state and its time derivative ``sum p_j i [H_j, rho_j(t)]``."""
    (p1, p2) = experiment.ensemble.weights
    hams = (experiment.h1.mat, experiment.h2.mat)
    avg = np.zeros((experiment.ensemble.dim,) * 2, dtype=np.complex128)
    deriv = np.zeros_like(avg)
    for p, dm, h in zip((p1, p2), experiment.ensemble.states, hams):
        r = evolve(dm, h, at_time).mat if at_time != 0.0 else dm.mat
        avg += p * r
        deriv += p * 1j * (h @ r - r @ h)
    return avg, deriv


def mixing_rate(experiment: MixingExperiment) -> float:
    """Entropy production rate ``d/dt S(rho_0(t))`` at the experiment's time.

    Evaluates ``-trace(rho_0' log rho_0)`` on the support of ``rho_0``; the
    commutator derivative is traceless so no identity term appears.
    """
    avg, deriv = _average_derivative(experiment, experiment.time)
    w, v, keep = _support(avg)
    quad, _ = _support_quad(deriv, v, keep)
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
    if ens.n != 2:
        raise DomainError("incremental-mixing bound needs a binary ensemble")
    p1, p2 = (float(x) for x in ens.weights)
    rho1, rho2 = ens.states
    t = experiment.time
    h = HermitianOperator(experiment.h2.mat - experiment.h1.mat)
    h_norm = operator_norm(h)

    rho2_t = evolve(rho2, h, t)
    rho1_back = evolve(rho1, h, -t)  # U* rho1 U

    rho0 = DensityMatrix.from_matrix(p1 * rho1.mat + p2 * rho2.mat)
    rho0_t = DensityMatrix.from_matrix(p1 * rho1.mat + p2 * rho2_t.mat)
    entropy_gain = von_neumann_entropy(rho0_t) - von_neumann_entropy(rho0)

    sd1_t = skew_divergence(rho1, rho2_t, p1)
    sd1_0 = skew_divergence(rho1, rho2, p1)
    sd2_t = skew_divergence(rho2, rho1_back, p2)
    sd2_0 = skew_divergence(rho2, rho1, p2)
    svsd_rhs = -p1 * math.log(p1) * (sd1_t - sd1_0) - p2 * math.log(p2) * (
        sd2_t - sd2_0
    )

    return SimBoundRecord(
        entropy_gain=entropy_gain,
        sim_bound=2.0 * t * shannon_entropy((p1, p2)) * h_norm,
        sd_representation_residual=abs(entropy_gain - svsd_rhs),
        bravyi_lhs=(sd1_t - sd1_0, sd2_t - sd2_0),
        bravyi_rhs=2.0 * t * h_norm,
        hamiltonian_norm=h_norm,
    )
