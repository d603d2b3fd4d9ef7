"""The ensemble routes evaluate on the member stack, each kernel called once.
The per-member and per-pair loops below are the reference they replace: one
one-pair call per member, member pair or complementary state."""

import dataclasses
import math

import numpy as np
import pytest

import qsd
import qsd.io
from qsd import Ensemble, MixingExperiment
from qsd import ensembles as en
from qsd import linalg as la
from qsd.divergences import _skewed_relative_entropy
from qsd.linalg import _eigh, _symmetrized

RTOL, ATOL = 1e-13, 1e-15  # ATOL only for values that are rounding residuals


def mixture(ens, skip=None):
    kept = [j for j in range(ens.n) if j != skip]
    acc = sum(ens.weights[j] * ens.states[j].mat for j in kept)
    return acc if skip is None else acc / ens.weights[kept].sum()


def holevo_chi(ens):
    return qsd.von_neumann_entropy(mixture(ens)) - sum(
        p * qsd.von_neumann_entropy(s) for p, s in zip(ens.weights, ens.states)
    )


def holevo_chi_relative_entropy_form(ens):
    avg = mixture(ens)
    return sum(
        p * qsd.relative_entropy(s, avg) for p, s in zip(ens.weights, ens.states)
    )


def holevo_chi_skew_divergence_form(ens):
    if ens.n == 1:
        return 0.0
    return sum(
        p * _skewed_relative_entropy(s.mat, mixture(ens, skip=i), p)
        for i, (p, s) in enumerate(zip(ens.weights, ens.states))
    )


def chi_upper_bounds(ens):
    w, states, n = ens.weights, ens.states, ens.n
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = qsd.trace_distance(states[i], states[j])
    comp_bound = pair_bound = 0.0
    if n > 1:
        for i in range(n):
            coeff = -w[i] * math.log(w[i])
            comp_bound += coeff * qsd.trace_distance(states[i], mixture(ens, skip=i))
            kept = np.arange(n) != i
            pair_bound += coeff * float(np.dot(w[kept], dist[i, kept]) / w[kept].sum())
    roga = None
    if n == 2:
        p = float(w[0])
        off = math.sqrt(p * (1.0 - p)) * qsd.fidelity(states[0], states[1])
        roga = qsd.von_neumann_entropy(np.array([[p, off], [off, 1.0 - p]]))
    return en.ChiBoundRecord(
        chi=holevo_chi(ens),
        complementary_bound=comp_bound,
        pairwise_bound=pair_bound,
        entropy_times_t=qsd.shannon_entropy(w) * float(dist.max()),
        max_pairwise_distance=float(dist.max()),
        roga_bound=roga,
    )


def chi_continuity_bound(ens, other):
    n = ens.n
    t_members = tuple(qsd.trace_distance(a, b) for a, b in zip(ens.states, other.states))
    t = max(t_members)
    t_comp = tuple(
        qsd.trace_distance(mixture(ens, skip=i), mixture(other, skip=i))
        for i in range(n if n > 1 else 0)
    )
    weighted = dimension_free = 0.0
    if t > 0.0:
        weighted = sum(
            p * t * math.log1p((1.0 - p) / (p * t)) + p * math.log1p((1.0 - p) * t / p)
            for p in ens.weights
        )
        dimension_free = t * math.log1p((n - 1) / t) + math.log1p((n - 1) * t)
    return en.ChiContinuityRecord(
        delta_chi=abs(holevo_chi(ens) - holevo_chi(other)),
        weighted_bound=weighted,
        dimension_free_bound=dimension_free,
        max_member_distance=t,
        member_distances=t_members,
        complementary_distances=t_comp,
    )


def mixing_rate(exp):
    t, ens = exp.time, exp.ensemble
    avg = np.zeros((ens.dim, ens.dim), dtype=np.complex128)
    deriv = np.zeros_like(avg)
    for p, dm, ham in zip(ens.weights, ens.states, (exp.h1, exp.h2)):
        h, r = ham.mat, dm.mat
        if t != 0.0:
            u = en._propagator(*_eigh(h), t)
            r = u @ r @ u.conj().T
        avg += p * r
        deriv += p * 1j * (h @ r - r @ h)
    w, v = np.linalg.eigh(avg)
    keep = w > avg.shape[0] * np.finfo(float).eps * max(w[-1], 0.0)
    quad = (np.conj(v) * (deriv @ v)).real.sum(axis=0)
    return -float(np.dot(np.log(w[keep]), quad[keep]))


def sim_bound_check(exp):
    (p1, p2), (rho1, rho2) = exp.ensemble.weights, (s.mat for s in exp.ensemble.states)
    t = exp.time
    h_norm = float(np.abs(_eigh((exp.h2 - exp.h1).mat)[0]).max())
    u1, u2 = (en._propagator(*_eigh(h.mat), t) for h in (exp.h1, exp.h2))
    u = u1.conj().T @ u2  # member 2 in the frame of member 1
    rho2_t = _symmetrized(u @ rho2 @ u.conj().T)
    rho1_back = _symmetrized(u.conj().T @ rho1 @ u)
    gain = qsd.von_neumann_entropy(p1 * rho1 + p2 * rho2_t) - qsd.von_neumann_entropy(
        mixture(exp.ensemble)
    )
    skewed = _skewed_relative_entropy
    d1 = skewed(rho1, rho2_t, p1) - skewed(rho1, rho2, p1)
    d2 = skewed(rho2, rho1_back, p2) - skewed(rho2, rho1, p2)
    return en.SimBoundRecord(
        entropy_gain=gain,
        sim_bound=2.0 * t * qsd.shannon_entropy((p1, p2)) * h_norm,
        sd_representation_residual=abs(gain - (p1 * d1 + p2 * d2)),
        bravyi_lhs=(d1 / -math.log(p1), d2 / -math.log(p2)),
        bravyi_rhs=2.0 * t * h_norm,
        hamiltonian_norm=h_norm,
    )


def low_rank_states(rng, dim, rank, count):
    """States on one random ``rank``-dimensional subspace of ``C^dim``."""
    basis = qsd.random_unitary(dim, rng)[:, :rank]
    return [
        qsd.DensityMatrix.from_matrix(basis @ qsd.random_state(rank, rng).mat @ basis.conj().T)
        for _ in range(count)
    ]


def random_states(rng, dim, count):
    return [qsd.random_state(dim, rng) for _ in range(count)]


# name -> (weights, dim, member draw)
CASES = {
    "n=1": ((1.0,), 3, random_states),
    "n=2 light member": ((1e-9, 1.0 - 1e-9), 3, random_states),
    "n=2": ((0.3, 0.7), 4, random_states),
    "n=5 d=1": ((0.1, 0.2, 0.3, 0.15, 0.25), 1, random_states),
    "zero weight dropped": ((0.2, 0.0, 0.5, 0.3), 3, random_states),
    "rank deficient": ((0.2, 0.3, 0.5), 4, lambda rng, d, n: low_rank_states(rng, d, 2, n)),
}


def draw_pair(rng, name):
    """An ensemble and a second one with its weights and nearby members."""
    weights, dim, draw = CASES[name]
    states = draw(rng, dim, len(weights))
    ens = Ensemble(weights, states)
    moved = [
        qsd.DensityMatrix.from_matrix(0.7 * s.mat + 0.3 * o.mat)
        for s, o in zip(states, draw(rng, dim, len(weights)))
    ]
    return ens, Ensemble(weights, moved)


@pytest.fixture(params=list(CASES))
def pair(request, rng):
    return draw_pair(rng, request.param)


def assert_close(value, reference):
    if dataclasses.is_dataclass(value):
        assert type(value) is type(reference)
        for field in dataclasses.fields(value):
            assert_close(getattr(value, field.name), getattr(reference, field.name))
    elif reference is None:
        assert value is None
    else:
        np.testing.assert_allclose(value, reference, rtol=RTOL, atol=ATOL)


ROUTES = ["holevo_chi", "holevo_chi_relative_entropy_form", "holevo_chi_skew_divergence_form"]


@pytest.mark.parametrize("route", ROUTES + ["chi_upper_bounds"])
def test_route_matches_the_member_loop(pair, route):
    ens, _ = pair
    assert_close(getattr(en, route)(ens), globals()[route](ens))


def test_continuity_matches_the_member_loop(pair):
    ens, other = pair
    assert_close(en.chi_continuity_bound(ens, other), chi_continuity_bound(ens, other))


def test_states_match_the_member_loop(pair):
    ens, _ = pair
    assert ens.weights.size == ens.n == len(ens.states)
    assert_close(qsd.average_state(ens).mat, qsd.DensityMatrix.from_matrix(mixture(ens)).mat)
    for i in range(ens.n if ens.n > 1 else 0):
        expected = qsd.DensityMatrix.from_matrix(mixture(ens, skip=i))
        assert_close(qsd.complementary_state(ens, i).mat, expected.mat)


@pytest.mark.parametrize("time", [0.0, 0.4])
@pytest.mark.parametrize("name", [name for name, case in CASES.items() if len(case[0]) == 2])
def test_mixing_routes_match_the_member_loop(rng, name, time):
    ens, _ = draw_pair(rng, name)
    h1, h2 = qsd.random_hamiltonian(ens.dim, rng), qsd.random_hamiltonian(ens.dim, rng)
    exp = MixingExperiment(ens, h1, h2, time)
    assert_close(en.mixing_rate(exp), mixing_rate(exp))
    assert_close(en.sim_bound_check(exp), sim_bound_check(exp))


def test_zero_weight_member_is_not_stacked(rng):
    states = random_states(rng, 3, 3)
    ens = Ensemble((0.4, 0.0, 0.6), states)
    assert ens.n == 2
    assert np.array_equal(ens._stack, np.stack([states[0].mat, states[2].mat]))
    assert not ens._stack.flags.writeable


def test_rank_deficient_mixture_is_compressed(rng):
    # the average has rank 2 of 4: the relative-entropy form takes the
    # masked branch of its core, with one mask for the whole stack
    ens = Ensemble((0.2, 0.3, 0.5), low_rank_states(rng, 4, 2, 3))
    _, _, keep = en._support(en._mixture(ens.weights, ens._stack))
    assert keep.sum() == 2
    assert_close(en.holevo_chi_relative_entropy_form(ens), holevo_chi_relative_entropy_form(ens))


def test_binary_complements_are_the_other_member(rng):
    ens = Ensemble((1e-9, 1.0 - 1e-9), random_states(rng, 3, 2))
    comp = en._complements(ens.weights, ens._stack)
    assert np.array_equal(comp[0], ens._stack[1])
    assert np.array_equal(comp[1], ens._stack[0])


def test_a_single_member_builds_no_complement(monkeypatch, rng):
    def refuse(*args):
        raise AssertionError("a single member has no complement")

    monkeypatch.setattr(en, "_complements", refuse)
    ens = Ensemble((1.0,), random_states(rng, 3, 1))
    other = Ensemble((1.0,), random_states(rng, 3, 1))
    assert en.holevo_chi_skew_divergence_form(ens) == 0.0
    assert en.chi_upper_bounds(ens).complementary_bound == 0.0
    assert en.chi_continuity_bound(ens, other).complementary_distances == ()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zero_pads_leave_the_complements_bit_for_bit(rng, dim):
    # a stack pads its ensembles with zero members; at d = 1 a complex
    # matrix-vector product would regroup its sums around the pads
    for n in range(2, 8):
        w = rng.dirichlet(np.ones(n))
        stack = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
        padded_w, padded = np.zeros((2, 7)), np.zeros((2, 7, dim, dim), dtype=complex)
        padded_w[:, :n], padded[:, :n] = w, stack
        assert np.array_equal(en._complements(padded_w, padded)[:, :n], np.stack([en._complements(w, stack)] * 2))


def _bits(value):
    """A result as comparable bytes: records field by field, states by matrix."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if value is None:
        return None
    arr = np.asarray(getattr(value, "mat", value))
    return arr.dtype.str, arr.shape, arr.tobytes()


def _twins(rng, weights, dim):
    """Per weight vector, one member stack of states as two ensembles: the
    validating constructor's, of the members as states, and ``Ensemble._of``'s."""
    checked, unchecked = [], []
    for w in weights:
        stack = la._frozen(la._random_states([rng] * w.size, dim))
        checked.append(Ensemble(w, [qsd.DensityMatrix._of(m) for m in stack]))
        unchecked.append(Ensemble._of(w, stack))
    return checked, unchecked


def test_unchecked_ensemble_is_the_validated_one(rng, stacked):
    weights = [rng.dirichlet(np.ones(n)) for n in (2, 3, 4, 2, 2, 2)]
    for w in weights:
        w.flags.writeable = False
    checked, unchecked = _twins(rng, weights, 3)
    checked_other, unchecked_other = _twins(rng, weights, 3)
    for a, b in zip(checked + checked_other, unchecked + unchecked_other):
        assert not (b.weights.flags.writeable or b._stack.flags.writeable)
        assert (a.n, a.dim, repr(a)) == (b.n, b.dim, repr(b))
        assert _bits(a.weights) == _bits(b.weights) and _bits(a._stack) == _bits(b._stack)
        members = [(_bits(m), True) for m in b._stack]  # the stack _of was given
        assert [(_bits(s), s.is_normalized) for s in a.states] == members
        assert [(_bits(s), s.is_normalized) for s in b.states] == members
        assert _bits(qsd.average_state(a)) == _bits(qsd.average_state(b))
        assert _bits(qsd.complementary_state(a, 1)) == _bits(qsd.complementary_state(b, 1))
    # every route on a single call and on a stack of three
    moving = [(qsd.random_hamiltonian(3, rng), qsd.random_hamiltonian(3, rng), t) for t in (0.0, 0.3, 1.1)]
    calls = [(getattr(qsd, route), lambda e: (e[:3],)) for route in ROUTES + ["chi_upper_bounds"]]
    calls += [(qsd.chi_continuity_bound, lambda e: (e[:3], e[6:9]))]
    calls += [
        (route, lambda e: ([MixingExperiment(x, *m) for x, m in zip(e[3:6], moving)],))
        for route in (qsd.mixing_rate, qsd.sim_bound_check)
    ]
    for route, columns in calls:
        left, right = columns(checked + checked_other), columns(unchecked + unchecked_other)
        assert _bits(route(*map(stacked, left))) == _bits(route(*map(stacked, right))), route.__name__
        for items in zip(*left, *right):
            half = len(items) // 2
            assert _bits(route(*items[:half])) == _bits(route(*items[half:])), route.__name__


def test_a_stack_is_refused_where_one_ensemble_is_meant(rng, stacked):
    items = [Ensemble(rng.dirichlet(np.ones(2)), la._random_states([rng] * 2, 2)) for _ in range(3)]
    ens = stacked(items)
    assert repr(ens) == "Ensemble(trials=3, n=2, dim=2)"
    assert repr(ens[0]) == repr(items[0]) == "Ensemble(n=2, dim=2)"
    single = [
        lambda: ens.states,
        lambda: qsd.io.ensemble_to_dict(ens),
        lambda: qsd.average_state(ens),
        lambda: qsd.complementary_state(ens, 0),
    ]
    for call in single:
        with pytest.raises(TypeError, match=r"stack of 3; .*ens\[k\]"):
            call()
    assert _bits(qsd.average_state(ens[1])) == _bits(qsd.average_state(items[1]))
