"""The ensemble, SIM and Fréchet routes take a trial axis. A stacked
ensemble or experiment, padded as the verify harness pads it, or raw
(n, d, d) stacks, gives each item the value of its single call bit for bit
(for ensembles, while the largest member count is at most 7), and a stack
of one is the single call. A list of ensembles is no ensemble."""

import dataclasses

import numpy as np
import pytest

import qsd
from qsd import DensityMatrix, DimensionMismatchError, DomainError, Ensemble, MixingExperiment
from qsd import frechet as fr
from qsd import linalg as la

DIMS = (1, 2, 3, 6)
# member counts of one stack: every group the verify draws make, interleaved
COUNTS = (2, 3, 4, 3, 2, 4, 2)


def state(rng, dim, rank=None):
    """A random state, of rank ``rank`` when given."""
    g = la._complex_gaussians([rng], (dim, dim if rank is None else rank))[0]
    return DensityMatrix.from_matrix(g @ g.conj().T)


def ensemble(rng, dim, n, rank=None):
    w = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
    return Ensemble(w / w.sum(), [state(rng, dim, rank) for _ in range(n)])


def experiment(rng, dim, time, rank=None):
    p = float(rng.uniform(0.05, 0.95))
    ens = Ensemble((p, 1.0 - p), [state(rng, dim, rank) for _ in range(2)])
    h1, h2 = (qsd.random_hamiltonian(dim, rng) for _ in range(2))
    return MixingExperiment(ens, h1, h2, time)


def assert_item(result, k, one):
    """Item ``k`` of a stacked result is the single-call result ``one``."""
    if dataclasses.is_dataclass(one):
        assert type(result) is type(one)
        for field in dataclasses.fields(one):
            assert_item(getattr(result, field.name), k, getattr(one, field.name))
    elif one is None:
        assert np.isnan(result[k])
    elif isinstance(one, tuple):  # one entry per member, NaN past the item's own count
        row = result[k]
        assert np.array_equal(row[: len(one)], np.array(one, dtype=float))
        assert np.isnan(row[len(one) :]).all()
    else:
        assert isinstance(one, (bool, float, complex, qsd.HermitianOperator))
        assert np.array_equal(result[k], getattr(one, "mat", one))


def assert_items(route, columns, stack=None):
    """``route`` over the columns, each a list of one length stacked by
    ``stack`` (raw arrays are stacks already), gives each item its single
    call, and a stack of one gives it too."""
    stack = stack or (lambda items: items)
    result = route(*map(stack, columns))
    for k, items in enumerate(zip(*columns)):
        one = route(*items)
        assert_item(result, k, one)
        assert_item(route(*(stack([item]) for item in items)), 0, one)


ENSEMBLE_ROUTES = (
    "holevo_chi",
    "holevo_chi_relative_entropy_form",
    "holevo_chi_skew_divergence_form",
    "chi_upper_bounds",
)


@pytest.mark.parametrize("rank_deficient", [False, True])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("route", ENSEMBLE_ROUTES)
def test_ensemble_routes_give_each_item_its_single_call(rng, stacked, route, dim, rank_deficient):
    rank = max(1, dim // 2) if rank_deficient else None
    items = [ensemble(rng, dim, n, rank) for n in COUNTS]
    assert_items(getattr(qsd, route), [items], stacked)


@pytest.mark.parametrize("dim", DIMS)
def test_continuity_gives_each_pair_its_single_call(rng, stacked, dim):
    items = [ensemble(rng, dim, n) for n in COUNTS]
    others = [
        Ensemble(e.weights, [DensityMatrix.from_matrix(0.7 * m + 0.3 * state(rng, dim).mat) for m in e.members])
        for e in items
    ]
    assert_items(qsd.chi_continuity_bound, [items, others], stacked)
    # an ensemble against itself: the bounds take their t = 0 value
    assert_items(qsd.chi_continuity_bound, [items, items], stacked)


@pytest.mark.parametrize("dim", DIMS)
def test_items_stay_exact_up_to_seven_members(rng, stacked, dim):
    # every member count the padded sums keep exact, interleaved, odd counts rank-deficient
    items = [ensemble(rng, dim, n, max(1, dim // 2) if n % 2 else None) for n in (7, 1, 5, 2, 6, 3, 4, 7)]
    for route in ENSEMBLE_ROUTES:
        assert_items(getattr(qsd, route), [items], stacked)
    others = [Ensemble(e.weights, [state(rng, dim) for _ in range(e.n)]) for e in items]
    assert_items(qsd.chi_continuity_bound, [items, others], stacked)


def test_a_single_member_item_builds_no_complement(rng, stacked):
    items = [ensemble(rng, 3, n) for n in (1, 2, 1, 3)]
    assert_items(qsd.holevo_chi_skew_divergence_form, [items], stacked)
    assert_items(qsd.chi_upper_bounds, [items], stacked)
    assert_items(qsd.chi_continuity_bound, [items, items], stacked)


@pytest.mark.parametrize("rank_deficient", [False, True])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("route", ["mixing_rate", "sim_bound_check"])
def test_experiment_routes_give_each_item_its_single_call(rng, stacked, route, dim, rank_deficient):
    rank = max(1, dim // 2) if rank_deficient else None
    # experiments at t = 0 between moving ones
    times = (0.4, 0.0, 0.9, 0.0, 0.1)
    assert_items(getattr(qsd, route), [[experiment(rng, dim, t, rank) for t in times]], stacked)


def test_experiments_all_at_rest(rng, stacked):
    items = [experiment(rng, 3, 0.0) for _ in range(3)]
    assert_items(qsd.mixing_rate, [items], stacked)
    assert_items(qsd.sim_bound_check, [items], stacked)


def test_a_trial_of_a_stack_is_its_item(rng, stacked):
    # the verify report writes trial k of a stack: its own members, pads dropped
    items = [ensemble(rng, 2, n) for n in (3, 1, 2)]
    stack = stacked(items)
    for k, item in enumerate(items):
        assert np.array_equal(stack[k].weights, item.weights)
        assert np.array_equal(stack[k].members, item.members)
    moving = [experiment(rng, 2, t) for t in (0.3, 0.0)]
    for k, item in enumerate(moving):
        trial = stacked(moving)[k]
        assert trial.time == item.time and np.array_equal(trial.h2.mat, item.h2.mat)
        assert np.array_equal(trial.ensemble.members, item.ensemble.members)
    with pytest.raises(TypeError, match="stack of ensembles"):
        items[0][0]


def pd_stack(rng, dim, size=5):
    return np.stack([state(rng, dim).mat + 0.1 * np.eye(dim) for _ in range(size)])


def herm_stack(rng, dim, size=5):
    g = la._complex_gaussians([rng], (size, dim, dim))[0]
    return (g + la._adjoint(g)) / 2.0


FRECHET_ROUTES = {
    "frechet_log": lambda a, d: qsd.frechet_log(a, d),
    "metric_M": lambda a, d: qsd.metric_M(a, d, a),
    "frechet_log_central_diff": lambda a, d: qsd.frechet_log_central_diff(a, d, h=1e-5, order=2),
    "spectral_fn": lambda a, d: qsd.spectral_fn(a, np.log),
    "von_neumann_entropy": lambda a, d: qsd.von_neumann_entropy(a),
}


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("route", FRECHET_ROUTES)
def test_frechet_routes_give_each_item_its_single_call(rng, route, dim):
    assert_items(FRECHET_ROUTES[route], [pd_stack(rng, dim), herm_stack(rng, dim)])


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("second", [False, True])
def test_second_derivative_gives_each_item_its_single_call(rng, dim, second):
    columns = [pd_stack(rng, dim), herm_stack(rng, dim), herm_stack(rng, dim)]
    assert_items(qsd.second_frechet_log, columns if second else columns[:2])


def test_close_pairs_of_several_items_share_a_block(rng, monkeypatch):
    # every pair of these spectra is within _SPLIT_RTOL = 0.01 (spread 0.005
    # of the largest), so all are close: the 136 pairs with i <= j of each
    # of 40 items fill one block of 65536 // 16 = 4096 pairs from 31 items,
    # and a last one of 1344
    u = la._haar_columns(la._complex_gaussians([rng], (40, 16, 16))[0], 16)
    a = (u * rng.uniform(1.0, 1.005, (40, 1, 16))) @ la._adjoint(u)
    blocks, original = [], fr._log_dd2_ordered

    def counted(lo, *args):
        blocks.append(len(lo))
        return original(lo, *args)

    monkeypatch.setattr(fr, "_log_dd2_ordered", counted)
    assert_items(qsd.second_frechet_log, [a, herm_stack(rng, 16, 40)])
    assert blocks[:2] == [fr._NODE_BLOCK_ELEMS // 16, 40 * 136 - fr._NODE_BLOCK_ELEMS // 16]


def limit_triples(rng, dim, size=5):
    """Triples ``(A, B, C)`` of the metric limit: ``B`` of rank ``dim - 1``
    (full rank at dim 1), ``A`` inside its support, ``C`` PSD and full rank."""
    rank = max(1, dim - 1)
    u = la._haar_columns(la._complex_gaussians([rng], (size, dim, dim))[0], rank)
    b = (u * rng.uniform(0.5, 1.0, (size, 1, rank))) @ la._adjoint(u)
    a = (u * rng.uniform(0.1, 1.0, (size, 1, rank))) @ la._adjoint(u)
    return a, b, pd_stack(rng, dim, size)


@pytest.mark.parametrize("dim", DIMS)
def test_metric_limit_gives_each_item_its_single_call(rng, dim):
    assert_items(qsd.metric_epsilon_limit_check, limit_triples(rng, dim))


@pytest.mark.parametrize("dim", DIMS)
def test_evolve_normalizes_each_item_as_its_single_call(rng, dim):
    # a state, a positive operator of trace 2 and a raw state, each moved by
    # its own Hamiltonian for its own time; the stack holds their matrices
    rho = [state(rng, dim), DensityMatrix.positive_operator(2.0 * state(rng, dim).mat), state(rng, dim).mat]
    mats = np.stack([getattr(r, "mat", r) for r in rho])
    hams = herm_stack(rng, dim, 3)
    times = np.array([0.7, 0.0, 1.3])
    moved = qsd.evolve(mats, hams, times)
    assert moved.shape == (3, dim, dim) and not moved.flags.writeable
    for k in range(3):
        one = qsd.evolve(rho[k], hams[k], float(times[k]))
        assert np.array_equal(moved[k], one.mat)
        assert np.array_equal(qsd.evolve(mats[k : k + 1], hams[k : k + 1], times[k : k + 1])[0], one.mat)
    assert [qsd.evolve(r, h, 0.7).is_normalized for r, h in zip(rho, hams)] == [True, False, True]
    assert qsd.evolve(mats, hams, 0.7)[1].trace().real == pytest.approx(np.trace(mats[1]).real)


def test_evolve_takes_one_time_or_one_per_item(rng):
    rho, hams = np.stack([state(rng, 2).mat for _ in range(3)]), herm_stack(rng, 2, 3)
    with pytest.raises(DomainError, match="one per item"):
        qsd.evolve(rho, hams, np.array([0.1, 0.2]))
    with pytest.raises(DomainError, match="must be finite"):
        qsd.evolve(rho, hams, np.array([0.1, np.inf, 0.2]))
    with pytest.raises(DimensionMismatchError):
        qsd.evolve(np.stack([state(rng, 3).mat for _ in range(2)]), hams[:2], 0.1)


ROUTES = (*ENSEMBLE_ROUTES, "chi_continuity_bound", "mixing_rate", "sim_bound_check")


@pytest.mark.parametrize("route", ROUTES)
def test_a_list_is_no_ensemble(rng, route):
    items = [ensemble(rng, 2, 2) for _ in range(2)]
    if route in ("mixing_rate", "sim_bound_check"):
        items = [experiment(rng, 2, 0.3) for _ in range(2)]
    args = (items,) * (2 if route == "chi_continuity_bound" else 1)
    with pytest.raises(TypeError, match="got list"):
        getattr(qsd, route)(*args)
    with pytest.raises(TypeError, match="got ndarray"):
        getattr(qsd, route)(*(np.array(a + [None])[:-1] for a in args))


def test_a_stack_raises_what_its_first_offending_item_raises(rng, stacked):
    items = [ensemble(rng, 2, 2), ensemble(rng, 2, 3)]
    wrong_count = [items[0], ensemble(rng, 2, 2)]
    with pytest.raises(DomainError, match="same number of members"):
        qsd.chi_continuity_bound(stacked(items), stacked(wrong_count))
    with pytest.raises(DimensionMismatchError):
        qsd.chi_continuity_bound(stacked(items), stacked([ensemble(rng, 3, 2), ensemble(rng, 3, 3)]))
    light = Ensemble((1e-13, 1.0 - 1e-13), [state(rng, 2) for _ in range(2)])
    experiments = [experiment(rng, 2, 0.3), MixingExperiment(light, *[qsd.random_hamiltonian(2, rng)] * 2, 0.3)]
    with pytest.raises(DomainError, match="skew parameter"):
        qsd.sim_bound_check(stacked(experiments))


def test_a_stacked_experiment_is_validated(rng, stacked):
    # the one constructor checks a stack as it checks one experiment
    ens = stacked([ensemble(rng, 2, 2) for _ in range(3)])
    h = qsd.HermitianOperator._of(np.stack([qsd.random_hamiltonian(2, rng).mat for _ in range(3)]))
    assert MixingExperiment(ens, h, h, np.array([0.0, 0.5, 1.0])).time.shape == (3,)
    with pytest.raises(DomainError, match="finite and nonnegative"):
        MixingExperiment(ens, h, h, np.array([0.1, -0.5, 1.0]))
    with pytest.raises(DomainError, match="finite and nonnegative"):
        MixingExperiment(ens, h, h, np.array([0.1, np.nan, 1.0]))
    with pytest.raises(DomainError, match="binary"):
        MixingExperiment(stacked([ensemble(rng, 2, n) for n in (2, 3, 2)]), h, h, 0.5)
    wide = qsd.HermitianOperator._of(np.stack([qsd.random_hamiltonian(3, rng).mat for _ in range(3)]))
    with pytest.raises(DimensionMismatchError):
        MixingExperiment(ens, h, wide, 0.5)


def test_random_state_is_the_clipped_construction_bit_for_bit():
    # G G* is PSD by construction: normalizing it without the clipping eigh
    # of DensityMatrix.from_matrix gives the same matrix
    for seed in range(2048):
        dim = 1 + seed % 32
        g = la._complex_gaussians([np.random.default_rng(seed)], (dim, dim))[0]
        expected = DensityMatrix.from_matrix(g @ g.conj().T)
        out = qsd.random_state(dim, seed)
        assert out.is_normalized and not out.mat.flags.writeable
        assert np.array_equal(out.mat, expected.mat), seed
