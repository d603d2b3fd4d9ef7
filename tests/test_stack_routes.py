"""The ensemble, SIM and Fréchet routes take a trial axis. A sequence of
ensembles or experiments, or raw (n, d, d) stacks, gives each item the value
of its single call bit for bit (for ensembles, while a sequence's largest
member count is at most 7), and a stack of one is the single call."""

import dataclasses

import numpy as np
import pytest

import qsd
from qsd import DensityMatrix, DimensionMismatchError, DomainError, Ensemble, MixingExperiment
from qsd import frechet as fr
from qsd import linalg as la

DIMS = (1, 2, 3, 6)
# member counts of one sequence: every group the verify draws make, interleaved
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
    """Item ``k`` of a sequence result is the single-call result ``one``."""
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


def assert_items(route, columns):
    """``route`` over the columns (sequences of one length) gives each item
    its single call, and a sequence of one gives it too."""
    result = route(*columns)
    for k, items in enumerate(zip(*columns)):
        one = route(*items)
        assert_item(result, k, one)
        assert_item(route(*([item] for item in items)), 0, one)


ENSEMBLE_ROUTES = (
    "holevo_chi",
    "holevo_chi_relative_entropy_form",
    "holevo_chi_skew_divergence_form",
    "chi_upper_bounds",
)


@pytest.mark.parametrize("rank_deficient", [False, True])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("route", ENSEMBLE_ROUTES)
def test_ensemble_routes_give_each_item_its_single_call(rng, route, dim, rank_deficient):
    rank = max(1, dim // 2) if rank_deficient else None
    sequence = [ensemble(rng, dim, n, rank) for n in COUNTS]
    assert_items(getattr(qsd, route), [sequence])
    # an object array, as the verify harness stacks its trials, is a sequence too
    assert_items(getattr(qsd, route), [np.array(sequence, dtype=object)])


@pytest.mark.parametrize("dim", DIMS)
def test_continuity_gives_each_pair_its_single_call(rng, dim):
    sequence = [ensemble(rng, dim, n) for n in COUNTS]
    others = [
        Ensemble(e.weights, [DensityMatrix.from_matrix(0.7 * s.mat + 0.3 * state(rng, dim).mat) for s in e.states])
        for e in sequence
    ]
    assert_items(qsd.chi_continuity_bound, [sequence, others])
    # an ensemble against itself: the bounds take their t = 0 value
    assert_items(qsd.chi_continuity_bound, [sequence, sequence])


@pytest.mark.parametrize("dim", DIMS)
def test_items_stay_exact_up_to_seven_members(rng, dim):
    # every member count the padded sums keep exact, interleaved
    sequence = [ensemble(rng, dim, n, max(1, dim // 2) if n % 2 else None) for n in (7, 1, 5, 2, 6, 3, 4, 7)]
    for route in ENSEMBLE_ROUTES:
        assert_items(getattr(qsd, route), [sequence])
    others = [Ensemble(e.weights, [state(rng, dim) for _ in e.states]) for e in sequence]
    assert_items(qsd.chi_continuity_bound, [sequence, others])


def test_a_single_member_sequence_builds_no_complement(rng):
    sequence = [ensemble(rng, 3, n) for n in (1, 2, 1, 3)]
    assert_items(qsd.holevo_chi_skew_divergence_form, [sequence])
    assert_items(qsd.chi_upper_bounds, [sequence])
    assert_items(qsd.chi_continuity_bound, [sequence, sequence])


@pytest.mark.parametrize("rank_deficient", [False, True])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("route", ["mixing_rate", "sim_bound_check"])
def test_experiment_routes_give_each_item_its_single_call(rng, route, dim, rank_deficient):
    rank = max(1, dim // 2) if rank_deficient else None
    # experiments at t = 0 between moving ones
    times = (0.4, 0.0, 0.9, 0.0, 0.1)
    assert_items(getattr(qsd, route), [[experiment(rng, dim, t, rank) for t in times]])


def test_experiments_all_at_rest(rng):
    sequence = [experiment(rng, 3, 0.0) for _ in range(3)]
    assert_items(qsd.mixing_rate, [sequence])
    assert_items(qsd.sim_bound_check, [sequence])


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
    # every pair of these spectra is close: the 136 pairs with i <= j of each
    # of 40 items fill one block of 65536 // 16 = 4096 pairs from 31 items,
    # and a last one of 1344
    u = la._haar_columns(la._complex_gaussians([rng], (40, 16, 16))[0], 16)
    a = (u * rng.uniform(1.0, 1.05, (40, 1, 16))) @ la._adjoint(u)
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


def test_sequences_must_match(rng):
    sequence = [ensemble(rng, 2, 2) for _ in range(3)]
    with pytest.raises(DomainError, match="nonempty sequences of one length"):
        qsd.chi_continuity_bound(sequence, sequence[:2])
    with pytest.raises(DomainError, match="nonempty sequences of one length"):
        qsd.holevo_chi([])
    with pytest.raises(DomainError, match="nonempty sequences of one length"):
        qsd.chi_continuity_bound(sequence[0], sequence)


def test_a_sequence_has_one_dimension(rng):
    ensembles = [ensemble(rng, 2, 2), ensemble(rng, 3, 2)]
    with pytest.raises(DimensionMismatchError, match="one dimension"):
        qsd.holevo_chi(ensembles)
    with pytest.raises(DimensionMismatchError, match="one dimension"):
        qsd.chi_upper_bounds(ensembles[::-1])
    with pytest.raises(DimensionMismatchError, match="one dimension"):
        qsd.mixing_rate([experiment(rng, 2, 0.3), experiment(rng, 3, 0.3)])
    with pytest.raises(DimensionMismatchError, match="one dimension"):
        qsd.sim_bound_check([experiment(rng, 3, 0.0), experiment(rng, 2, 0.3)])


def test_a_sequence_raises_what_its_first_offending_item_raises(rng):
    sequence = [ensemble(rng, 2, 2), ensemble(rng, 2, 3)]
    wrong_count = [sequence[0], ensemble(rng, 2, 2)]
    with pytest.raises(DomainError, match="same number of members"):
        qsd.chi_continuity_bound(sequence, wrong_count)
    with pytest.raises(DimensionMismatchError):
        qsd.chi_continuity_bound(sequence, [sequence[0], ensemble(rng, 3, 3)])
    light = Ensemble((1e-13, 1.0 - 1e-13), [state(rng, 2) for _ in range(2)])
    experiments = [experiment(rng, 2, 0.3), MixingExperiment(light, *[qsd.random_hamiltonian(2, rng)] * 2, 0.3)]
    with pytest.raises(DomainError, match="skew parameter"):
        qsd.sim_bound_check(experiments)


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
