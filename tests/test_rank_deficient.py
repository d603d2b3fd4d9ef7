"""Rank-deficient state pairs drawn by strategy.

Each pair has ranks 1..d-1 at d = 2..6 on supports built from Haar
isometries: nested (``supp A`` inside ``supp B``), crossed (two independent
subspaces, so neither contains the other) or orthogonal. The exact support
bases come with the pair, so every expected leak is computed without the
library's support rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsd import (
    DomainError,
    chi2_log,
    metric_epsilon_limit_check,
    relative_entropy,
    sd_by_averaging,
    skew_divergence,
)
from qsd.linalg import SUPPORT_DEFECT_TOL

KINDS = ("nested", "crossed", "orthogonal")


def haar_isometry(dim, rank, rng):
    """First ``rank`` columns of a Haar unitary on ``C^dim``."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, upper = np.linalg.qr(g)
    return (q * (np.diag(upper) / np.abs(np.diag(upper))))[:, :rank]


def leaked(x, basis):
    """Trace mass of ``x`` outside the span of the columns of ``basis``."""
    return float(np.trace(x).real - np.trace(basis.conj().T @ x @ basis).real)


@st.composite
def spectra(draw, rank):
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=rank, max_size=rank)))
    return w / w.sum()


@st.composite
def pairs(draw, kinds=KINDS):
    """``(kind, A, B, basis_a, basis_b)``: two states whose supports are
    spanned by the orthonormal columns of ``basis_a`` and ``basis_b``."""
    dim = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "orthogonal":
        rank_a = draw(st.integers(1, dim - 1))
        rank_b = draw(st.integers(1, dim - rank_a))
        u = haar_isometry(dim, rank_a + rank_b, rng)
        basis_a, basis_b = u[:, :rank_a], u[:, rank_a:]
    elif kind == "nested":
        rank_b = draw(st.integers(1, dim - 1))
        rank_a = draw(st.integers(1, rank_b))
        basis_b = haar_isometry(dim, rank_b, rng)
        basis_a = basis_b @ haar_isometry(rank_b, rank_a, rng)
    else:
        rank_a = draw(st.integers(1, dim - 1))
        rank_b = draw(st.integers(1, dim - 1))
        basis_a = haar_isometry(dim, rank_a, rng)
        basis_b = haar_isometry(dim, rank_b, rng)
    a = (basis_a * draw(spectra(rank_a))) @ basis_a.conj().T
    b = (basis_b * draw(spectra(rank_b))) @ basis_b.conj().T
    return kind, a, b, basis_a, basis_b


def both_orders(pair):
    """``(X, Y, basis of supp Y)`` for ``(A, B)`` and ``(B, A)``."""
    _, a, b, basis_a, basis_b = pair
    return ((a, b, basis_b), (b, a, basis_a))


alphas = st.floats(0.05, 0.95)


@given(pair=pairs())
def test_relative_entropy_is_finite_exactly_without_leak(pair):
    for x, y, basis_y in both_orders(pair):
        leak = leaked(x, basis_y)
        value = relative_entropy(x, y)
        assert math.isinf(value) == (leak > SUPPORT_DEFECT_TOL)
        if math.isfinite(value):
            assert value >= -1e-12


@given(pair=pairs(), alpha=alphas)
def test_skew_divergence_lies_in_unit_interval(pair, alpha):
    for x, y, _ in both_orders(pair):
        value = skew_divergence(x, y, alpha)
        assert -1e-12 <= value <= 1.0 + 1e-12
        if pair[0] == "orthogonal":
            assert value == pytest.approx(1.0, abs=1e-12)


@given(pair=pairs(), alpha=alphas)
def test_averaging_matches_closed_form(pair, alpha):
    for x, y, _ in both_orders(pair):
        assert sd_by_averaging(x, y, alpha) == pytest.approx(
            skew_divergence(x, y, alpha), abs=1e-7
        )


@given(pair=pairs())
def test_chi2_log_raises_exactly_on_leak(pair):
    for x, y, basis_y in both_orders(pair):
        if leaked(x, basis_y) > SUPPORT_DEFECT_TOL:
            with pytest.raises(DomainError):
                chi2_log(x, y)
        else:
            assert chi2_log(x, y) >= 0.0


@given(pair=pairs(kinds=("nested",)), seed=st.integers(0, 2**32 - 1))
def test_metric_limit_is_monotone_on_nested_pairs(pair, seed):
    _, a, b, _, basis_b = pair
    dim = a.shape[0]
    g = haar_isometry(dim, dim, np.random.default_rng(seed))[:, :1]
    # a direction in general position plus the complement of supp B, so every
    # B + eps C is positive-definite and C does not commute with B
    c = g @ g.conj().T + np.eye(dim) - basis_b @ basis_b.conj().T
    assert metric_epsilon_limit_check(a, b, c).monotone
