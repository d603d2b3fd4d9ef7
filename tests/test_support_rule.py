"""Every support site applies one rule: an eigenvalue belongs to the support
of a PSD operator when it exceeds ``dim * eps * lambda_max``.

Each pair below puts the small eigenvalue of the operator whose support
matters at 0.5x or 2x that threshold. Diagonal inputs keep the eigenvalues
exact, so a site that drifts from the shared rule flips its outcome.
"""

import math

import numpy as np
import pytest

from qsd import (
    DensityMatrix,
    DomainError,
    Ensemble,
    HermitianOperator,
    MixingExperiment,
    chi2_log,
    differential_skew_divergence,
    mixing_rate,
    relative_entropy,
    skew_divergence,
    support_of,
)

EPS = float(np.finfo(np.float64).eps)
FACTORS = (0.5, 2.0)
DIMS = (2, 3)
ALPHA = 0.5


def threshold(dim):
    """The support threshold of an operator with lambda_max = 1."""
    return dim * EPS


def diag(*entries):
    return np.diag(np.asarray(entries, dtype=complex))


def reference(dim, small):
    """diag(1, 1/2, ..., small): lambda_max is 1, the last eigenvalue is small."""
    return diag(1.0, *[0.5] * (dim - 2), small)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("factor", FACTORS)
def test_support_of(dim, factor):
    b = reference(dim, factor * threshold(dim))
    assert support_of(b).rank == (dim if factor > 1.0 else dim - 1)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("factor", FACTORS)
def test_relative_entropy_finite_only_inside_the_support(dim, factor):
    # A puts mass 1/2 on the small direction of B
    a = reference(dim, 0.5)
    value = relative_entropy(a, reference(dim, factor * threshold(dim)))
    if factor > 1.0:
        assert math.isfinite(value.value) and value.support_defect == 0.0
    else:
        assert value.is_infinite and value.support_defect == pytest.approx(0.5)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("factor", FACTORS)
def test_chi2_log_defined_only_inside_the_support(dim, factor):
    a = reference(dim, 0.5)
    small = factor * threshold(dim)
    b = reference(dim, small)
    if factor > 1.0:
        # M_B(A-B, A-B) on a diagonal pair: sum of (a_k - b_k)^2 / b_k
        expected = sum((x - y) ** 2 / y for x, y in zip(np.diag(a).real, np.diag(b).real))
        assert chi2_log(a, b) == pytest.approx(expected, rel=1e-12, abs=0.0)
    else:
        with pytest.raises(DomainError):
            chi2_log(a, b)


def skewed_pair(dim, factor):
    """A = diag(1, 1/2, ..., y), B = diag(1, 1/2, ..., 0): the mixture
    tau = A/2 + B/2 has lambda_max 1 and small eigenvalue y/2 = factor * thr."""
    y = 2.0 * factor * threshold(dim)
    return reference(dim, y), reference(dim, 0.0), y


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("factor", FACTORS)
def test_skew_divergence(dim, factor):
    a, b, y = skewed_pair(dim, factor)
    value = skew_divergence(a, b, ALPHA)
    if factor > 1.0:
        # S(A || tau) = y log(1/alpha) - (1 - alpha) y, up to rounding of 1 + y
        expected = (-y * math.log(ALPHA) - (1.0 - ALPHA) * y) / -math.log(ALPHA)
        assert value == pytest.approx(expected, abs=2 * EPS)
        assert value > 0.0
    else:
        # the small direction is dropped: A and tau agree on the support
        assert value == 0.0


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("factor", FACTORS)
def test_differential_skew_divergence(dim, factor):
    a, b, y = skewed_pair(dim, factor)
    value = differential_skew_divergence(a, b, ALPHA)
    if factor > 1.0:
        # a(1-a) |y|^2 / (a y): the small-small pair of A - B = diag(0, ..., y)
        assert value == pytest.approx((1.0 - ALPHA) * y, rel=1e-12, abs=0.0)
    else:
        assert value == 0.0


@pytest.mark.parametrize("factor", FACTORS)
def test_mixing_rate(factor):
    # rho_0 = (rho_1 + rho_2)/2 = diag(c^2, e^2) with e^2 = factor * thr; the
    # members are pure states (c, +-e) whose coherences cancel in the average.
    e2 = factor * threshold(2)
    c, e = math.sqrt(1.0 - e2), math.sqrt(e2)
    members = [
        DensityMatrix(np.outer(v, v)) for v in (np.array([c, e]), np.array([c, -e]))
    ]
    sigma_y = HermitianOperator(np.array([[0.0, -1j], [1j, 0.0]]))
    zero = HermitianOperator(np.zeros((2, 2)))
    rate = mixing_rate(MixingExperiment(Ensemble((0.5, 0.5), members), sigma_y, zero, 0.0))
    # -tr(rho_0' log rho_0) with rho_0' = diag(c e, -c e); the small direction
    # contributes c e log(e^2), about 1e-6, only while it is in the support
    if factor > 1.0:
        expected = c * e * (math.log(e2) - math.log(c * c))
        assert rate == pytest.approx(expected, rel=1e-6, abs=0.0)
    else:
        assert abs(rate) < 1e-15
