"""Forward errors of the Fréchet layer against 30-digit mpmath references.

Every reference is built from exact factors: the eigenvalues ``w`` as
``mpf`` and, where a matrix is formed, a basis ``U`` orthonormal to 30
digits, so the float operands are the only rounded data. The second
derivative's core is checked on the spectra its two forms split on: a dense
geometric spectrum whose neighbours all lie between ``_SPLIT_RTOL`` and ten
times it, and clusters whose relative gaps 10^U(-9, -1) straddle both
``DD_CLOSE_RTOL`` and ``_SPLIT_RTOL``. Each bound is pinned at about ten
times the worst error these draws show.
"""

import mpmath
import numpy as np
import pytest

from qsd import frechet as fr
from qsd import frechet_log, metric_M

DPS = 30

# Forward-error bounds, about ten times the worst measured at _SPLIT_RTOL =
# 0.01: the core 7.4e-15 on the dense spectra and 2.4e-14 over 20 cluster
# draws (1.5e-14 on the three here), frechet_log 2.9e-15 and metric_M 1.9e-15
# over 100 draws of the close pairs.
PINS = {"dense": 8e-14, "cluster": 1e-13, "frechet_log": 3e-14, "metric_M": 2e-14}


def rand_herm(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def mp_log_dd1(w):
    """``log[w_i, w_k]`` of ``mpf`` eigenvalues, ``1/w_i`` on the diagonal."""
    logs = [mpmath.log(x) for x in w]
    n = range(len(w))
    return [[1 / w[i] if i == k else (logs[i] - logs[k]) / (w[i] - w[k]) for k in n] for i in n]


def core_reference(w, x, y):
    """``C_ij = sum_k x_ik log[w_i, w_k, w_j] y_kj`` as a direct sum, each
    second divided difference taken from the 30-digit first ones."""
    with mpmath.workdps(DPS):
        wm = [mpmath.mpf(v) for v in w.tolist()]
        f1 = mp_log_dd1(wm)
        xm = [[mpmath.mpc(v) for v in row] for row in x.tolist()]
        ycols = [[mpmath.mpc(v) for v in col] for col in y.T.tolist()]
        dim = len(wm)
        out = np.empty((dim, dim), dtype=complex)
        for i in range(dim):
            # log[w_i, w_k, w_i] = (log[w_i, w_k] - 1/w_i) / (w_k - w_i), -1/(2 w_i^2) at k = i
            f2 = [(f1[i][k] - f1[i][i]) / (wm[k] - wm[i]) for k in range(dim) if k != i]
            f2.insert(i, -1 / (2 * wm[i] ** 2))
            out[i, i] = complex(mpmath.fdot([a * f for a, f in zip(xm[i], f2)], ycols[i]))
            for j in range(dim):
                if j != i:
                    gap = wm[i] - wm[j]
                    f2 = [(f1[i][k] - f1[k][j]) / gap for k in range(dim)]
                    out[i, j] = complex(mpmath.fdot([a * f for a, f in zip(xm[i], f2)], ycols[j]))
    return out


def core_error(w, x, y):
    """Relative forward error of ``_second_core``, in the Frobenius norm."""
    f1 = fr._log_dd1(w[:, None], w[None, :])
    got = fr._second_core(w[None], f1[None], x[None], y[None])[0]
    ref = core_reference(w, x, y)
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


def cluster_spectrum(rng, dim):
    """Ascending spectrum whose neighbours differ by relative gaps 10^U(-9, -1)."""
    w = np.cumprod(1.0 + 10.0 ** rng.uniform(-9.0, -1.0, dim))
    return w / w[-1]


class TestSecondCore:
    @pytest.mark.parametrize("dim, cond", [(48, 10.0), (32, 2.5)])
    def test_dense_split_pairs(self, dim, cond):
        # geometric: every neighbour gap is 1 - cond**(-1/(dim-1)), 4.8% and 2.9%
        rng = np.random.default_rng(dim)
        w = np.geomspace(1.0 / cond, 1.0, dim)
        gaps = 1.0 - w[:-1] / w[1:]
        assert (fr._SPLIT_RTOL < gaps).all() and (gaps <= 10 * fr._SPLIT_RTOL).all()
        assert core_error(w, rand_herm(rng, dim), rand_herm(rng, dim)) <= PINS["dense"]

    @pytest.mark.parametrize("seed", range(3))
    def test_clusters_across_both_switches(self, seed):
        rng = np.random.default_rng(seed)
        w = cluster_spectrum(rng, 24)
        gaps = 1.0 - w[:-1] / w[1:]
        assert gaps.min() < fr.DD_CLOSE_RTOL and gaps.max() > fr._SPLIT_RTOL
        assert core_error(w, rand_herm(rng, 24), rand_herm(rng, 24)) <= PINS["cluster"]


def exact_factors(rng, w):
    """Float base ``A`` and, as 30-digit ``mpmath`` values, the ``U`` and
    ``w`` whose ``U diag(w) U*`` it rounds; ``U`` is orthonormal to 30 digits."""
    dim = len(w)
    with mpmath.workdps(DPS):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = mpmath.qr(mpmath.matrix(g.tolist()))
        wm = [mpmath.mpf(v) for v in w.tolist()]
        a = np.array((u * mpmath.diag(wm) * u.H).tolist(), dtype=complex)
    return (a + a.conj().T) / 2, u, wm


def close_pairs_spectrum(rng):
    """Four pairs of eigenvalues, one at a relative gap in each decade from
    1e-9 to 1e-5, so across ``DD_CLOSE_RTOL``."""
    centres = rng.uniform(0.1, 1.0, 4)
    gaps = 10.0 ** rng.uniform([-9.0, -8.0, -7.0, -6.0], [-8.0, -7.0, -6.0, -5.0])
    return np.sort(np.concatenate((centres, centres * (1.0 + gaps))))


def in_basis(u, d):
    """``U* D U`` at 30 digits, for a float matrix ``D``."""
    return u.H * mpmath.matrix(d.tolist()) * u


def mp_metric(f1, bt, ct):
    """``sum_ij conj(B_ij) log[w_i, w_j] C_ij`` of eigenbasis matrices."""
    n = range(len(f1))
    return complex(mpmath.fsum(mpmath.conj(bt[i, j]) * f1[i][j] * ct[i, j] for i in n for j in n))


class TestFirstOrder:
    @pytest.mark.parametrize("seed", range(10))
    def test_frechet_log_and_metric(self, seed):
        rng = np.random.default_rng(seed)
        w = close_pairs_spectrum(rng)
        gaps = 1.0 - w[:-1] / w[1:]
        assert gaps.min() < fr.DD_CLOSE_RTOL < gaps.max()
        a, u, wm = exact_factors(rng, w)
        x, y = rand_herm(rng, 8), rand_herm(rng, 8)
        with mpmath.workdps(DPS):
            f1 = mp_log_dd1(wm)
            xt, yt = in_basis(u, x), in_basis(u, y)
            inner = mpmath.matrix(8, 8)
            for i in range(8):
                for j in range(8):
                    inner[i, j] = f1[i][j] * xt[i, j]
            deriv = np.array((u * inner * u.H).tolist(), dtype=complex)
            mxx, myy, myx = mp_metric(f1, xt, xt), mp_metric(f1, yt, yt), mp_metric(f1, yt, xt)
        err = np.linalg.norm(frechet_log(a, x).mat - deriv) / np.linalg.norm(deriv)
        assert err <= PINS["frechet_log"]
        # M_A(X, X), and M_A(Y, X) = tr(Y* T_A(X)) on its Cauchy-Schwarz scale
        assert abs(metric_M(a, x, x) - mxx) <= PINS["metric_M"] * abs(mxx)
        assert abs(metric_M(a, y, x) - myx) <= PINS["metric_M"] * abs(mxx * myy) ** 0.5

