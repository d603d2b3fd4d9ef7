"""Forward errors of the Fréchet layer against 30-digit mpmath references.

Every reference is built from exact factors: the eigenvalues ``w`` as
``mpf`` and, where a matrix is formed, a basis ``U`` orthonormal to 30
digits, so the float operands are the only rounded data. The second
derivative's core is checked on the spectra its two forms split on: a dense
geometric spectrum whose neighbours all lie between ``_SPLIT_RTOL`` and ten
times it, and clusters whose relative gaps 10^U(-9, -1) straddle both
``DD_CLOSE_RTOL`` and ``_SPLIT_RTOL``. The quadrature oracles are checked on
the same spectra and on the ``fre.quadrature_match`` draws, in a basis of one
Householder reflection. ``sd_by_averaging`` is checked against the skew
divergence of exact factors at d=4, the mixture diagonalized by
``mpmath.eighe``. Each bound is pinned at about ten
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
# over 100 draws of the close pairs. The quadrature oracles, both orders:
# 3.2e-15 on the dense spectra (8 draws), 3.4e-15 on clusters (8 draws) and
# 5.5e-13 on the fre.quadrature_match draws (240 draws, cond up to 1e4).
PINS = {"dense": 8e-14, "cluster": 1e-13, "frechet_log": 3e-14, "metric_M": 2e-14}
PINS |= {"oracle_dense": 3e-14, "oracle_cluster": 4e-14, "oracle_match": 6e-12}
# sd_by_averaging over 10 draws of each family: 1.9e-15 generic, 1.5e-15 with
# an eigenvalue 1e-8 of A, 2.2e-13 with one of 1e-12 (the head panel's) and
# 2.7e-15 with A of rank 1.
PINS |= {"avg_generic": 2e-14, "avg_eigenvalue_1e-8": 2e-14}
PINS |= {"avg_eigenvalue_1e-12": 2e-12, "avg_rank_1": 3e-14}


def rand_herm(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def mp_log_dd1(w):
    """``log[w_i, w_k]`` of ``mpf`` eigenvalues, ``1/w_i`` where they are equal."""
    logs = [mpmath.log(x) for x in w]
    n = range(len(w))
    return [[1 / w[i] if w[i] == w[k] else (logs[i] - logs[k]) / (w[i] - w[k]) for k in n] for i in n]


def core_reference(w, x, y):
    """``C_ij = sum_k x_ik log[w_i, w_k, w_j] y_kj`` as a direct sum, each
    second divided difference taken from the 30-digit first ones."""
    with mpmath.workdps(DPS):
        return to_float(mp_core([mpmath.mpf(v) for v in w.tolist()], x, y))


def to_float(m):
    """A matrix of ``mpmath`` numbers rounded to a complex array."""
    return np.array(m.tolist(), dtype=complex)


def mp_core(wm, x, y):
    """``core_reference`` of ``mpf`` eigenvalues, as an array of ``mpmath``
    numbers at the working precision."""
    f1 = mp_log_dd1(wm)
    xm = [[mpmath.mpc(v) for v in row] for row in x.tolist()]
    ycols = [[mpmath.mpc(v) for v in col] for col in y.T.tolist()]
    dim = len(wm)
    out = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        # log[w_i, w_k, w_i] = (log[w_i, w_k] - 1/w_i) / (w_k - w_i), -1/(2 w_i^2) at w_k = w_i
        confluent = [
            -1 / (2 * wm[i] ** 2) if wm[k] == wm[i] else (f1[i][k] - f1[i][i]) / (wm[k] - wm[i])
            for k in range(dim)
        ]
        for j in range(dim):
            gap = wm[i] - wm[j]
            f2 = [(f1[i][k] - f1[k][j]) / gap for k in range(dim)] if gap else confluent
            out[i, j] = mpmath.fdot([a * f for a, f in zip(xm[i], f2)], ycols[j])
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


def exact_factors(rng, w, dps=DPS):
    """Float base ``A`` and, as ``dps``-digit ``mpmath`` values, the ``U``
    and ``w`` whose ``U diag(w) U*`` it rounds; ``U`` is orthonormal to
    ``dps`` digits."""
    dim = len(w)
    with mpmath.workdps(dps):
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


def reflected(v, m):
    """``H M H`` of a Hermitian ``M`` at the working precision, for the
    Householder reflection ``H = I - tau v v*``, ``tau = 2/(v* v)``, which is
    unitary and Hermitian: ``H M H = M - v q* - q v*`` with ``p = tau M v``
    and ``q = p - (tau v* p / 2) v`` costs O(d^2). Arrays hold ``mpmath``
    numbers (``object`` dtype)."""
    vc = np.conj(v)
    tau = 2 / vc.dot(v)
    p = m.dot(v) * tau
    q = p - v * (tau * vc.dot(p) / 2)
    return m - np.outer(v, np.conj(q)) - np.outer(q, vc)


def oracle_errors(rng, w, second=True):
    """Relative Frobenius errors of the first and, with ``second``, the
    second quadrature oracle at the base ``H diag(w) H`` and direction
    ``H X H``, both rounded from 30 digits, where ``H`` is a reflection and
    ``X`` a float Hermitian matrix; the references act on ``w`` and ``X`` in
    the exact basis."""
    dim = len(w)
    x = rand_herm(rng, dim)
    exact = np.vectorize(mpmath.mpc, otypes=[object])
    with mpmath.workdps(DPS):
        v = exact(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        wm = [mpmath.mpf(e) for e in w.tolist()]
        f1, xm = np.array(mp_log_dd1(wm), dtype=object), exact(x)
        a, d = (to_float(reflected(v, m)) for m in (np.diag(exact(w)), xm))
        refs = [(fr.frechet_log_quadrature, to_float(reflected(v, f1 * xm)))]
        if second:
            core = to_float(reflected(v, -2 * mp_core(wm, x, x)))
            refs.append((fr.second_frechet_log_quadrature, core))
    a, d = (a + a.conj().T) / 2, (d + d.conj().T) / 2
    return [np.linalg.norm(oracle(a, d).mat - ref) / np.linalg.norm(ref) for oracle, ref in refs]


def quadrature_match_spectrum(rng, dim):
    """The ``fre.quadrature_match`` draw: ``dim`` eigenvalues log-uniform
    over ``[1/cond, 1]`` with ``cond = 10^U(0, 4)``, the first two equal in
    half the draws."""
    cond = 10.0 ** rng.uniform(0.0, 4.0)
    w = np.exp(rng.uniform(-np.log(cond), 0.0, dim))
    if rng.uniform() < 0.5:
        w[1] = w[0]
    return w


class TestQuadratureOracles:
    @pytest.mark.parametrize("dim, cond", [(48, 10.0), (32, 2.5)])
    def test_dense_spectra(self, dim, cond):
        rng = np.random.default_rng(dim)
        # the second order only at d=32: its d^3 reference sum takes about 1 s at d=48
        errs = oracle_errors(rng, np.geomspace(1.0 / cond, 1.0, dim), second=dim <= 32)
        assert max(errs) <= PINS["oracle_dense"]

    def test_clusters(self):
        rng = np.random.default_rng(0)
        assert max(oracle_errors(rng, cluster_spectrum(rng, 24))) <= PINS["oracle_cluster"]

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_quadrature_match_draws(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            assert max(oracle_errors(rng, quadrature_match_spectrum(rng, dim))) <= PINS["oracle_match"]


# The spectrum of A in each sd_by_averaging family, from a Dirichlet draw.
AVERAGING_FAMILIES = {
    "generic": lambda w: w,
    "eigenvalue_1e-8": lambda w: np.concatenate(([1e-8], w[1:])),
    "eigenvalue_1e-12": lambda w: np.concatenate(([1e-12], w[1:])),
    "rank_1": lambda w: np.eye(len(w))[0],
}


def skew_reference(a_factors, b_factors, alpha, dps=DPS):
    """``S(A || M) / (-log alpha)`` with ``M = alpha A + (1 - alpha) B``, at
    ``dps`` digits, from the exact factors ``(U, w)`` of ``A`` and of ``B``."""
    with mpmath.workdps(dps):
        am, bm = (u * mpmath.diag(w) * u.H for u, w in (a_factors, b_factors))
        al = mpmath.mpf(alpha)
        e, q = mpmath.eighe(al * am + (1 - al) * bm)
        log_m = q * mpmath.diag([mpmath.log(x) for x in e]) * q.H
        n = range(am.rows)
        tr_a_log_m = mpmath.fsum(am[i, j] * log_m[j, i] for i in n for j in n)
        wa, wb = a_factors[1], b_factors[1]
        trace = (1 - al) * (mpmath.fsum(wa) - mpmath.fsum(wb))
        rel = mpmath.fsum(x * mpmath.log(x) for x in wa if x) - tr_a_log_m - trace
        return float(mpmath.re(rel) / -mpmath.log(al))


def averaging_errors(family):
    """Relative errors of ``sd_by_averaging``, one per draw of ``family``: ``A`` from its spectrum, ``B``
    generic, ``alpha`` uniform on ``[0.05, 0.95]`` as in ``fre.averaging_match``."""
    rng = np.random.default_rng(list(AVERAGING_FAMILIES).index(family))
    errs = []
    for _ in range(10):
        a, *a_factors = exact_factors(rng, AVERAGING_FAMILIES[family](rng.dirichlet(np.ones(4))))
        b, *b_factors = exact_factors(rng, rng.dirichlet(np.ones(4)))
        alpha = rng.uniform(0.05, 0.95)
        ref = skew_reference(a_factors, b_factors, alpha)
        errs.append(abs(fr.sd_by_averaging(a, b, alpha) - ref) / ref)
    return np.array(errs)


@pytest.mark.parametrize("family", AVERAGING_FAMILIES)
def test_sd_by_averaging(family):
    assert averaging_errors(family).max() <= PINS[f"avg_{family}"]


# sd_by_averaging near alpha = 1, over 10 generic d=3 pairs against a 45-digit
# reference: S(A || M) is of order (1 - alpha)^2 there, so 30 digits would
# resolve it only to about 1e-12. Worst 1.7e-15 at 1 - 1e-6 and 2.1e-15 at
# 1 - 1e-9 on these draws, 1.8e-14 and 4.2e-15 over five more seeds; forming
# 1 - alpha' from the rounded alpha' erred by 8.0e-11 and 6.5e-8 here.
PINS |= {"avg_near_one_1e-06": 2e-13, "avg_near_one_1e-09": 4e-14}


@pytest.mark.parametrize("gap", [1e-6, 1e-9])
def test_sd_by_averaging_near_alpha_one(gap):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        a, *a_factors = exact_factors(rng, rng.dirichlet(np.ones(3)), dps=45)
        b, *b_factors = exact_factors(rng, rng.dirichlet(np.ones(3)), dps=45)
        ref = skew_reference(a_factors, b_factors, 1.0 - gap, dps=45)
        worst = max(worst, abs(fr.sd_by_averaging(a, b, 1.0 - gap) - ref) / ref)
    assert worst <= PINS[f"avg_near_one_{gap:.0e}"]
