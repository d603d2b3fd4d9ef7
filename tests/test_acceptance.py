"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and trial
count and prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output). Tolerances are pinned here, not configurable.
"""

import json
import math

import numpy as np
import pytest

from qsd import (
    DensityMatrix,
    chi2_log,
    Ensemble,
    MixingExperiment,
    chi_continuity_bound,
    chi_upper_bounds,
    differential_skew_divergence,
    fidelity,
    frechet_log,
    frechet_log_central_diff,
    frechet_log_quadrature,
    holevo_chi,
    holevo_chi_relative_entropy_form,
    holevo_chi_skew_divergence_form,
    metric_M,
    random_hamiltonian,
    random_state,
    random_unitary,
    scalar_differential_sd,
    scalar_skew_divergence,
    sd_by_averaging,
    second_frechet_log,
    shannon_entropy,
    sim_bound_check,
    skew_divergence,
    trace_distance,
)
from qsd.cli import main as cli_main
from qsd.divergences import _skewed_relative_entropy
from qsd import REGISTRY

from make_acceptance_report import TABLES, diff_lines, table_of, verify_args

SEED = 719
DIMS = (2, 3, 4, 6)


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _rng(criterion: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([SEED, criterion]))


def _rand_psd(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = g @ g.conj().T / dim
    return p * rng.uniform(0.2, 2.0) / max(1.0, float(np.trace(p).real))


def _orthogonal_pair(rng, dim):
    u = random_unitary(dim, rng)
    split = int(rng.integers(1, dim))
    wl = rng.dirichlet(np.ones(split))
    wr = rng.dirichlet(np.ones(dim - split))
    return (
        (u[:, :split] * wl) @ u[:, :split].conj().T,
        (u[:, split:] * wr) @ u[:, split:].conj().T,
    )


def test_criterion_01_range_and_orthogonality():
    rng = _rng(1)
    alphas = (0.01, 0.1, 0.5, 0.9, 0.99)
    lo, hi = math.inf, -math.inf
    for k in range(10_000):
        dim = DIMS[k % len(DIMS)]
        alpha = alphas[k % len(alphas)]
        v = skew_divergence(random_state(dim, rng), random_state(dim, rng), alpha)
        lo, hi = min(lo, v), max(hi, v)
    range_ok = lo >= -1e-9 and hi <= 1.0 + 1e-9

    worst_orth = 0.0
    for k in range(100):
        dim = DIMS[k % len(DIMS)]
        rho, sig = _orthogonal_pair(rng, dim)
        for alpha in (0.01, 0.5, 0.99):
            worst_orth = max(worst_orth, abs(1.0 - skew_divergence(rho, sig, alpha)))
    _report(
        1,
        f"SD range over 10^4 pairs in [{lo:.2e}, 1+{hi - 1.0:.2e}]; "
        f"orthogonal deviation {worst_orth:.2e} <= 1e-9",
        range_ok and worst_orth <= 1e-9,
    )


def test_criterion_02_trace_norm_sandwich():
    rng = _rng(2)
    worst = math.inf
    for k in range(10_000):
        dim = DIMS[k % len(DIMS)]
        alpha = float(rng.uniform(0.02, 0.98))
        rho, sig = random_state(dim, rng), random_state(dim, rng)
        t = trace_distance(rho, sig)
        v = skew_divergence(rho, sig, alpha)
        lower = 2.0 * (1.0 - alpha) ** 2 / (-math.log(alpha)) * t * t
        worst = min(worst, v - lower, t - v)
    sandwich_ok = worst >= -1e-8

    worst_family = 0.0
    for t in np.arange(0.1, 0.95, 0.1):
        rho = np.diag([t, 0.0, 1.0 - t])
        sig = np.diag([0.0, t, 1.0 - t])
        for alpha in (0.1, 0.5, 0.9):
            worst_family = max(worst_family, abs(skew_divergence(rho, sig, alpha) - t))
    _report(
        2,
        f"sandwich slack {worst:.2e} >= -1e-8; family deviation {worst_family:.2e} <= 1e-9",
        sandwich_ok and worst_family <= 1e-9,
    )


def _illconditioned(rng, dim, repeated):
    v = random_unitary(dim, rng)
    log_cond = float(rng.uniform(0.0, 6.0))
    lam = np.exp(rng.uniform(-log_cond * math.log(10.0), 0.0, dim))
    lam[0] = 10.0 ** (-log_cond)
    lam[-1] = 1.0
    if repeated and dim >= 3:
        lam[1] = lam[0]  # exact degeneracy
        lam[2] = lam[0] * (1.0 + 3e-8)  # near degeneracy inside the confluent window
    return (v * lam) @ v.conj().T, lam


def test_criterion_03_frechet_oracle_equivalence():
    rng = _rng(3)
    worst_quad, worst_fd = 0.0, 0.0
    for k in range(500):
        dim = DIMS[k % len(DIMS)]
        a, lam = _illconditioned(rng, dim, repeated=(k % 2 == 0))
        d = random_hamiltonian(dim, rng).mat
        dd = frechet_log(a, d).mat
        scale = max(1.0, float(np.linalg.norm(dd)))
        quad = frechet_log_quadrature(a, d).mat
        worst_quad = max(worst_quad, float(np.linalg.norm(quad - dd)) / scale)
        h = 3e-3 * float(lam.min())
        fd = frechet_log_central_diff(a, d, h=h, order=4).mat
        worst_fd = max(worst_fd, float(np.linalg.norm(fd - dd)) / scale)
    _report(
        3,
        f"quadrature rel dev {worst_quad:.2e} <= 1e-6; finite-difference rel dev {worst_fd:.2e} <= 1e-6",
        worst_quad <= 1e-6 and worst_fd <= 1e-6,
    )


def test_criterion_04_operator_lemmas():
    rng = _rng(4)
    worst_t, worst_r, worst_bilinear = -math.inf, -math.inf, 0.0
    for k in range(500):
        dim = DIMS[k % len(DIMS)]
        a, b = _rand_psd(rng, dim), _rand_psd(rng, dim)
        worst_t = max(worst_t, float(np.linalg.eigvalsh(frechet_log(a + b, a).mat)[-1]))
        worst_r = max(
            worst_r, float(np.linalg.eigvalsh(second_frechet_log(a + b, a).mat)[-1])
        )
        base = _rand_psd(rng, dim) + 0.05 * np.eye(dim)
        delta = (
            lambda g: (g + g.conj().T) / 2
        )(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        worst_bilinear = max(
            worst_bilinear,
            float(
                np.linalg.norm(
                    second_frechet_log(base, base, delta).mat
                    - frechet_log(base, delta).mat
                )
            ),
        )
    _report(
        4,
        f"lambda_max T <= 1+{worst_t - 1.0:.2e}, lambda_max R <= 1+{worst_r - 1.0:.2e}, "
        f"||R(A,D)-T(D)|| {worst_bilinear:.2e} <= 1e-8",
        worst_t <= 1.0 + 1e-9 and worst_r <= 1.0 + 1e-9 and worst_bilinear <= 1e-8,
    )


def test_criterion_05_metric_difference_inequality():
    rng = _rng(5)
    worst = math.inf
    for k in range(500):
        dim = DIMS[k % len(DIMS)]
        a, b, c = (_rand_psd(rng, dim) for _ in range(3))
        diff = metric_M(a + b, a, a).real - metric_M(a + b + c, a, a).real
        ta, tc = float(np.trace(a).real), float(np.trace(c).real)
        worst = min(worst, diff, ta - ta * ta / (ta + tc) - diff)
    _report(5, f"metric difference slack {worst:.2e} >= -1e-8", worst >= -1e-8)


def test_criterion_06_differential_calculus():
    rng = _rng(6)
    worst_sym, worst_avg, worst_der, worst_chi2 = 0.0, 0.0, 0.0, 0.0
    for k in range(500):
        dim = DIMS[k % len(DIMS)]
        alpha = float(rng.uniform(0.05, 0.95))

        a, b = _rand_psd(rng, dim), _rand_psd(rng, dim)
        worst_sym = max(
            worst_sym,
            abs(
                differential_skew_divergence(a, b, alpha)
                - differential_skew_divergence(b, a, 1.0 - alpha)
            ),
        )

        rho, sig = random_state(dim, rng), random_state(dim, rng)
        worst_avg = max(
            worst_avg,
            abs(sd_by_averaging(rho, sig, alpha) - skew_divergence(rho, sig, alpha)),
        )

        ac = 0.95 * random_state(dim, rng).mat + 0.05 * np.eye(dim) / dim
        bc = 0.95 * random_state(dim, rng).mat + 0.05 * np.eye(dim) / dim
        h = 1e-5
        fd = (
            -alpha
            * (
                _skewed_relative_entropy(ac, bc, alpha + h)
                - _skewed_relative_entropy(ac, bc, alpha - h)
            )
            / (2.0 * h)
        )
        worst_der = max(
            worst_der, abs(differential_skew_divergence(ac, bc, alpha) - fd)
        )

        tau = alpha * rho.mat + (1.0 - alpha) * sig.mat
        worst_chi2 = max(
            worst_chi2,
            abs(
                differential_skew_divergence(rho.mat, sig.mat, alpha)
                - alpha / (1.0 - alpha) * chi2_log(rho.mat, tau)
            ),
        )
    _report(
        6,
        f"symmetry {worst_sym:.2e} <= 1e-10; averaging {worst_avg:.2e} <= 1e-6; "
        f"derivative {worst_der:.2e} <= 1e-6; chi2 relation {worst_chi2:.2e} <= 1e-9",
        worst_sym <= 1e-10
        and worst_avg <= 1e-6
        and worst_der <= 1e-6
        and worst_chi2 <= 1e-9,
    )


def _triangle_rhs(scalar_fn, alpha, t, swapped):
    if swapped:
        return scalar_fn(0.0, 1.0, alpha) - scalar_fn(t, 1.0, alpha) + scalar_fn(t, 0.0, alpha)
    return scalar_fn(1.0, 0.0, alpha) - scalar_fn(1.0, t, alpha) + scalar_fn(0.0, t, alpha)


def test_criterion_07_continuity_family():
    rng = _rng(7)
    from qsd import relative_entropy, scalar_relative_entropy

    worst = math.inf
    for k in range(500):
        dim = DIMS[k % len(DIMS)]
        alpha = float(rng.uniform(0.02, 0.98))
        a, b, c = (_rand_psd(rng, dim) for _ in range(3))
        ta, tc = float(np.trace(a).real), float(np.trace(c).real)

        d_sd = skew_divergence(a, a + b, alpha) - skew_divergence(a, a + b + c, alpha)
        d_s = float(relative_entropy(a, a + b)) - float(relative_entropy(a, a + b + c))
        e_sd = skew_divergence(b, a + b, alpha) - skew_divergence(b + c, a + b + c, alpha)
        e_s = float(relative_entropy(b, a + b)) - float(relative_entropy(b + c, a + b + c))
        worst = min(
            worst,
            d_sd + scalar_skew_divergence(0.0, tc, alpha),
            -scalar_skew_divergence(ta, ta + tc, alpha) - d_sd,
            d_s + scalar_relative_entropy(0.0, tc),
            -scalar_relative_entropy(ta, ta + tc) - d_s,
            e_sd,
            scalar_skew_divergence(0.0, ta, alpha)
            - scalar_skew_divergence(tc, ta + tc, alpha)
            - e_sd,
            e_s,
            scalar_relative_entropy(0.0, ta)
            - scalar_relative_entropy(tc, ta + tc)
            - e_s,
        )

        rho, s1, s2 = (random_state(dim, rng) for _ in range(3))
        t = trace_distance(s1, s2)
        if t > 0.0:
            worst = min(
                worst,
                _triangle_rhs(scalar_skew_divergence, alpha, t, False)
                - abs(
                    skew_divergence(rho, s1, alpha) - skew_divergence(rho, s2, alpha)
                ),
                _triangle_rhs(scalar_skew_divergence, alpha, t, True)
                - abs(
                    skew_divergence(s1, rho, alpha) - skew_divergence(s2, rho, alpha)
                ),
                _triangle_rhs(scalar_differential_sd, alpha, t, False)
                - abs(
                    differential_skew_divergence(rho.mat, s1.mat, alpha)
                    - differential_skew_divergence(rho.mat, s2.mat, alpha)
                ),
                _triangle_rhs(scalar_differential_sd, alpha, t, True)
                - abs(
                    differential_skew_divergence(s1.mat, rho.mat, alpha)
                    - differential_skew_divergence(s2.mat, rho.mat, alpha)
                ),
            )
    bounds_ok = worst >= -1e-8

    worst_eq = 0.0
    for k in range(100):
        dim = DIMS[k % len(DIMS)]
        u = random_unitary(dim, rng)
        rho = np.outer(u[:, 0], u[:, 0].conj())
        w = rng.dirichlet(np.ones(dim - 1)) if dim > 1 else np.ones(1)
        s1 = (u[:, 1:] * w) @ u[:, 1:].conj().T
        t = float(rng.uniform(0.05, 0.95))
        s2 = t * rho + (1.0 - t) * s1
        alpha = float(rng.uniform(0.05, 0.95))
        lhs = abs(skew_divergence(rho, s1, alpha) - skew_divergence(rho, s2, alpha))
        worst_eq = max(
            worst_eq, abs(lhs - _triangle_rhs(scalar_skew_divergence, alpha, t, False))
        )
    _report(
        7,
        f"eight continuity bounds slack {worst:.2e} >= -1e-8; equality case deviation {worst_eq:.2e} <= 1e-9",
        bounds_ok and worst_eq <= 1e-9,
    )


def test_criterion_08_incremental_mixing():
    rng = _rng(8)
    worst_gain, worst_svsd, worst_bravyi = math.inf, 0.0, math.inf
    for k in range(1000):
        dim = 2 + k % 5  # dims 2..6
        p = float(rng.uniform(0.05, 0.95))
        ens = Ensemble((p, 1.0 - p), (random_state(dim, rng), random_state(dim, rng)))
        exp = MixingExperiment(
            ens,
            random_hamiltonian(dim, rng),
            random_hamiltonian(dim, rng),
            float(rng.uniform(0.0, 1.0)),
        )
        rec = sim_bound_check(exp)
        worst_gain = min(worst_gain, rec.sim_bound - rec.entropy_gain)
        worst_svsd = max(worst_svsd, rec.sd_representation_residual)
        worst_bravyi = min(
            worst_bravyi, min(rec.bravyi_rhs - lhs for lhs in rec.bravyi_lhs)
        )
    _report(
        8,
        f"entropy-gain slack {worst_gain:.2e} >= -1e-8; decomposition residual {worst_svsd:.2e} <= 1e-8; "
        f"unitary-perturbation slack {worst_bravyi:.2e} >= -1e-8",
        worst_gain >= -1e-8 and worst_svsd <= 1e-8 and worst_bravyi >= -1e-8,
    )


def test_criterion_09_holevo_suite():
    rng = _rng(9)
    worst_forms, worst_chain, worst_cont, worst_roga = 0.0, math.inf, math.inf, math.inf
    for k in range(500):
        dim = 2 + k % 5  # dims 2..6
        n = 2 + k % 3  # n 2..4
        w = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
        w /= w.sum()
        ens = Ensemble(w, [random_state(dim, rng) for _ in range(n)])

        chi = holevo_chi(ens)
        worst_forms = max(
            worst_forms,
            abs(chi - holevo_chi_relative_entropy_form(ens)),
            abs(chi - holevo_chi_skew_divergence_form(ens)),
        )

        rec = chi_upper_bounds(ens)
        worst_chain = min(
            worst_chain,
            rec.complementary_bound - rec.chi,
            rec.pairwise_bound - rec.complementary_bound,
            rec.entropy_times_t - rec.pairwise_bound,
        )

        mix = float(rng.uniform(0.0, 0.4))
        other = Ensemble(
            w,
            [
                DensityMatrix.from_matrix(
                    (1.0 - mix) * s.mat + mix * random_state(dim, rng).mat
                )
                for s in ens.states
            ],
        )
        cont = chi_continuity_bound(ens, other)
        worst_cont = min(
            worst_cont,
            cont.weighted_bound - cont.delta_chi,
            cont.dimension_free_bound - cont.weighted_bound,
        )

        if n == 2:
            f = fidelity(ens.states[0], ens.states[1])
            surrogate = shannon_entropy(w) * math.sqrt(max(0.0, 1.0 - f * f))
            worst_roga = min(
                worst_roga, rec.roga_bound - rec.chi, surrogate - rec.roga_bound
            )
    _report(
        9,
        f"chi forms agree to {worst_forms:.2e} <= 1e-9; bound-chain slack {worst_chain:.2e} >= -1e-8; "
        f"continuity slack {worst_cont:.2e} >= -1e-8; fidelity-surrogate slack {worst_roga:.2e} >= -1e-8",
        worst_forms <= 1e-9
        and worst_chain >= -1e-8
        and worst_cont >= -1e-8
        and worst_roga >= -1e-8,
    )


# criterion 10 lets a worst slack move by 1e-12, and a worst trial only where
# the worst slack exceeds 1e-9 in magnitude
BAND, TIE = 1e-12, 1e-9
TABLE = TABLES[42]


def test_moved_records_are_caught():
    pinned = json.loads(TABLE.read_text())
    check_id = next(k for k, v in pinned.items() if abs(v["worst_slack"]) > 1e-9)

    def moved(key, value, of=check_id):
        table = json.loads(TABLE.read_text())
        table[of][key] = value
        return diff_lines(pinned, table, BAND, TIE)

    slack = pinned[check_id]["worst_slack"]
    assert diff_lines(pinned, json.loads(TABLE.read_text()), BAND, TIE) == []
    assert moved("worst_slack", slack + 1e-13) == []
    assert len(moved("worst_slack", slack + 1e-11)) == 1
    assert len(moved("worst_slack", None)) == 1
    assert len(moved("worst_trial", {"dim": 5, "trial": 0})) == 1
    assert len(moved("violations", 1)) == 1
    assert len(moved("tol", 1e-3)) == 1
    tiny = next(k for k, v in pinned.items() if abs(v["worst_slack"]) <= 1e-9)
    assert moved("worst_trial", {"dim": 5, "trial": 0}, of=tiny) == []
    del pinned[check_id]
    assert len(diff_lines(pinned, json.loads(TABLE.read_text()), BAND, TIE)) == 1


def test_diff_lines_name_every_bit_move():
    pinned = json.loads(TABLE.read_text())
    table = json.loads(TABLE.read_text())
    assert diff_lines(pinned, table) == []
    first, last = list(pinned)[0], list(pinned)[-1]
    slack = pinned[first]["worst_slack"]
    table[first]["worst_slack"] = math.nextafter(slack, math.inf)  # inside criterion 10's band
    table[first]["worst_trial"] = {"dim": 5, "trial": 0}
    table["new.check"] = table.pop(last)
    lines = diff_lines(pinned, table)
    assert lines[:2] == [f"{last}: not in the new table", "new.check: not pinned"]
    assert lines[2].startswith(f"{first}.worst_slack: {slack!r} -> ") and "(delta +" in lines[2]
    assert lines[3] == f"{first}.worst_trial: {pinned[first]['worst_trial']!r} -> {{'dim': 5, 'trial': 0}}"
    assert len(lines) == 4
    assert diff_lines(pinned, dict(reversed(pinned.items()))) == [
        f"check ids {list(reversed(pinned))} are not in the pinned order"
    ]


@pytest.mark.parametrize("seed", TABLES)
def test_criterion_10_end_to_end_verify(tmp_path, seed):
    out = tmp_path / "report.json"
    code = cli_main([*verify_args(seed), "--quiet", "--out", str(out)])
    report = json.loads(out.read_text())
    ids = [c["check_id"] for c in report["checks"]]
    coverage_ok = ids == [c.check_id for c in REGISTRY]
    moved = diff_lines(json.loads(TABLES[seed].read_text()), table_of(report), BAND, TIE)
    _report(
        10,
        f"verify --suite all --seed {seed} exits {code} with {report['total_violations']} "
        f"violations; {len(ids)} checks are the {len(REGISTRY)} registered, in order; "
        f"{len(moved)} records differ from {TABLES[seed].name} {moved}",
        code == 0 and report["total_violations"] == 0 and coverage_ok and not moved,
    )
