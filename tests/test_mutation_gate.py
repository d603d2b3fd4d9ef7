"""A wrong public function is caught by the harness.

Each function is scaled by ``1 + eps`` in every ``qsd`` namespace that binds
it (``relative_entropy`` through its value), and the seeded suite must then
report violations in at least as many checks as are pinned here. The first
six are the functions the judges call themselves, so a defect in a public
wrapper cannot hide behind a private kernel; the others are reached through
the plain checks and the oracles. ``metric_M`` is not pinned: it survives
every eps until an identity check on it (``fre.metric_trace_identity``) is
registered.
"""

import sys

import pytest

import qsd

# name -> {eps: checks with violations at least}, on
# run_suite("all", dims=(2, 3, 4), trials=10, seed=42)
KILLS = {
    "skew_divergence": {1e-6: 4, 1e-2: 5},
    "relative_entropy": {1e-2: 1},
    "trace_distance": {1e-2: 1},
    "fidelity": {1e-2: 1},
    "chi2_log": {1e-6: 1, 1e-2: 1},
    "differential_skew_divergence": {1e-6: 1, 1e-2: 2},
    "frechet_log": {1e-2: 4},
    "second_frechet_log": {1e-2: 1},
    "holevo_chi": {1e-2: 1},
    "von_neumann_entropy": {1e-2: 3},
    "mixing_rate": {1e-2: 1},
    "sd_by_averaging": {1e-2: 1},
    "evolve": {1e-2: 1},
}


def scaled(fn, eps):
    """``fn`` with its result scaled by ``1 + eps``; a ``DivergenceValue``
    keeps its support defect, so its rule still holds."""
    if fn is qsd.relative_entropy:

        def mutant(*args):
            out = fn(*args)
            return type(out)(out.value * (1.0 + eps), out.support_defect)

    else:

        def mutant(*args):
            return fn(*args) * (1.0 + eps)

    return mutant


def install(monkeypatch, fn, mutant) -> int:
    """Bind ``mutant`` wherever a loaded qsd module binds ``fn``."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if name == "qsd" or name.startswith("qsd."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, mutant)
                    bound += 1
    return bound


@pytest.mark.parametrize(
    "name, eps", [(name, eps) for name, kills in KILLS.items() for eps in kills]
)
def test_a_scaled_public_function_is_caught(monkeypatch, name, eps):
    fn = getattr(qsd, name)
    assert install(monkeypatch, fn, scaled(fn, eps)) >= 2  # the package and its module
    report = qsd.run_suite("all", dims=(2, 3, 4), trials=10, seed=42)
    caught = [c.check_id for c in report.checks if c.violations]
    assert len(caught) >= KILLS[name][eps], caught


def test_the_unscaled_suite_is_clean():
    report = qsd.run_suite("all", dims=(2, 3, 4), trials=10, seed=42)
    assert report.total_violations == 0
