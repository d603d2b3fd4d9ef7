"""The verify registry: its pinned contents, and the suite each id names."""

import hashlib
import json

import pytest

from qsd import verify
from qsd.verify import REGISTRY, SUITES, run_suite

# The suite each check-id prefix names, stated independently of verify.py.
PREFIX_SUITE = {"core": "core", "div": "div", "fre": "frechet", "ens": "ensemble", "sim": "sim"}

# sha256 of the JSON list of [check_id, label, suite, tol] rows, in registry
# order. A change to any id, label, suite, tol or to the order moves it.
REGISTRY_SHA256 = "234adbc5d84d5d78b59076600ff67a8fa525878edafa9520fa633b1e59759fa5"


def _prefix(check_id: str) -> str:
    return check_id.split(".", 1)[0]


def test_registry_contents_and_order_are_pinned():
    rows = [[c.check_id, c.label, c.suite, c.tol] for c in REGISTRY]
    assert len(rows) == 42
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == REGISTRY_SHA256


def test_suite_is_named_by_the_id_prefix():
    assert [c.suite for c in REGISTRY] == [PREFIX_SUITE[_prefix(c.check_id)] for c in REGISTRY]
    assert set(SUITES) == set(PREFIX_SUITE.values())
    assert all(any(c.suite == s for c in REGISTRY) for s in SUITES)


@pytest.mark.parametrize("suite", SUITES)
def test_run_suite_selects_exactly_the_prefixed_ids(suite):
    report = run_suite(suite=suite, dims=(2,), trials=1)
    expected = [c.check_id for c in REGISTRY if PREFIX_SUITE[_prefix(c.check_id)] == suite]
    assert [r.check_id for r in report.checks] == expected


@pytest.mark.parametrize("check_id", ["qjsd.identity", "frechet.t_sum_bound", "sd_range"])
def test_unknown_prefix_is_rejected(check_id):
    with pytest.raises(ValueError, match=check_id):
        verify._check(check_id, 1e-8, "a check in no suite", verify._draw_state_pair)
    assert len(verify._REGISTERED) == len(REGISTRY)


def test_repeated_id_is_rejected():
    check_id = REGISTRY[0].check_id
    with pytest.raises(ValueError, match=check_id):
        verify._check(check_id, 1e-8, "a second check of one id", verify._draw_state_pair)
    assert len(verify._REGISTERED) == len(REGISTRY)
