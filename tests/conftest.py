import os

import numpy as np
import pytest
from hypothesis import settings

# A red CI run of a hypothesis test must replay on any machine: the ``ci``
# profile draws examples deterministically and prints the reproduction blob.
# GitHub Actions sets ``CI``; local runs stay randomized.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _stacked(items):
    """Ensembles, or experiments, as one stack of trials, padded as the
    verify harness pads it (``checks._ensembles``)."""
    from qsd import HermitianOperator, MixingExperiment, checks

    if isinstance(items[0], MixingExperiment):
        h1, h2 = (HermitianOperator._of(np.stack([getattr(e, h).mat for e in items])) for h in ("h1", "h2"))
        ens = _stacked([e.ensemble for e in items])
        return MixingExperiment(ens, h1, h2, np.array([e.time for e in items]))
    return checks._ensembles([e.weights for e in items], np.concatenate([e.members for e in items]))


@pytest.fixture
def stacked():
    return _stacked
