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
