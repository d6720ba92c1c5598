import os

import numpy as np
import pytest

from focklab.core import TruncationPolicy


@pytest.fixture
def tight_policy():
    """Truncation tight enough that high-order moments keep 1e-10 accuracy."""
    return TruncationPolicy(max_dim=512, tail_tolerance=1e-16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """After every test, this process has no child left to reap (``run_verification`` forks)."""
    yield
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
