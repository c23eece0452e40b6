from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from psdalign import checks, pilots
from psdalign.simkit import ExperimentConfig, run_downlink


@pytest.fixture(scope="session")
def default_scenario_runs():
    """The full default-scenario runs shared by the heavy acceptance criteria.

    One PSD-aligned downlink run (P=4096, M=16, 200 trials) and the
    conventional-pilots counterpart with the same master seed.
    """
    cfg = ExperimentConfig()
    aligned = run_downlink(cfg)
    conventional = run_downlink(ExperimentConfig(scheme="hadamard"))
    return cfg, aligned, conventional


@pytest.fixture(scope="session")
def registry_run():
    """One run of the check registry at tolerance scale 1, shared by the tests that read it.

    `checks` is what `run_checks(1.0)` returns, `by_criterion` maps each
    registry function's name to the checks it yielded, and `dense_calls`
    counts the dense orthogonality-residual products the run formed.
    """
    by_criterion = {}

    def recorded(criterion):
        def run():
            by_criterion[criterion.__name__] = list(criterion())
            return by_criterion[criterion.__name__]

        return run

    registry = tuple(recorded(criterion) for criterion in checks.REGISTRY)
    with (
        mock.patch.object(checks, "REGISTRY", registry),
        mock.patch.object(pilots, "_dense_norm", wraps=pilots._dense_norm) as dense,
    ):
        measured = checks.run_checks(1.0)
    return SimpleNamespace(checks=measured, by_criterion=by_criterion, dense_calls=dense.call_count)


def assert_close(actual, expected, tol, label=""):
    assert abs(actual - expected) <= tol, f"{label}: {actual} vs {expected} (tol {tol})"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
