"""Shared fixtures for the figure-regeneration benchmark harness.

Scale knobs (environment variables):

=================  ======================  =========================
variable           harness default         paper-scale value
=================  ======================  =========================
POMTLB_CORES       4                       8
POMTLB_REFS        2500                    6000
POMTLB_SCALE       0.35                    1.0
POMTLB_SEED        42                      42
=================  ======================  =========================

The harness default finishes in minutes on a laptop; the paper-scale
settings regenerate the numbers quoted in EXPERIMENTS.md.  All figures
share one session-scoped :class:`SuiteRunner`, so simulations common to
several figures (e.g. the POM runs feeding Figures 8-11) execute once.
"""

import os

import pytest

from repro.experiments.runner import ExperimentParams, SuiteRunner


def _harness_params() -> ExperimentParams:
    return ExperimentParams(
        num_cores=int(os.environ.get("POMTLB_CORES", 4)),
        refs_per_core=int(os.environ.get("POMTLB_REFS", 2500)),
        scale=float(os.environ.get("POMTLB_SCALE", 0.35)),
        seed=int(os.environ.get("POMTLB_SEED", 42)),
    )


@pytest.fixture(scope="session")
def params() -> ExperimentParams:
    return _harness_params()


@pytest.fixture(scope="session")
def runner(params) -> SuiteRunner:
    return SuiteRunner(params)
