"""Shared infrastructure for the benchmark harness.

Every bench regenerates one table or figure of the paper's Section 5 at
a reduced scale (``REPRO_SCALE``, default 64; see README "Tests and
benchmarks"), writes the paper-style rows to
``benchmarks/results/<id>.txt`` and asserts the qualitative shape the
paper reports.

Reported time columns follow the paper's accounting:

- ``io(s)``  — page faults x 10 ms at the shared LRU buffer;
- ``cpu(s)`` — node accesses x 0.05 ms (the paper: CPU time "roughly
  models the total number ... of R-tree node accesses");
- ``wall(s)`` — measured Python wall-clock, shown for transparency but
  not used in shape assertions (host constant factors differ from the
  paper's C++).
"""

from __future__ import annotations

import os

import pytest

from repro.bench.runner import BenchScale
from repro.datasets import fixtures as dataset_fixtures

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

FAMILY_ENGINES = ("pointwise", "array", "array-parallel", "auto")


def pytest_addoption(parser):
    parser.addoption(
        "--engine",
        choices=FAMILY_ENGINES,
        default=None,
        help=(
            "Execution engine for the join-family sweeps (fig10-12): the"
            " pointwise reference oracles or the vectorized operator"
            " pipelines.  Defaults to $REPRO_FAMILY_ENGINE, else 'array'."
        ),
    )


@pytest.fixture(scope="session")
def family_engine(request) -> str:
    """Engine the resemblance sweeps run their join families on."""
    opt = request.config.getoption("--engine")
    if opt is None:
        opt = os.environ.get("REPRO_FAMILY_ENGINE", "array")
    if opt not in FAMILY_ENGINES:
        raise pytest.UsageError(
            f"REPRO_FAMILY_ENGINE={opt!r} not in {FAMILY_ENGINES}"
        )
    return opt


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text + "\n")
    print(f"\n{text}")


def report_row(report) -> list:
    """The standard per-algorithm columns used across benches."""
    return [
        report.algorithm,
        report.result_count,
        report.candidate_count,
        report.node_accesses,
        report.page_faults,
        f"{report.io_seconds:.2f}",
        f"{report.modeled_cpu_seconds:.2f}",
        f"{report.modeled_total_seconds:.2f}",
        f"{report.cpu_seconds:.2f}",
    ]


REPORT_HEADERS = [
    "algo",
    "results",
    "candidates",
    "node_acc",
    "faults",
    "io(s)",
    "cpu(s)",
    "total(s)",
    "wall(s)",
]


@pytest.fixture(scope="session", autouse=True)
def _hermetic_calibration(tmp_path_factory):
    """Session-private calibration store, as in the test suite's
    conftest: benches must neither pollute ``~/.cache`` nor have their
    planner assertions depend on the machine's calibration history."""
    path = str(tmp_path_factory.mktemp("calibration"))
    old = os.environ.get("REPRO_CALIBRATION_DIR")
    os.environ["REPRO_CALIBRATION_DIR"] = path
    yield
    if old is None:
        os.environ.pop("REPRO_CALIBRATION_DIR", None)
    else:
        os.environ["REPRO_CALIBRATION_DIR"] = old


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    """Session-wide scaling configuration."""
    return BenchScale()


@pytest.fixture(scope="session")
def datasets() -> "type[dataset_fixtures]":
    """The seeded dataset builders shared with the test suite
    (:mod:`repro.datasets.fixtures`): ``uniform_pair``,
    ``clustered_pair``, degenerate families, ``equivalence_families``.
    """
    return dataset_fixtures
