"""Suite-wide fixtures.

The artifact cache (``repro.cache``) is disabled for every test via its
``REPRO_NO_CACHE`` kill switch: the CLI caches by default, and a test run
must never read results from — or leak entries into — a developer's
``.repro-cache/``.  Cache tests (``tests/test_cache.py``) opt back in by
deleting the variable and pointing an explicit store at ``tmp_path``.
"""

import threading
from functools import cache

import pytest

from repro.cluster import MachineSpec
from repro.cluster.spec import TESTING
from repro.sim.trace import Trace

#: the tiny test hardware as a machine: stock costs, InfiniBand routing
TESTING_MACHINE = MachineSpec("testing", "tiny unit-test cluster",
                              cluster=TESTING)


_traced = False


def pytest_addoption(parser):
    parser.addoption("--traced", action="store_true",
                     help="give the bare clusters of the MPI/SHMEM modules "
                          "an hb-mode trace (see forced_trace)")


def pytest_configure(config):
    global _traced
    _traced = config.getoption("--traced")


def forced_trace() -> Trace | None:
    """An hb-mode trace under ``pytest --traced``, else ``None``.

    The MPI/SHMEM/RMA modules build bare clusters, which no
    ``ScenarioSpec(hb=True)`` reaches; passing this as
    ``Cluster(..., trace=forced_trace())`` lets CI re-run them with the
    vector-clock branches of the message and symmetric-heap paths live.
    """
    return Trace(hb=True) if _traced else None


@pytest.fixture(autouse=True)
def _no_artifact_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


@pytest.fixture(scope="module")
def checked():
    """``check_experiment(exp_id, quick=True)``, run once per id per module."""
    from repro.analysis import check_experiment

    return cache(lambda exp_id: check_experiment(exp_id, quick=True))


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the OS threads started during the test."""
    names = []
    real = threading.Thread.start

    def counting(self):
        names.append(self.name)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return names
