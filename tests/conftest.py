"""Suite-wide fixtures.

The artifact cache (``repro.cache``) is disabled for every test via its
``REPRO_NO_CACHE`` kill switch: the CLI caches by default, and a test run
must never read results from — or leak entries into — a developer's
``.repro-cache/``.  Cache tests (``tests/test_cache.py``) opt back in by
deleting the variable and pointing an explicit store at ``tmp_path``.
"""

import pytest

from repro.cluster import MachineSpec
from repro.cluster.spec import TESTING
from repro.platform.scenario import sanitize_forced
from repro.sim.trace import Trace

#: the tiny test hardware as a machine: stock costs, InfiniBand routing
TESTING_MACHINE = MachineSpec("testing", "tiny unit-test cluster",
                              cluster=TESTING)


def forced_trace() -> Trace | None:
    """An hb-mode trace when ``REPRO_SANITIZE=1``, else ``None``.

    The MPI/SHMEM/RMA modules build bare clusters, which the hatch does
    not reach; passing this as ``Cluster(..., trace=forced_trace())`` lets
    CI re-run them with the vector-clock branches of the message and
    symmetric-heap paths live.
    """
    return Trace(hb=True) if sanitize_forced() else None


@pytest.fixture(autouse=True)
def _no_artifact_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
