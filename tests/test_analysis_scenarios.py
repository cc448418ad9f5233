"""Race scenarios: figure workloads are clean, planted races are not.

Three invariants: (a) the quick scenarios produce real shared-state
traffic and report no races, (b) hb instrumentation never changes app
results (observational only), and (c) an actually-unsynchronized SHMEM
program — two PEs putting to one copy with no ordering — is caught end
to end through the same pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import capabilities, check_trace, run_race_scenario
from repro.errors import AnalysisError
from repro.platform import ScenarioSpec


def test_fig3_quick_scenario_is_clean_with_traffic():
    report = run_race_scenario("fig3", quick=True)
    assert report.clean, report.describe()
    assert report.accesses > 0
    assert report.locations > 0


def test_unknown_scenario_raises():
    with pytest.raises(AnalysisError, match="table1"):
        run_race_scenario("table1")


def test_capabilities_flags():
    assert capabilities("table1") == {
        "trace": False, "race_check": False, "sanitize": False}
    assert capabilities("fig3") == {
        "trace": True, "race_check": True, "sanitize": True}
    # simulated but without a dedicated scenario: traceable, not checkable
    assert capabilities("fig5") == {
        "trace": True, "race_check": False, "sanitize": False}


def test_hb_instrumentation_does_not_change_results():
    from repro.apps import shmem_reduce_latency

    def run(hb: bool):
        session = ScenarioSpec(nodes=2, procs_per_node=2, hb=hb).session()
        return shmem_reduce_latency.run_in(session, [4, 64], 4, 2,
                                           iterations=2)

    assert run(False) == run(True)


# ---------------------------------------------------------------------------
# end-to-end planted race through the real SHMEM runtime
# ---------------------------------------------------------------------------


def shmem_report(fn, npes=3):
    session = ScenarioSpec(nodes=2, procs_per_node=2, hb=True).session()
    session.shmem(fn, npes, pes_per_node=2)
    return check_trace(session.trace)


def test_planted_shmem_race_is_reported_end_to_end():
    # PEs 1 and 2 both put to PE 0's copy at offset 0 with no ordering
    # between them: a write-write race on one element
    def racy(pe):
        sym = pe.alloc(4, dtype=np.float32)
        if pe.my_pe in (1, 2):
            pe.put(sym, float(pe.my_pe), 0, offset=0)

    report = shmem_report(racy)
    assert not report.clean
    assert any("pe0" in race.loc for race in report.races), report.describe()


def test_disjoint_offsets_are_clean():
    def disjoint(pe):
        sym = pe.alloc(4, dtype=np.float32)
        if pe.my_pe in (1, 2):
            pe.put(sym, float(pe.my_pe), 0, offset=pe.my_pe)

    assert shmem_report(disjoint).clean


def test_barrier_separated_puts_are_clean():
    def phased(pe):
        sym = pe.alloc(4, dtype=np.float32)
        if pe.my_pe == 1:
            pe.put(sym, 1.0, 0, offset=0)
        pe.barrier_all()
        if pe.my_pe == 2:
            pe.put(sym, 2.0, 0, offset=0)

    assert shmem_report(phased).clean
