"""Race checks of the registered experiments' own runs.

Five invariants: (a) every experiment that provisions a session is race
free, and the ones with shared-state traffic show it, (b) collecting the
traces never changes a result (observational only) and leaves nothing
armed behind, (c) host-side and unknown ids are typed errors, (d) an
actually-unsynchronized SHMEM program — two PEs putting to one copy with
no ordering — is caught end to end through the same pipeline, and (e)
``check_experiment`` runs the experiment exactly once and reports what the
separate race and sanitize entry points it replaced reported.

``checked`` (``tests/conftest.py``) is ``check_experiment`` memoised per
module, so each experiment runs once for all the assertions below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import check_experiment, check_trace, checkable
from repro.core.experiment import Experiment, _ensure_registry, run_experiment
from repro.errors import AnalysisError
from repro.platform import ScenarioSpec, collect_traces, fingerprint_result
from repro.sim.engine import current_process

#: every registered experiment that provisions a session
TRACEABLE = [i for i in _ensure_registry() if checkable(i)]


def test_fig3_quick_scenario_is_clean_with_traffic(checked):
    # the real fig3 (MPI + two Spark reduces) touches no shared location;
    # traffic is asserted on fig4/fig8 below
    report = checked("fig3").races
    assert report.clean, report.describe()


@pytest.mark.parametrize("exp_id", TRACEABLE)
def test_every_traceable_experiment_is_race_free(exp_id, checked):
    report = checked(exp_id).races
    assert report.clean, report.describe()


@pytest.mark.parametrize("exp_id", ["fig4", "fig8"])
def test_real_runs_have_shared_state_traffic(exp_id, checked):
    # fig4: Spark block store + Hadoop spills; fig8 adds the OpenSHMEM
    # symmetric heap — a vacuous "no races" would have zero accesses
    report = checked(exp_id).races
    assert report.accesses > 0
    assert report.locations > 0


@pytest.mark.parametrize("exp_id", list(_ensure_registry()))
def test_collection_is_observational(exp_id):
    with collect_traces() as traces:
        collected = run_experiment(exp_id, quick=True)
    # exactly the experiments `list --json` calls checkable provision
    # sessions, and every collected trace is an hb trace
    assert bool(traces) == checkable(exp_id)
    assert all(t is not None and t.hb for t in traces)
    # and counts beside its events (each session parks a thread at least
    # once), which must not move a fingerprint either
    assert all(t.counters for t in traces)
    plain = run_experiment(exp_id, quick=True)
    assert fingerprint_result(collected) == fingerprint_result(plain)


@pytest.mark.parametrize(
    "exp_id", ["fig4", "fig6", "fig7", "fig8", "extra-mapreduce"])
def test_equal_specs_give_equal_traces(exp_id):
    # shuffle / stage / broadcast ids are per SparkContext, not per process:
    # a second run in the same interpreter names the same locations
    def events():
        with collect_traces() as traces:
            run_experiment(exp_id, quick=True)
        return [(ev.time, ev.proc, ev.kind, ev.detail)
                for trace in traces for ev in trace.events]

    assert events() == events()


def test_unknown_scenario_raises():
    with pytest.raises(AnalysisError, match="table1"):
        check_experiment("table1")


@pytest.mark.parametrize("exp_id", ["table3", "fig5"])
def test_host_side_and_unregistered_ids_raise(exp_id):
    with pytest.raises(AnalysisError, match=exp_id):
        check_experiment(exp_id, quick=True)


def test_capabilities_flags():
    assert not checkable("table1")
    assert checkable("fig3")
    # not a registered experiment: nothing to run, so nothing to check
    assert not checkable("fig5")
    assert len(TRACEABLE) == len(_ensure_registry()) - 2 == 14


#: what the separate race and sanitize entry points returned at quick size
#: on the commit before `check_experiment` replaced them
REPLACED_ENTRY_POINTS = {
    "fig4": {
        "races": {"accesses": 2678, "locations": 77, "races": []},
        "sanitize": {"collectives": 192, "comms": 2, "deadlocks": 0,
                     "lock_events": 0, "locks": 0, "violations": []}},
    "fig8": {
        "races": {"accesses": 1552, "locations": 620, "races": []},
        "sanitize": {"collectives": 330, "comms": 6, "deadlocks": 0,
                     "lock_events": 0, "locks": 0, "violations": []}},
    "table2": {
        "races": {"accesses": 59, "locations": 5, "races": []},
        "sanitize": {"collectives": 112, "comms": 1, "deadlocks": 0,
                     "lock_events": 0, "locks": 0, "violations": []}},
}


@pytest.mark.parametrize("exp_id", list(REPLACED_ENTRY_POINTS))
def test_check_runs_the_experiment_once(exp_id, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return run_experiment(*args, **kwargs)

    monkeypatch.setattr("repro.core.experiment.run_experiment", spy)
    report = check_experiment(exp_id, quick=True)
    assert calls == [((exp_id,), {"quick": True})]
    assert report.clean
    assert report.to_dict() == REPLACED_ENTRY_POINTS[exp_id]


def test_collector_is_disarmed_after_an_experiment_raises(monkeypatch):
    def pids():
        session = ScenarioSpec(nodes=1, procs_per_node=2).session()
        assert session.trace is None
        return session.mpi(lambda comm: current_process().pid).returns

    def boom():
        ScenarioSpec(nodes=1, procs_per_node=2).session()
        raise RuntimeError("boom")

    before = pids()
    monkeypatch.setitem(_ensure_registry(), "boom",
                        Experiment("boom", "raises mid-run", boom, {}))
    with pytest.raises(RuntimeError, match="boom"):
        check_experiment("boom")
    # nothing stays armed: the next session is untraced, same pid sequence
    assert pids() == before


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
