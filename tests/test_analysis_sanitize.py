"""Communication sanitizer: checkers, planted fixtures, CLI, identity.

Four layers: (a) checker units over hand-built event streams, (b) the
planted-bug fixtures detected end to end through the real runtimes with
rank/primitive/source-location detail, (c) CLI exit codes, and (d) the
argument is the only switch — no environment variable instruments a
session.

``checked`` (``tests/conftest.py``) is ``check_experiment`` memoised per
module, so each experiment and fixture runs once for the library-level
assertions below.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    PLANTED,
    check_collectives,
    check_experiment,
    check_lock_order,
    check_traces,
    checkable,
)
from repro.analysis.cli import main as cli_main
from repro.core.experiment import _ensure_registry
from repro.errors import AnalysisError
from repro.platform import ScenarioSpec
from repro.sim.trace import Trace, TraceEvent


def coll(t, proc, pid, op, comm="mpi:ctx0", parties=2, **extra):
    detail = {"op": op, "comm": comm, "pid": pid, "parties": parties, **extra}
    return TraceEvent(t, proc, "coll.enter", detail)


def lock(t, proc, pid, op, name, site=None):
    detail = {"lock": name, "pid": pid}
    if site is not None:
        detail["site"] = site
    return TraceEvent(t, proc, f"lock.{op}", detail)


# ---------------------------------------------------------------------------
# collective matching on hand-built streams
# ---------------------------------------------------------------------------


def test_matching_sequences_are_clean():
    events = [
        coll(1.0, "r0", 0, "bcast", root=0),
        coll(1.0, "r1", 1, "bcast", root=0),
        coll(2.0, "r0", 0, "allreduce", dtype="scalar"),
        coll(2.0, "r1", 1, "allreduce", dtype="scalar"),
    ]
    report = check_collectives(events)
    assert report.clean, report.describe()
    assert report.collectives == 4
    assert report.comms == 1


def test_mismatched_ops_flagged_once_per_pair():
    # after the sequences diverge in kind, index-wise comparison of the
    # remainder is meaningless — exactly one violation for the pair
    events = [
        coll(1.0, "r0", 0, "bcast", root=0),
        coll(1.0, "r1", 1, "gather", root=0),
        coll(2.0, "r0", 0, "allreduce"),
        coll(2.0, "r1", 1, "barrier"),
    ]
    report = check_collectives(events)
    assert len(report.violations) == 1
    msg = report.violations[0].describe()
    assert "[collective]" in msg
    assert "mismatched collective operations" in msg
    assert "bcast" in msg and "gather" in msg


def test_root_mismatch_names_both_ranks():
    events = [
        coll(1.0, "r0", 0, "reduce", root=0, dtype="scalar"),
        coll(1.0, "r1", 1, "reduce", root=1, dtype="scalar"),
    ]
    report = check_collectives(events)
    assert len(report.violations) == 1
    msg = report.violations[0].message
    assert "root mismatch" in msg
    assert "root 0" in msg and "root 1" in msg


def test_missing_root_on_one_side_is_not_compared():
    # non-rooted collectives record no root; None never mismatches
    events = [
        coll(1.0, "r0", 0, "reduce", root=0),
        coll(1.0, "r1", 1, "reduce"),
    ]
    assert check_collectives(events).clean


def test_dtype_and_party_count_mismatches():
    events = [
        coll(1.0, "r0", 0, "allreduce", dtype="ndarray[float64]"),
        coll(1.0, "r1", 1, "allreduce", dtype="ndarray[float32]"),
        coll(2.0, "r0", 0, "scan", parties=2),
        coll(2.0, "r1", 1, "scan", parties=3),
    ]
    report = check_collectives(events)
    kinds = [v.message.split(" ", 2)[:2] for v in report.violations]
    joined = " | ".join(v.message for v in report.violations)
    assert len(report.violations) == 2, joined
    assert "datatype mismatch" in joined
    assert "party-count mismatch" in joined
    assert kinds  # stable, index-ordered reporting


def test_truncated_sequences_do_not_double_count():
    # a deadlocked rank stops early; the deadlock is reported separately,
    # so the shorter sequence alone is not a collective violation
    events = [
        coll(1.0, "r0", 0, "bcast", root=0),
        coll(1.0, "r1", 1, "bcast", root=0),
        coll(2.0, "r0", 0, "allreduce"),
    ]
    assert check_collectives(events).clean


def test_barrier_generation_drift():
    events = [
        coll(1.0, "p0", 0, "barrier", comm="barrier:b#0", parties=3),
        coll(1.0, "p1", 1, "barrier", comm="barrier:b#0", parties=3),
        coll(1.0, "p2", 2, "barrier", comm="barrier:b#0", parties=3),
        coll(2.0, "p0", 0, "barrier", comm="barrier:b#0", parties=3),
        coll(2.0, "p1", 1, "barrier", comm="barrier:b#0", parties=3),
    ]
    report = check_collectives(events)
    assert len(report.violations) == 1
    msg = report.violations[0].message
    assert "party-count drift" in msg
    assert "2 entrants" in msg
    assert "p0 (pid 0)" in msg and "p1 (pid 1)" in msg
    # complete generations are clean
    assert check_collectives(events[:3]).clean


def test_malformed_coll_event_raises():
    bad = TraceEvent(1.0, "r0", "coll.enter", {"op": "bcast"})
    with pytest.raises(AnalysisError, match="comm"):
        check_collectives([bad])


# ---------------------------------------------------------------------------
# lock-order analysis on hand-built streams
# ---------------------------------------------------------------------------


def test_consistent_lock_order_is_clean():
    events = [
        lock(1.0, "p0", 0, "acquire", "A"),
        lock(1.1, "p0", 0, "acquire", "B"),
        lock(1.2, "p0", 0, "release", "B"),
        lock(1.3, "p0", 0, "release", "A"),
        lock(2.0, "p1", 1, "acquire", "A"),
        lock(2.1, "p1", 1, "acquire", "B"),
        lock(2.2, "p1", 1, "release", "B"),
        lock(2.3, "p1", 1, "release", "A"),
    ]
    report = check_lock_order(events)
    assert report.clean
    assert report.lock_events == 8
    assert report.locks == 2


def test_abba_inversion_is_potential_not_manifested():
    # the two critical sections never overlap in time — the checker must
    # still flag the unsafe acquisition order
    events = [
        lock(1.0, "p0", 0, "acquire", "A", site="x.py:1"),
        lock(1.1, "p0", 0, "acquire", "B", site="x.py:2"),
        lock(1.2, "p0", 0, "release", "B"),
        lock(1.3, "p0", 0, "release", "A"),
        lock(9.0, "p1", 1, "acquire", "B", site="y.py:1"),
        lock(9.1, "p1", 1, "acquire", "A", site="y.py:2"),
        lock(9.2, "p1", 1, "release", "A"),
        lock(9.3, "p1", 1, "release", "B"),
    ]
    report = check_lock_order(events)
    assert len(report.violations) == 1
    msg = report.violations[0].describe()
    assert "[lock-order]" in msg
    assert "ABBA" in msg
    assert "x.py:2" in msg and "y.py:2" in msg
    assert "no single run need manifest" in msg


def test_release_breaks_the_held_chain():
    events = [
        lock(1.0, "p0", 0, "acquire", "A"),
        lock(1.1, "p0", 0, "release", "A"),
        lock(1.2, "p0", 0, "acquire", "B"),
        lock(1.3, "p0", 0, "release", "B"),
        lock(2.0, "p1", 1, "acquire", "B"),
        lock(2.1, "p1", 1, "acquire", "A"),
        lock(2.2, "p1", 1, "release", "A"),
        lock(2.3, "p1", 1, "release", "B"),
    ]
    # p0 never held A across the B acquisition: only the B->A edge exists
    assert check_lock_order(events).clean


def test_three_lock_cycle_reported_once():
    events = [
        lock(1.0, "p0", 0, "acquire", "A"),
        lock(1.1, "p0", 0, "acquire", "B"),
        lock(1.2, "p0", 0, "release", "B"),
        lock(1.3, "p0", 0, "release", "A"),
        lock(2.0, "p1", 1, "acquire", "B"),
        lock(2.1, "p1", 1, "acquire", "C"),
        lock(2.2, "p1", 1, "release", "C"),
        lock(2.3, "p1", 1, "release", "B"),
        lock(3.0, "p2", 2, "acquire", "C"),
        lock(3.1, "p2", 2, "acquire", "A"),
        lock(3.2, "p2", 2, "release", "A"),
        lock(3.3, "p2", 2, "release", "C"),
    ]
    report = check_lock_order(events)
    assert len(report.violations) == 1
    assert "A -> B -> C -> A" in report.violations[0].message


def test_malformed_lock_event_raises():
    bad = TraceEvent(1.0, "p0", "lock.acquire", {"lock": "A"})
    with pytest.raises(AnalysisError, match="pid"):
        check_lock_order([bad])


def test_check_traces_merges_and_folds_deadlocks():
    t = Trace(hb=True)

    class FakeProc:
        pid, clock, name, vc = 0, 1.0, "p0", None

    t.coll(FakeProc(), "barrier", "barrier:b#0", parties=2)
    report = check_traces([t], deadlocks=["deadlock: the cycle"])
    assert report.deadlocks == 1
    assert any(v.checker == "deadlock" and "the cycle" in v.message
               for v in report.violations)
    # the incomplete barrier generation is also flagged from the same run
    assert any(v.checker == "collective" for v in report.violations)


def test_coll_is_noop_without_hb():
    t = Trace(hb=False)

    class FakeProc:
        pid, clock, name = 0, 1.0, "p0"

    t.coll(FakeProc(), "barrier", "barrier:b#0", parties=2)
    assert t.events == []


# ---------------------------------------------------------------------------
# planted-bug fixtures, end to end through the real runtimes
# ---------------------------------------------------------------------------


def test_planted_root_mismatch_detected(checked):
    report = checked("planted-root").sanitize
    assert not report.clean
    roots = [v for v in report.violations
             if v.checker == "collective" and "root mismatch" in v.message]
    assert roots, report.describe()
    msg = roots[0].message
    assert "reduce" in msg
    assert "repro/analysis/scenarios.py" in msg       # call site
    # the wedged run is independently diagnosed with the actual cycle
    cycle = [v for v in report.violations if v.checker == "deadlock"]
    assert cycle and "wait-for cycle" in cycle[0].message
    assert "mpi:rank0" in cycle[0].message


def test_planted_barrier_drift_detected(checked):
    report = checked("planted-barrier").sanitize
    drift = [v for v in report.violations
             if "party-count drift" in v.message]
    assert drift, report.describe()
    msg = drift[0].message
    assert "barrier:planted#0" in msg
    assert "declared 4 parties" in msg and "3 entrants" in msg
    assert "party0 (pid 0)" in msg
    assert "repro/analysis/scenarios.py" in msg


def test_planted_sendsend_cycle_detected_before_wedging(checked):
    report = checked("planted-sendsend").sanitize
    dead = [v for v in report.violations if v.checker == "deadlock"]
    assert dead, report.describe()
    msg = dead[0].message
    assert "send/send cycle" in msg
    assert "rank 0" in msg and "rank 1" in msg
    assert "eager" in msg                              # names the threshold
    assert "sendrecv" in msg                           # suggests the fix
    assert "repro/analysis/scenarios.py" in msg        # blames the call site


def test_planted_abba_detected_despite_clean_completion(checked):
    report = checked("planted-abba").sanitize
    # the fixture's interleaving completes without deadlocking ...
    assert report.deadlocks == 0
    # ... yet the order graph has the cycle
    inversions = [v for v in report.violations if v.checker == "lock-order"]
    assert inversions, report.describe()
    msg = inversions[0].message
    assert "A -> B -> A" in msg
    assert "repro/analysis/scenarios.py" in msg


def test_figure_scenarios_are_clean(checked):
    report = checked("fig3").sanitize
    assert report.clean, report.describe()
    assert report.collectives > 0       # real collective traffic examined
    report = checked("table2").sanitize
    assert report.clean, report.describe()
    assert report.collectives > 0


@pytest.mark.parametrize(
    "exp_id", [i for i in _ensure_registry() if checkable(i)])
def test_every_traceable_experiment_sanitizes_clean(exp_id, checked):
    report = checked(exp_id).sanitize
    assert report.clean, report.describe()


def test_unknown_scenario_raises():
    with pytest.raises(AnalysisError, match="table1"):
        check_experiment("table1")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_exit_codes(capsys):
    assert cli_main(["check", "fig3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "no races" in out and "no violations" in out
    assert cli_main(["check", "planted-abba", "--quick"]) == 1
    assert "ABBA" in capsys.readouterr().out
    assert cli_main(["check", "no-such-experiment"]) == 2
    assert "error:" in capsys.readouterr().err


#: fixture id -> the rank / primitive / call-site detail its report names
PLANTED_DETAIL = {
    "planted-root": ("root mismatch", "reduce", "mpi:rank0"),
    "planted-barrier": ("party-count drift", "party0 (pid 0)"),
    "planted-sendsend": ("send/send cycle", "rank 0", "rank 1", "sendrecv"),
    "planted-abba": ("lock-order", "A -> B -> A"),
}


@pytest.mark.parametrize("fixture", list(PLANTED))
def test_cli_planted_fixtures_exit_1(fixture, capsys):
    assert cli_main(["check", fixture, "--quick"]) == 1
    out = capsys.readouterr().out
    assert "violation" in out
    assert "repro/analysis/scenarios.py" in out
    for detail in PLANTED_DETAIL[fixture]:
        assert detail in out


def test_cli_race_exit_codes(capsys):
    assert cli_main(["check", "fig4", "--quick"]) == 0
    assert "no races" in capsys.readouterr().out
    assert cli_main(["check", "table3", "--quick"]) == 2
    assert "provisioned no session" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["race", "sanitize"])
def test_cli_replaced_subcommands_are_usage_errors(command, capsys):
    assert cli_main([command, "fig3"]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "invalid choice" in err


def test_cli_json_format(capsys):
    assert cli_main(["check", "planted-barrier", "--quick",
                     "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["races", "sanitize"]
    assert doc["races"] == {"accesses": 0, "locations": 0, "races": []}
    assert doc["sanitize"]["deadlocks"] >= 1
    assert any("party-count drift" in v["message"]
               for v in doc["sanitize"]["violations"])


# ---------------------------------------------------------------------------
# the argument is the only switch
# ---------------------------------------------------------------------------


def test_repro_sanitize_env_is_inert(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert ScenarioSpec(nodes=1, procs_per_node=2).session().trace is None
