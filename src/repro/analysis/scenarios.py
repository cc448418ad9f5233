"""What the dynamic analysers run: the registered experiments themselves.

``python -m repro analyze check <id> [--quick]`` calls
:func:`check_experiment`, which runs ``run_experiment(id, quick=...)`` —
the same call ``python -m repro run`` makes, ``--quick`` meaning the
registry's ``quick_params`` — **once**, inside
:func:`repro.platform.collect_traces`, which turns hb instrumentation on
for every session the experiment provisions and hands back their traces.
Each trace (one session = one engine = one pid space, so races across
sessions cannot exist by construction) goes through all four checkers:
:func:`repro.analysis.races.check_trace` for data races and
:func:`repro.analysis.sanitize.check_traces` for collective matching,
lock order and the engine's deadlock diagnosis.  The :class:`CheckReport`
is therefore a statement about the run the figure reports, not about a
stand-in.

An experiment that provisions no session (``table1`` and ``table3`` are
host-side computations) has nothing to check — :func:`checkable` reports
that per experiment for ``python -m repro list --json``.

The only hand-written scenarios are the four ``planted-*`` fixtures:
deliberate bugs proving each sanitizer checker still bites.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.analysis.races import RaceReport, check_trace
from repro.analysis.sanitize import SanitizeReport, check_traces
from repro.errors import AnalysisError, DeadlockError
from repro.platform import ScenarioSpec, collect_traces
from repro.units import KiB

__all__ = ["PLANTED", "CheckReport", "check_experiment", "checkable"]

#: registered experiments that provision no session (host-side computations)
_HOST_SIDE = frozenset({"table1", "table3"})


def _planted_root() -> None:
    """Planted bug: ranks disagree on the reduce root (MUST classic).

    Every rank names itself-mod-2 as the root, so the binomial trees
    interlock: each rank's first protocol step is a receive, and the job
    wedges.  The collective checker flags the root mismatch from the
    entry events; the engine reports the wait-for cycle.
    """
    s = ScenarioSpec(nodes=1, procs_per_node=4).session()

    def main(comm):
        return comm.reduce(comm.rank, root=comm.rank % 2)

    s.mpi(main)


def _planted_barrier() -> None:
    """Planted bug: a barrier declared for 4 parties gets only 3 entrants."""
    from repro.sim.engine import current_process
    from repro.sim.sync import SimBarrier

    s = ScenarioSpec(nodes=1, procs_per_node=4).session()
    bar = SimBarrier(4, name="planted")

    def party() -> None:
        bar.wait(current_process())

    for i in range(3):
        s.cluster.spawn(party, node_id=0, name=f"party{i}")
    s.cluster.run()


def _planted_sendsend() -> None:
    """Planted bug: two blocking large sends at each other (rendezvous trap).

    Both payloads exceed the eager threshold, so each send waits for a
    clear-to-send only its peer could grant.  The p2p-layer detector
    diagnoses the cycle before the engine has to."""
    s = ScenarioSpec(nodes=1, procs_per_node=2).session()
    payload = b"x" * (64 * KiB)

    def main(comm):
        other = 1 - comm.rank
        comm.send(payload, other)
        return comm.recv(other)

    s.mpi(main)


def _planted_abba() -> None:
    """Planted bug: ABBA lock order that happens not to deadlock this run.

    The second process starts after the first released both locks, so the
    run completes — only the lock-*order* analysis can catch the latent
    inversion."""
    from repro.sim.engine import current_process
    from repro.sim.sync import SimLock

    s = ScenarioSpec(nodes=1, procs_per_node=2).session()
    lock_a = SimLock("A")
    lock_b = SimLock("B")

    def first() -> None:
        proc = current_process()
        lock_a.acquire(proc)
        lock_b.acquire(proc)
        lock_b.release(proc)
        lock_a.release(proc)

    def second() -> None:
        proc = current_process()
        proc.compute(1.0)  # disjoint in virtual time: never actually wedges
        lock_b.acquire(proc)
        lock_a.acquire(proc)
        lock_a.release(proc)
        lock_b.release(proc)

    s.cluster.spawn(first, node_id=0, name="abba0")
    s.cluster.spawn(second, node_id=0, name="abba1")
    s.cluster.run()


#: planted-bug fixture id -> its run (three of them wedge by design and
#: raise :class:`~repro.errors.DeadlockError`; their partial traces are
#: still checked)
PLANTED: dict[str, Callable[[], None]] = {
    "planted-root": _planted_root,
    "planted-barrier": _planted_barrier,
    "planted-sendsend": _planted_sendsend,
    "planted-abba": _planted_abba,
}


@dataclass
class CheckReport:
    """What one instrumented run showed: data races and comm violations."""

    races: RaceReport
    sanitize: SanitizeReport

    @property
    def clean(self) -> bool:
        return self.races.clean and self.sanitize.clean

    def describe(self) -> str:
        return f"{self.races.describe()}\n{self.sanitize.describe()}"

    def to_dict(self) -> dict[str, Any]:
        return {"races": self.races.to_dict(),
                "sanitize": self.sanitize.to_dict()}


def check_experiment(exp_id: str, *, quick: bool = False) -> CheckReport:
    """Run one experiment (or planted fixture) once, traced, and check it.

    Every session's trace is race-checked on its own (``locations`` sums
    the per-session distinct location counts) and sanitized; a run that
    wedges still yields its partial traces, and its
    :class:`~repro.errors.DeadlockError` diagnosis becomes a
    ``"deadlock"`` violation.
    """
    from repro.core.experiment import get_experiment, run_experiment

    run = PLANTED.get(exp_id)
    if run is None:
        try:
            get_experiment(exp_id)
        except KeyError as exc:
            raise AnalysisError(exc.args[0]) from None
        run = partial(run_experiment, exp_id, quick=quick)

    deadlocks = []
    with collect_traces() as traces:
        try:
            run()
        except DeadlockError as exc:
            deadlocks.append(str(exc))
    if not traces:
        raise AnalysisError(
            f"{exp_id!r} provisioned no session, so there is no trace to "
            "check (host-side experiments like table1/table3 run no "
            "simulated processes)")
    races = RaceReport()
    for trace in traces:
        report = check_trace(trace)
        races.races.extend(report.races)
        races.accesses += report.accesses
        races.locations += report.locations
    return CheckReport(races, check_traces(traces, deadlocks=deadlocks))


def checkable(exp_id: str) -> bool:
    """Whether ``python -m repro analyze check <id>`` has a trace to read.

    True for a registered experiment that provisions a session; host-side
    experiments and unregistered ids have nothing to check.
    """
    from repro.core.experiment import _ensure_registry

    return exp_id in _ensure_registry() and exp_id not in _HOST_SIDE
