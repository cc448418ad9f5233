"""Communication sanitizer: collective matching, lock order, deadlocks.

The race checker (:mod:`repro.analysis.races`) covers shared *memory*; this
module covers shared *communication structure*, with three cooperating
observational checkers over ``hb=True`` traces:

* **Collective matching** (:func:`check_collectives`) — MUST-style
  verification that all ranks of a communicator issue the same collective
  sequence with compatible arguments.  The MPI and SHMEM collectives and
  :class:`~repro.sim.sync.SimBarrier` record per-rank ``coll.enter`` events
  (op, communicator identity, party count, root/datatype where the matching
  contract constrains them); the checker compares each rank's sequence
  against a reference rank and flags mismatched operations, wrong roots,
  datatype divergence and barrier party-count drift.

* **Lock-order analysis** (:func:`check_lock_order`) — builds a
  lock-acquisition-order graph from ``lock.acquire``/``lock.release``
  events and reports *potential* inversions: a cycle in the order graph
  (the classic ABBA pattern) is flagged even when the interleaving that
  would manifest the deadlock never executed.

* **Deadlock diagnosis** — the engine side lives in
  :meth:`repro.sim.engine.Engine._deadlock_message` (wait-for-graph cycle
  reporting) and :mod:`repro.mpi.p2p` (the early send/send-cycle
  detector); :func:`check_traces` folds captured diagnostics into the
  report so one run surfaces all three kinds of finding.

All instrumentation is gated exactly like the race checker's
(``trace.enabled and trace.hb``), so golden fingerprints are byte-identical
with sanitizing on or off.  Run it with
``python -m repro analyze check fig3 --quick``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import AnalysisError
from repro.sim.trace import Trace, TraceEvent, validate_events

__all__ = ["CollEntry", "Violation", "SanitizeReport",
           "check_collectives", "check_lock_order", "check_traces"]


@dataclass(frozen=True)
class CollEntry:
    """One rank's entry into one collective, from a ``coll.enter`` event."""

    proc: str                    #: process name (for reporting)
    pid: int                     #: engine pid
    time: float                  #: virtual time of the entry
    op: str                      #: collective kind (``"reduce"``, ...)
    comm: str                    #: communicator/barrier identity
    parties: int                 #: declared participant count
    root: int | None = None     #: root rank, where the contract has one
    dtype: str | None = None    #: datatype tag, for reduction collectives
    site: str | None = None     #: source location of the call

    def describe(self) -> str:
        extra = "".join(
            f" {k}={v}" for k, v in (("root", self.root),
                                     ("dtype", self.dtype))
            if v is not None)
        at = f" at {self.site}" if self.site else ""
        return (f"{self.op}{extra} by {self.proc} (pid {self.pid}) "
                f"on {self.comm} at t={self.time:.6f}{at}")


@dataclass(frozen=True)
class Violation:
    """One sanitizer finding."""

    checker: str                 #: ``"collective"``/``"lock-order"``/``"deadlock"``
    message: str                 #: full multi-line diagnosis

    def describe(self) -> str:
        return f"[{self.checker}] {self.message}"


@dataclass
class SanitizeReport:
    """Outcome of one sanitize run (mergeable across traces)."""

    violations: list[Violation] = field(default_factory=list)
    collectives: int = 0         #: coll.enter events examined
    comms: int = 0               #: distinct communicators/barriers seen
    lock_events: int = 0         #: lock.* events examined
    locks: int = 0               #: distinct locks seen
    deadlocks: int = 0           #: captured deadlock diagnostics

    @property
    def clean(self) -> bool:
        return not self.violations

    def merge(self, other: "SanitizeReport") -> None:
        self.violations.extend(other.violations)
        self.collectives += other.collectives
        self.comms += other.comms
        self.lock_events += other.lock_events
        self.locks += other.locks
        self.deadlocks += other.deadlocks

    def describe(self) -> str:
        head = (f"sanitize: {self.collectives} collective entries across "
                f"{self.comms} communicators, {self.lock_events} lock events "
                f"on {self.locks} locks, {self.deadlocks} deadlock reports")
        if self.clean:
            return f"{head} — no violations"
        body = "\n".join(v.describe() for v in self.violations)
        n = len(self.violations)
        return f"{head} — {n} violation{'s' if n != 1 else ''}\n{body}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "collectives": self.collectives,
            "comms": self.comms,
            "lock_events": self.lock_events,
            "locks": self.locks,
            "deadlocks": self.deadlocks,
            "violations": [
                {"checker": v.checker, "message": v.message}
                for v in self.violations
            ],
        }


def _events_of(trace: Trace | Iterable[TraceEvent]) -> list[TraceEvent]:
    if isinstance(trace, Trace):
        return trace.events  # already schema-checked at record time
    events = list(trace)
    validate_events(events)
    return events


def _to_coll(ev: TraceEvent) -> CollEntry:
    d = ev.detail
    try:
        op = d["op"]
        comm = d["comm"]
        pid = d["pid"]
        parties = d["parties"]
    except KeyError as exc:
        raise AnalysisError(
            f"coll.enter event at t={ev.time} lacks required detail field "
            f"{exc.args[0]!r} (op/comm/pid/parties); was it recorded "
            "through Trace.coll with hb=True?") from exc
    return CollEntry(
        proc=ev.proc, pid=pid, time=ev.time, op=op, comm=comm,
        parties=parties, root=d.get("root"), dtype=d.get("dtype"),
        site=d.get("site"))


def _check_barrier(comm: str, entries: list[CollEntry],
                   report: SanitizeReport) -> None:
    """Party-count drift: an incomplete barrier generation.

    A correctly used barrier is entered a multiple of ``parties`` times;
    a remainder means some declared party never arrived (dropped party)
    or a stranger joined mid-generation.
    """
    parties = entries[0].parties
    leftover = len(entries) % parties
    if leftover == 0:
        return
    tail = entries[-leftover:]
    who = ", ".join(f"{e.proc} (pid {e.pid})" for e in tail)
    sites = sorted({e.site for e in tail if e.site})
    at = f"\n  entered at: {', '.join(sites)}" if sites else ""
    report.violations.append(Violation(
        "collective",
        f"barrier party-count drift on {comm}: declared {parties} parties "
        f"but the last generation saw only {leftover} entrant"
        f"{'s' if leftover != 1 else ''}: {who}{at}"))


def _check_sequences(comm: str, by_pid: dict[int, list[CollEntry]],
                     report: SanitizeReport) -> None:
    """Index-wise sequence comparison against the lowest-pid rank.

    Sequences are compared only up to the shorter length — a deadlocked
    run truncates some ranks' sequences, and the deadlock is reported
    separately; flagging the count difference too would double-count.
    """
    ref_pid = min(by_pid)
    ref = by_pid[ref_pid]
    for pid in sorted(by_pid):
        if pid == ref_pid:
            continue
        seq = by_pid[pid]
        for i in range(min(len(ref), len(seq))):
            a, b = ref[i], seq[i]
            if a.op != b.op:
                report.violations.append(Violation(
                    "collective",
                    f"mismatched collective operations on {comm} "
                    f"(call #{i}):\n  {a.describe()}\n  {b.describe()}"))
                break  # later entries of this pair are out of step
            if a.parties != b.parties:
                report.violations.append(Violation(
                    "collective",
                    f"party-count mismatch on {comm} (call #{i}, "
                    f"{a.op}):\n  {a.describe()}\n  {b.describe()}"))
            if a.root is not None and b.root is not None and a.root != b.root:
                report.violations.append(Violation(
                    "collective",
                    f"root mismatch on {comm} (call #{i}, {a.op}): "
                    f"rank of pid {a.pid} used root {a.root}, rank of pid "
                    f"{b.pid} used root {b.root}\n"
                    f"  {a.describe()}\n  {b.describe()}"))
            if a.dtype is not None and b.dtype is not None \
                    and a.dtype != b.dtype:
                report.violations.append(Violation(
                    "collective",
                    f"datatype mismatch on {comm} (call #{i}, {a.op}): "
                    f"{a.dtype} vs {b.dtype}\n"
                    f"  {a.describe()}\n  {b.describe()}"))


def check_collectives(trace: Trace | Iterable[TraceEvent]) -> SanitizeReport:
    """MUST-style collective matching over one trace's ``coll.enter`` events.

    Barrier identities (comm prefix ``"barrier:"``) get the party-drift
    check; communicator identities get the per-rank sequence comparison.
    """
    report = SanitizeReport()
    groups: dict[str, dict[int, list[CollEntry]]] = {}
    order: list[str] = []
    for ev in _events_of(trace):
        if ev.kind != "coll.enter":
            continue
        entry = _to_coll(ev)
        report.collectives += 1
        if entry.comm not in groups:
            order.append(entry.comm)
        groups.setdefault(entry.comm, {}).setdefault(
            entry.pid, []).append(entry)
    report.comms = len(groups)
    for comm in order:
        by_pid = groups[comm]
        if comm.startswith("barrier:"):
            flat = sorted(
                (e for seq in by_pid.values() for e in seq),
                key=lambda e: (e.time, e.pid))
            _check_barrier(comm, flat, report)
        else:
            _check_sequences(comm, by_pid, report)
    return report


def check_lock_order(trace: Trace | Iterable[TraceEvent]) -> SanitizeReport:
    """Potential-deadlock detection over the lock-acquisition-order graph.

    Replays ``lock.acquire``/``lock.release`` per process, adding an edge
    ``H -> L`` whenever a process acquires ``L`` while holding ``H``.  A
    cycle in this graph is an ABBA inversion: some interleaving of the
    participants deadlocks, whether or not this run hit it.
    """
    report = SanitizeReport()
    held: dict[int, list[str]] = {}
    #: (held, acquired) -> first witness entry
    edges: dict[tuple[str, str], dict[str, Any]] = {}
    lock_names: set[str] = set()
    for ev in _events_of(trace):
        if not ev.kind.startswith("lock."):
            continue
        d = ev.detail
        try:
            lock = d["lock"]
            pid = d["pid"]
        except KeyError as exc:
            raise AnalysisError(
                f"{ev.kind} event at t={ev.time} lacks required detail "
                f"field {exc.args[0]!r} (lock/pid)") from exc
        report.lock_events += 1
        lock_names.add(lock)
        mine = held.setdefault(pid, [])
        if ev.kind == "lock.acquire":
            for h in mine:
                edges.setdefault((h, lock), {
                    "proc": ev.proc, "pid": pid, "time": ev.time,
                    "site": d.get("site"),
                })
            mine.append(lock)
        elif ev.kind == "lock.release" and lock in mine:
            mine.remove(lock)
    report.locks = len(lock_names)

    adj: dict[str, list[str]] = {}
    for (a, b) in edges:
        adj.setdefault(a, []).append(b)
    for k in adj:
        adj[k].sort()

    seen_cycles: set[frozenset[str]] = set()
    color: dict[str, int] = {}  # absent=white, 1=grey, 2=black

    def visit(name: str, path: list[str]) -> None:
        color[name] = 1
        path.append(name)
        for nxt in adj.get(name, ()):
            if color.get(nxt) == 1:
                cycle = path[path.index(nxt):]
                key = frozenset(cycle)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    report.violations.append(_cycle_violation(cycle, edges))
            elif not color.get(nxt):
                visit(nxt, path)
        path.pop()
        color[name] = 2

    for name in sorted(adj):
        if not color.get(name):
            visit(name, [])
    return report


def _cycle_violation(cycle: list[str],
                     edges: dict[tuple[str, str], dict[str, Any]]) -> Violation:
    lines = ["potential lock-order inversion (ABBA): "
             + " -> ".join(cycle) + f" -> {cycle[0]}"]
    for i, a in enumerate(cycle):
        b = cycle[(i + 1) % len(cycle)]
        w = edges[(a, b)]
        at = f" at {w['site']}" if w.get("site") else ""
        lines.append(
            f"  {w['proc']} (pid {w['pid']}) acquired {b} while holding "
            f"{a} at t={w['time']:.6f}{at}")
    lines.append(
        "  no single run need manifest this deadlock; the acquisition "
        "order itself is unsafe")
    return Violation("lock-order", "\n".join(lines))


def check_traces(traces: Iterable[Trace | Iterable[TraceEvent]], *,
                 deadlocks: Iterable[str] = ()) -> SanitizeReport:
    """Run all checkers over several traces and merge into one report.

    ``deadlocks`` carries :class:`~repro.errors.DeadlockError` diagnostics
    captured while producing the traces (scenario runs that wedge by
    design still yield their partial traces); each becomes a
    ``"deadlock"`` violation verbatim.
    """
    merged = SanitizeReport()
    for trace in traces:
        events = _events_of(trace)
        merged.merge(check_collectives(events))
        merged.merge(check_lock_order(events))
    for diag in deadlocks:
        merged.deadlocks += 1
        merged.violations.append(Violation("deadlock", diag))
    return merged
