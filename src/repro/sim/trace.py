"""Structured event tracing for simulations.

Traces record *what the simulator did* (message sends, flow start/finish,
task launches ...) with virtual timestamps.  Tests assert on traces to check
mechanisms (e.g. "the binomial broadcast performed exactly ``p-1`` sends");
the benchmark harness can dump them for debugging, and the analysis layer
(:mod:`repro.analysis`) replays them to check for data races.

Event schema
------------

Every event must satisfy the schema enforced by :meth:`Trace.record`:

* ``time`` — a finite, non-negative float (virtual seconds); per process the
  recorded times are monotone non-decreasing (a process's clock never goes
  backwards, so neither may its events);
* ``proc`` — a non-empty string naming the acting process (``"-"`` for
  engine-level events);
* ``kind`` — a non-empty dotted tag like ``"mpi.send"``.

A malformed event raises :class:`~repro.errors.TraceSchemaError` at the
emission site instead of corrupting downstream consumers (the profiler, the
race checker).  :func:`validate_events` applies the same schema to an
externally built event stream.

Happens-before mode
-------------------

``Trace(hb=True)`` additionally enables vector-clock instrumentation in the
engine (see :mod:`repro.sim.process`): runtimes then call :meth:`access` at
shared-state touch points (SHMEM heap puts/gets, Spark block-store and
accumulator updates, Hadoop map-output spills) and each access event carries
a snapshot of the acting process's vector clock.  The race checker in
:mod:`repro.analysis.races` replays these ``mem.read``/``mem.write`` events
and reports unsynchronized conflicting accesses.  With ``hb=False`` (the
default everywhere), :meth:`access` is a no-op and no vector clocks exist,
so golden fingerprints are untouched.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.errors import TraceSchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import SimProcess


def anchored_path(path: str) -> str:
    """Anchor a filesystem path at the ``repro`` package root.

    ``.../src/repro/mpi/p2p.py`` -> ``repro/mpi/p2p.py``; paths outside
    the package keep their basename.  Stable across checkouts and hosts,
    so source locations recorded in traces and diagnostics never leak the
    machine's directory layout.
    """
    parts = path.replace("\\", "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return parts[-1]


def call_site(skip: tuple[str, ...] = ("repro/sim/",),
              proc: "SimProcess | None" = None) -> str:
    """``path:line`` of the nearest caller outside the ``skip`` prefixes.

    Used by the sanitizer's instrumentation points to attribute an event
    (a collective entry, a lock acquisition) to the runtime or user frame
    that issued it, rather than to the primitive's own implementation.
    Frame walking is deterministic — it reads only code-object metadata.

    From a step (``SimProcess.run_steps``) pass the owner as ``proc``: a
    step may run on another process's thread, and then the owner's call
    is on its own thread's stack, where it waits in ``run_steps``.  A
    threadless process's steps are its whole body, all on this stack.
    """
    frame = sys._getframe(1)
    thread = proc._thread if proc is not None else None
    if thread is not None and thread.ident != threading.get_ident():
        frame = sys._current_frames().get(thread.ident)
    while frame is not None:
        path = anchored_path(frame.f_code.co_filename)
        if not path.startswith(skip):
            return f"{path}:{frame.f_lineno}"
        frame = frame.f_back
    return "?"


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``time`` is the virtual time at which the event occurred; ``proc`` is the
    name of the process that performed it (or ``"-"`` for engine-level
    events); ``kind`` is a short dotted tag like ``"mpi.send"``; ``detail``
    carries free-form fields.
    """

    time: float
    proc: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:12.6f}] {self.proc:<20} {self.kind:<18} {kv}"


def _check_event(time: float, proc: str, kind: str,
                 last_time: float | None) -> None:
    """Raise :class:`TraceSchemaError` unless the fields satisfy the schema."""
    if isinstance(time, bool) or not isinstance(time, (int, float)):
        raise TraceSchemaError(
            f"trace event time must be a number, got {time!r}")
    if not math.isfinite(time) or time < 0:
        raise TraceSchemaError(
            f"trace event time must be finite and >= 0, got {time!r}")
    if not isinstance(proc, str) or not proc:
        raise TraceSchemaError(
            f"trace event proc must be a non-empty string, got {proc!r}")
    if not isinstance(kind, str) or not kind:
        raise TraceSchemaError(
            f"trace event kind must be a non-empty string, got {kind!r}")
    if last_time is not None and time < last_time:
        raise TraceSchemaError(
            f"virtual time moved backwards for process {proc!r}: "
            f"{last_time!r} -> {time!r} (event kind {kind!r})")


def validate_events(events: Iterable[TraceEvent]) -> None:
    """Schema-check an externally built event stream.

    Applies the same checks as :meth:`Trace.record` — field types and
    per-process monotone virtual timestamps — raising
    :class:`~repro.errors.TraceSchemaError` on the first malformed event.
    Used by the race checker before replaying hand-built traces.
    """
    last: dict[str, float] = {}
    for ev in events:
        if not isinstance(ev, TraceEvent):
            raise TraceSchemaError(f"not a TraceEvent: {ev!r}")
        _check_event(ev.time, ev.proc, ev.kind, last.get(ev.proc))
        last[ev.proc] = ev.time


class Trace:
    """Append-only event sink with simple filtering helpers.

    Parameters
    ----------
    enabled:
        When ``False`` (the default for production runs), :meth:`record` is a
        no-op so tracing costs nothing.
    hb:
        Enable happens-before instrumentation: the engine threads vector
        clocks through simulated processes and :meth:`access` records
        shared-state accesses for the race checker.  Requires ``enabled``.
    """

    def __init__(self, *, enabled: bool = True, hb: bool = False) -> None:
        if hb and not enabled:
            raise TraceSchemaError(
                "Trace(hb=True) requires enabled=True: the race checker "
                "replays recorded events")
        self.enabled = enabled
        self.hb = hb
        self.events: list[TraceEvent] = []
        #: per-process last event time, for the monotonicity check
        self._last_time: dict[str, float] = {}

    def record(self, time: float, proc: str, kind: str, **detail: Any) -> None:
        """Append one event (no-op when disabled).

        Raises :class:`~repro.errors.TraceSchemaError` if the event violates
        the schema (see the module docstring) so malformed events fail at the
        emission site instead of downstream.
        """
        if self.enabled:
            _check_event(time, proc, kind, self._last_time.get(proc))
            self._last_time[proc] = time
            self.events.append(TraceEvent(time, proc, kind, detail))

    def access(self, proc: "SimProcess", op: str, loc: str, *,
               start: int | None = None, stop: int | None = None,
               **detail: Any) -> None:
        """Record one shared-state access for the race checker (hb mode only).

        ``op`` is ``"read"`` or ``"write"``; ``loc`` names the shared
        location (e.g. ``"shmem.sym0@pe2"``); ``start``/``stop`` optionally
        restrict the access to an element range so disjoint-range accesses to
        the same location do not conflict.  The event carries a snapshot of
        ``proc``'s vector clock — the checker decides ordering from it.
        No-op unless this trace was built with ``hb=True``.
        """
        if not (self.enabled and self.hb):
            return
        vc = proc.vc
        if vc is None:  # engine not in hb mode (e.g. foreign engine)
            return
        if op not in ("read", "write"):
            raise TraceSchemaError(f"access op must be read/write, got {op!r}")
        info: dict[str, Any] = {"loc": loc, "pid": proc.pid, "vc": dict(vc)}
        if start is not None:
            info["start"] = start
        if stop is not None:
            info["stop"] = stop
        info.update(detail)
        self.record(proc.clock, proc.name, f"mem.{op}", **info)

    def coll(self, proc: "SimProcess", op: str, comm: str, *,
             parties: int, root: int | None = None,
             dtype: str | None = None, site: str | None = None) -> None:
        """Record one collective entry for the sanitizer (hb mode only).

        ``op`` names the collective (``"reduce"``, ``"barrier"``, ...);
        ``comm`` identifies the communicator or barrier instance (e.g.
        ``"mpi:ctx0"``, ``"barrier:phase#1"``); ``parties`` is the declared
        participant count.  ``root``/``dtype`` are recorded only where the
        collective's matching contract constrains them; ``site`` is the
        caller's source location.  The collective-matching checker in
        :mod:`repro.analysis.sanitize` replays these ``coll.enter`` events.
        No-op unless this trace was built with ``hb=True``.
        """
        if not (self.enabled and self.hb):
            return
        info: dict[str, Any] = {
            "op": op, "comm": comm, "pid": proc.pid, "parties": parties,
        }
        if root is not None:
            info["root"] = root
        if dtype is not None:
            info["dtype"] = dtype
        if site is not None:
            info["site"] = site
        self.record(proc.clock, proc.name, "coll.enter", **info)

    # -- query helpers -------------------------------------------------------

    def filter(
        self,
        kind: str | None = None,
        proc: str | None = None,
        pred: Callable[[TraceEvent], bool] | None = None,
    ) -> list[TraceEvent]:
        """Events matching all given criteria (``kind`` may be a prefix)."""
        out = []
        for ev in self.events:
            if kind is not None and not ev.kind.startswith(kind):
                continue
            if proc is not None and ev.proc != proc:
                continue
            if pred is not None and not pred(ev):
                continue
            out.append(ev)
        return out

    def count(self, kind: str) -> int:
        """Number of events whose kind starts with ``kind``."""
        return len(self.filter(kind=kind))

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def dump(self, limit: int | None = None) -> str:  # pragma: no cover
        """Human-readable dump (for interactive debugging)."""
        evs = self.events if limit is None else self.events[:limit]
        return "\n".join(str(e) for e in evs)
