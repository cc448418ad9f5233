"""The reference scheduler: a test-side oracle for :class:`repro.sim.Engine`.

The production engine answers "who runs next?" with a lazy-deletion heap,
lets a process keep the token while it is still the minimum, and hands the
token from thread to thread without waking the engine.  This subclass does
none of that: every yield goes back to the engine thread, which picks
``min(runnable, key=(clock, pid))`` by a linear scan.  It is slow and
obviously correct, and the determinism suite asserts that both produce
byte-identical traces.
"""

from __future__ import annotations

from repro.errors import DeadlockError, SimProcessError
from repro.sim import Engine
from repro.sim.process import ProcState


class ReferenceEngine(Engine):
    """O(n) scan, engine-mediated switches, no token retention."""

    def _peek_min(self):
        # Something always precedes the caller, so a checkpoint always parks.
        return (float("-inf"), -1)

    def _release_token(self, proc):
        self._yield_evt.set()

    def _supervise(self) -> float:
        while True:
            runnable = [
                p for p in self.processes if p.state is ProcState.RUNNABLE
            ]
            if not runnable:
                blocked = [
                    p for p in self.processes if p.state is ProcState.BLOCKED
                ]
                if blocked:
                    msg = self._deadlock_message(blocked)
                    self._abort()
                    raise DeadlockError(msg)
                return self.makespan()
            proc = min(runnable, key=lambda p: (p.clock, p.pid))
            self.now = max(self.now, proc.clock)
            self._yield_evt.clear()
            proc._grant()
            self._yield_evt.wait()
            if proc.state is ProcState.FAILED and proc.exception is not None:
                self._abort()
                if isinstance(proc.exception, DeadlockError):
                    raise proc.exception
                raise SimProcessError(proc.name) from proc.exception
