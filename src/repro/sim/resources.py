"""Shared resources with contention.

Two contention models are provided:

* :class:`FluidResource` + :class:`FlowSystem` — *fair-share bandwidth*.
  Active transfers ("flows") through a resource share its capacity equally,
  and a flow crossing several resources (e.g. sender NIC and receiver NIC)
  progresses at the minimum of its fair shares.  This is the classic fluid
  approximation used by network simulators; it reproduces incast collapse at
  a receiver NIC and read contention on a shared SSD, both of which the paper
  leans on (Sections III-C and V-B).

* :class:`FifoResource` — a *k-channel queueing* resource: each operation
  occupies one channel exclusively for a fixed duration; operations queue in
  virtual-time order.  Used for strictly serial devices (e.g. an NFS metadata
  server).

All state changes happen in global virtual-time order thanks to the engine's
scheduling invariant, so both models are deterministic.

How flow owners are scheduled
-----------------------------

Every event (a flow arriving or finishing, a capacity change) advances and
re-prices *every* flow — ``finish = t + remaining / rate`` drifts by ulps
that the goldens pin, so the arithmetic is never skipped — but the run queue
is touched at most once per event:

* **Queue one owner.**  An owner parked on its flow (``owner.state is
  RUNNABLE``) has its revised finish written straight into ``owner.clock``,
  and the run-queue entry it had, if any, is invalidated rather than
  replaced.  Only the smallest ``(finish, pid)`` among the parked owners is
  pushed, and only if it has no live entry.  Invariant, after every
  :meth:`FlowSystem._recompute`: *every live heap entry of a flow-parked
  process carries its current clock, the minimum flow-parked process always
  has one, and every RUNNABLE owner's* ``clock`` *equals its flow's*
  ``finish``.  The engine's heap top is therefore the same global minimum a
  scan over all clocks finds; when the minimum owner wakes and unregisters,
  the re-pricing it triggers queues the next one.

* **Park once.**  A transfer is one body, :meth:`FlowSystem.transfer_steps`
  (``transfer`` runs it under :meth:`SimProcess.run_steps`).  At the
  owner's ``(clock, pid)`` turn it registers while already RUNNABLE, so the
  re-pricing keys the owner to its projected finish and queues it only if
  it is the earliest parked owner, then yields ``QUEUED``.  A caller that
  must wait its turn therefore parks a single time — the token holder runs
  the registration — and its thread wakes only when the flow is due; one
  whose own entry is then the minimum (an uncontended transfer) keeps the
  token and never parks at all.

The algorithm these two rules replaced (a separate advance pass, a fresh
heap entry for every revised owner, two parks per transfer) is kept as
``tests/sim_oracle.py::ReferenceFlowSystem``; completion times are
bit-identical between the two.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Iterable

from repro.errors import SimulationError
from repro.sim.process import QUEUED, TURN, ProcState, SimProcess, Steps

_RUNNABLE = ProcState.RUNNABLE


def _capacity(name: str, capacity: float) -> float:
    """``capacity`` of resource ``name`` as a float, if finite and > 0."""
    if not 0 < capacity < inf:
        raise SimulationError(
            f"resource {name!r}: capacity must be finite and > 0, "
            f"got {capacity!r}")
    return float(capacity)


class FluidResource:
    """A bandwidth pool shared fairly among active flows.

    Parameters
    ----------
    name:
        Identifier used in traces and error messages.
    capacity:
        Total capacity in bytes/second.
    efficiency:
        Optional ``f(n_active) -> multiplier`` applied to the total capacity;
        models devices whose aggregate throughput degrades under concurrency
        (the SSD read-contention effect of Section III-C).  Must return a
        value in ``(0, 1]``.
    """

    def __init__(
        self,
        name: str,
        capacity: float,
        *,
        efficiency: Callable[[int], float] | None = None,
    ) -> None:
        self.name = name
        self.capacity = _capacity(name, capacity)
        self.efficiency = efficiency
        self.flows: set["Flow"] = set()

    def fair_share(self) -> float:
        """Per-flow bandwidth if rates were recomputed right now."""
        n = len(self.flows)
        if n == 0:
            return self.capacity
        eff = self.efficiency(n) if self.efficiency is not None else 1.0
        if not 0.0 < eff <= 1.0:
            raise SimulationError(
                f"resource {self.name!r}: efficiency({n}) = {eff} out of (0, 1]"
            )
        return self.capacity * eff / n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FluidResource {self.name} cap={self.capacity:.3g} n={len(self.flows)}>"


class Flow:
    """One in-progress bulk transfer across a set of fluid resources."""

    __slots__ = ("owner", "resources", "remaining", "rate_cap",
                 "label", "rate", "finish", "queued")

    def __init__(
        self,
        owner: SimProcess,
        resources: tuple[FluidResource, ...],
        nbytes: float,
        rate_cap: float | None,
        label: str,
    ) -> None:
        self.owner = owner
        self.resources = resources
        self.remaining = float(nbytes)
        self.rate_cap = rate_cap
        self.label = label
        self.rate = 0.0
        self.finish = owner.clock  # projected completion (revised on changes)
        #: the parked owner has a live run-queue entry at ``finish``
        self.queued = False

    def __str__(self) -> str:
        # What the owner is ``waiting_on``; formatted only if a dump asks.
        return f"flow:{self.label}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.label!r} rem={self.remaining:.3g}"
            f" rate={self.rate:.3g} fin={self.finish:.6g}>"
        )


class FlowSystem:
    """Coordinator for all fluid resources of one simulation.

    A cluster owns exactly one flow system; every NIC, SSD and NFS uplink is
    registered here so that rate recomputation is globally consistent.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.flows: set[Flow] = set()

    # -- public API -----------------------------------------------------------

    def transfer(
        self,
        proc: SimProcess,
        resources: Iterable[FluidResource],
        nbytes: float,
        *,
        rate_cap: float | None = None,
        label: str = "",
    ) -> float:
        """Move ``nbytes`` through ``resources``; blocks ``proc`` until done.

        Returns the virtual completion time.  A zero-byte transfer returns
        immediately.  Concurrent transfers slow each other down according to
        the fair-share rule; the caller's projected completion is revised
        on-the-fly as competing flows come and go.
        """
        return proc.run_steps(self.transfer_steps(
            proc, resources, nbytes, rate_cap=rate_cap, label=label))

    def transfer_steps(
        self,
        proc: SimProcess,
        resources: Iterable[FluidResource],
        nbytes: float,
        *,
        rate_cap: float | None = None,
        label: str = "",
    ) -> Steps[float]:
        """Step form of :meth:`transfer` (see ``SimProcess.run_steps``).

        At its turn the owner registers already parked (RUNNABLE), so the
        re-pricing keys it to the flow's finish and queues it only if it is
        the earliest parked owner (park once, see the module docstring).
        """
        if not 0 <= nbytes < inf:
            raise SimulationError(
                f"transfer size must be finite and >= 0, got {nbytes!r}")
        if rate_cap is not None and not 0 < rate_cap < inf:
            raise SimulationError(
                f"rate_cap must be finite and > 0, got {rate_cap!r}")
        res = tuple(resources)
        if nbytes == 0 or not res:
            return proc.clock
        flow = Flow(proc, res, nbytes, rate_cap, label)
        proc.waiting_on = flow
        try:
            yield TURN
            proc.state = _RUNNABLE
            self._register(flow)
            yield QUEUED
        finally:
            proc.waiting_on = None
        if proc.clock != flow.finish:
            raise SimulationError(
                f"{proc.name} woke at {proc.clock!r}, not at the finish "
                f"{flow.finish!r} of {flow!r}")
        self._unregister(flow)
        self._recompute(proc.clock)
        return proc.clock

    @property
    def active_count(self) -> int:
        """Number of currently active flows (for tests/inspection)."""
        return len(self.flows)

    def set_capacity(self, resource: FluidResource, capacity: float,
                     t: float) -> None:
        """Change ``resource``'s capacity at virtual time ``t``.

        The fault injector's primitive (disk stalls, degraded fabrics).
        Progress is integrated up to ``t`` first, so bytes already moved
        were priced at the old rate; every active flow is then re-priced
        and parked owners get their projected finish revised — the same
        sequence a competing flow arriving at ``t`` would trigger.
        """
        resource.capacity = _capacity(resource.name, capacity)
        self._recompute(t)

    # -- internals -------------------------------------------------------------

    def _register(self, flow: Flow) -> None:
        """Add ``flow`` at its owner's clock and re-price everything.

        Only the new flow's resources change their head count, so theirs are
        the only fair shares that can newly be rejected (an efficiency curve
        out of ``(0, 1]``): price them first and back the flow out if one
        is, before any other flow has been touched.
        """
        for r in flow.resources:
            r.flows.add(flow)
        try:
            shares = {r: r.fair_share() for r in flow.resources}
        except BaseException:
            self._unregister(flow)
            raise
        self.flows.add(flow)
        self._recompute(flow.owner.clock, shares)

    def _unregister(self, flow: Flow) -> None:
        self.flows.discard(flow)
        for r in flow.resources:
            r.flows.discard(flow)

    def _recompute(
        self, t: float, shares: dict[FluidResource, float] | None = None
    ) -> None:
        """Advance every flow to ``t``, then re-price it — one pass per event.

        Per flow, in this order (the float operations and their order are
        what the goldens pin): integrate progress since the last event at
        the *old* rate; rate = min over the flow's resources of the
        resource's fair share, clamped by the flow's own ``rate_cap``;
        ``finish = t + remaining / rate``.  Parked owners are re-keyed and
        at most one is pushed (queue one owner, see the module docstring).
        ``shares`` carries fair shares the caller has already priced.
        """
        now = self.now
        if t > now:
            dt = t - now
            self.now = t
        elif t < now - 1e-9:
            raise SimulationError(
                f"flow system time went backwards: {now} -> {t}"
            )
        else:
            dt = 0.0
        if shares is None:
            shares = {}
        get_share = shares.get
        first = None  # the parked owner's flow with the smallest (finish, pid)
        first_finish = first_pid = 0
        for f in self.flows:
            rem = f.remaining
            if dt > 0.0:
                rem -= f.rate * dt
                if not rem > 0.0:
                    rem = 0.0
                f.remaining = rem
            # fair_share() is pure within one pass (flow membership is fixed
            # here), so compute it once per resource; min over the same
            # float values is bit-identical to the uncached expression.
            # The body is inlined (this is the hottest loop of the fabric
            # model): with no efficiency curve, ``capacity * 1.0 / n`` is
            # bitwise ``capacity / n``, and ``n >= 1`` because ``f`` itself
            # is a member of each of its resources.
            rate = None
            for r in f.resources:
                s = get_share(r)
                if s is None:
                    if r.efficiency is None:
                        s = r.capacity / len(r.flows)
                    else:
                        s = r.fair_share()
                    shares[r] = s
                if rate is None or s < rate:
                    rate = s
            cap = f.rate_cap
            if cap is not None and cap < rate:
                rate = cap
            if rate <= 0:
                raise SimulationError(f"flow {f!r}: computed non-positive rate")
            f.rate = rate
            finish = t + rem / rate
            owner = f.owner
            if owner.state is _RUNNABLE:
                if finish != f.finish:
                    f.finish = finish
                    owner.clock = finish
                    if f.queued:
                        owner._hseq += 1  # its run-queue entry is now stale
                        f.queued = False
                pid = owner.pid
                if first is None or finish < first_finish or (
                        finish == first_finish and pid < first_pid):
                    first, first_finish, first_pid = f, finish, pid
            else:
                f.finish = finish
        if first is not None and not first.queued:
            first.queued = True
            owner = first.owner
            owner.engine._push(owner)


class FifoResource:
    """A ``k``-channel exclusive-use resource with FIFO queueing.

    Operations are timed, not blocking-granted: :meth:`acquire` computes when
    the operation would start (the earliest free channel at or after the
    requested time) and occupies that channel for ``duration``.  Because the
    engine executes interactions in virtual-time order, first-come
    first-served in call order equals first-come first-served in virtual
    time.
    """

    def __init__(self, name: str, channels: int = 1) -> None:
        if channels < 1:
            raise SimulationError(f"resource {name!r}: channels must be >= 1")
        self.name = name
        self._free_at = [0.0] * channels

    def acquire(self, at: float, duration: float) -> tuple[float, float]:
        """Reserve a channel at or after ``at`` for ``duration`` seconds.

        Returns ``(start, end)`` of the reservation.
        """
        if duration < 0:
            raise SimulationError(f"negative duration: {duration}")
        free_at = self._free_at
        if len(free_at) == 1:
            idx = 0  # single channel: skip the arg-min scan
        else:
            idx = min(range(len(free_at)), key=lambda i: free_at[i])
        start = max(at, self._free_at[idx])
        end = start + duration
        self._free_at[idx] = end
        return start, end

    def use(self, proc: SimProcess, duration: float) -> None:
        """Acquire on behalf of ``proc`` and advance its clock to the end."""
        proc.run_steps(self.use_steps(proc, duration))

    def use_steps(self, proc: SimProcess, duration: float) -> Steps[None]:
        """Step form of :meth:`use` (see ``SimProcess.run_steps``)."""
        yield TURN
        _, end = self.acquire(proc.clock, duration)
        yield from proc.park_until_steps(end, reason=f"fifo:{self.name}")
