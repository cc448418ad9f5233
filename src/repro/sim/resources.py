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
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import SimulationError
from repro.sim.process import SimProcess

#: Residual byte count below which a flow counts as finished (absorbs float
#: drift from repeated rate recomputations).
_EPS_BYTES = 1e-6


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
        if capacity <= 0:
            raise SimulationError(f"resource {name!r}: capacity must be > 0")
        self.name = name
        self.capacity = float(capacity)
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
                 "label", "rate", "finish")

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
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        res = tuple(resources)
        if nbytes == 0 or not res:
            return proc.clock
        proc.checkpoint()  # establish global virtual-time order
        self._advance_to(proc.clock)
        flow = Flow(proc, res, nbytes, rate_cap, label)
        self.flows.add(flow)
        for r in res:
            r.flows.add(flow)
        self._recompute(proc.clock)
        # Relative epsilon: repeated rate recomputations accumulate float
        # drift proportional to the transfer size; without this a large
        # flow can livelock on zero-length parks at its own finish time.
        eps = max(_EPS_BYTES, 1e-12 * nbytes)
        while flow.remaining > eps:
            if flow.finish <= proc.clock:
                break  # residual is pure drift; the flow is done
            proc.park_until(flow.finish, reason=f"flow:{label}")
            self._advance_to(proc.clock)
        self._remove(flow, proc.clock)
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
        if capacity <= 0 or capacity != capacity:
            raise SimulationError(
                f"resource {resource.name!r}: new capacity must be finite "
                f"and > 0, got {capacity!r}")
        self._advance_to(t)
        resource.capacity = float(capacity)
        if self.flows:
            self._recompute(t)

    # -- internals -------------------------------------------------------------

    def _advance_to(self, t: float) -> None:
        """Integrate progress of every active flow up to virtual time ``t``."""
        if t < self.now - 1e-9:
            raise SimulationError(
                f"flow system time went backwards: {self.now} -> {t}"
            )
        dt = max(0.0, t - self.now)
        if dt > 0.0:
            for f in self.flows:
                rem = f.remaining - f.rate * dt
                f.remaining = rem if rem > 0.0 else 0.0
            self.now = t
        elif t > self.now:
            self.now = t

    def _remove(self, flow: Flow, t: float) -> None:
        self.flows.discard(flow)
        for r in flow.resources:
            r.flows.discard(flow)
        if self.flows:
            self._recompute(t)

    def _recompute(self, t: float) -> None:
        """Re-derive every flow's rate and projected finish at time ``t``.

        Rate = min over the flow's resources of the resource's fair share,
        additionally clamped by the flow's own ``rate_cap``.  Owners parked on
        a projected finish get their wake time revised.
        """
        shares: dict[FluidResource, float] = {}
        get_share = shares.get
        for f in self.flows:
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
                    eff_fn = r.efficiency
                    if eff_fn is None:
                        s = r.capacity / len(r.flows)
                    else:
                        s = r.fair_share()
                    shares[r] = s
                if rate is None or s < rate:
                    rate = s
            if f.rate_cap is not None:
                rate = min(rate, f.rate_cap)
            if rate <= 0:
                raise SimulationError(f"flow {f!r}: computed non-positive rate")
            f.rate = rate
            finish = t + f.remaining / rate
            if finish != f.finish:
                f.finish = finish
                owner_waiting = f.owner.waiting_on
                if owner_waiting is not None and owner_waiting.startswith("flow:"):
                    f.owner._revise_wake(finish)


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
        proc.checkpoint()
        _, end = self.acquire(proc.clock, duration)
        proc.park_until(end, reason=f"fifo:{self.name}")
