"""Interconnect model.

Every node gets, per fabric, a transmit and a receive
:class:`~repro.sim.resources.FluidResource` sized at the fabric's effective
bandwidth.  A bulk transfer is a fluid flow through ``(tx[src], rx[dst])``,
so fan-in to one node (shuffle incast, gather at a root) is throttled by the
receiver NIC and concurrent senders share it fairly — the first-order
congestion behaviour the paper's shuffle results depend on.

Messages below :data:`BULK_THRESHOLD` skip the fluid machinery: their
duration is dominated by latency and software overheads, and modelling a
4-byte MPI message as a flow would triple the event count for no accuracy
gain.  Their timing is the classic LogGP-style ``overhead + latency +
size/bandwidth``.

Software overheads (socket syscalls, serialisation copies) are charged to
the *calling* process for both push and pull transfers; remote-side CPU
impact is second-order for the experiments reproduced here and is
documented as out of scope in DESIGN.md.
"""

from __future__ import annotations

from repro.cluster.spec import ClusterSpec, FabricSpec
from repro.errors import ConfigurationError
from repro.sim.process import SimProcess, Steps
from repro.sim.resources import FlowSystem, FluidResource
from repro.sim.trace import Trace
from repro.units import KiB

#: Transfers at or above this size go through the fluid contention model.
BULK_THRESHOLD = 16 * KiB

#: Rate of a node-local "transfer" (shared-memory copy), bytes/s.
LOOPBACK_RATE = 8.0e9
LOOPBACK_LATENCY = 0.4e-6


class Network:
    """Per-fabric NIC resources plus transfer primitives."""

    def __init__(
        self,
        spec: ClusterSpec,
        flow_system: FlowSystem,
        trace: Trace | None = None,
    ) -> None:
        self.spec = spec
        self.flows = flow_system
        self.trace = trace if trace is not None else Trace(enabled=False)
        self._tx: dict[str, list[FluidResource]] = {}
        self._rx: dict[str, list[FluidResource]] = {}
        for fab in spec.fabrics:
            self._tx[fab.name] = [
                FluidResource(f"{fab.name}:tx[{i}]", fab.bandwidth)
                for i in range(spec.num_nodes)
            ]
            self._rx[fab.name] = [
                FluidResource(f"{fab.name}:rx[{i}]", fab.bandwidth)
                for i in range(spec.num_nodes)
            ]

    def scale_fabric(self, t: float, fabric: str, factor: float) -> None:
        """Multiply every NIC's bandwidth on ``fabric`` at virtual time ``t``.

        The fault injector's ``net_degrade`` hook: ``factor < 1`` degrades
        the fabric, the inverse factor restores it; in-flight transfers
        re-price mid-flow both times.
        """
        if fabric not in self._tx:
            raise ConfigurationError(
                f"unknown fabric {fabric!r}; have {sorted(self._tx)}")
        for pool in self._tx[fabric] + self._rx[fabric]:
            self.flows.set_capacity(pool, pool.capacity * factor, t)

    def _check(self, fabric: str, src: int, dst: int) -> FabricSpec:
        if not (0 <= src < self.spec.num_nodes and 0 <= dst < self.spec.num_nodes):
            raise ConfigurationError(
                f"node id out of range: src={src} dst={dst} "
                f"(cluster has {self.spec.num_nodes} nodes)"
            )
        return self.spec.fabric(fabric)

    # -- primitives -----------------------------------------------------------

    def transmit(
        self,
        proc: SimProcess,
        fabric: str,
        src: int,
        dst: int,
        nbytes: float,
        *,
        label: str = "",
    ) -> float:
        """Move ``nbytes`` from ``src`` to ``dst``; blocks until delivered.

        Returns the delivery (completion) time.  Used for bulk payloads in
        both directions: a push (sender calls) and a pull (receiver calls)
        cost the same end-to-end.
        """
        return proc.run_steps(
            self.transmit_steps(proc, fabric, src, dst, nbytes, label=label))

    def transmit_steps(
        self,
        proc: SimProcess,
        fabric: str,
        src: int,
        dst: int,
        nbytes: float,
        *,
        label: str = "",
    ) -> Steps[float]:
        """Step form of :meth:`transmit` (see ``SimProcess.run_steps``)."""
        fab = self._check(fabric, src, dst)
        proc.compute(fab.sw_overhead(nbytes))
        if src == dst:
            proc.compute(LOOPBACK_LATENCY)
            proc.compute_bytes(nbytes, LOOPBACK_RATE)
            if self.trace.enabled:
                self.trace.record(proc.clock, proc.name, "net.loopback",
                                  fabric=fabric, node=src, nbytes=int(nbytes))
            return proc.clock
        proc.compute(fab.latency)
        if nbytes >= BULK_THRESHOLD:
            yield from self.flows.transfer_steps(
                proc, (self._tx[fabric][src], self._rx[fabric][dst]), nbytes,
                label=label or f"{fabric}:{src}->{dst}")
        else:
            proc.compute_bytes(nbytes, fab.bandwidth)
        if self.trace.enabled:
            self.trace.record(proc.clock, proc.name, "net.transmit",
                              fabric=fabric, src=src, dst=dst,
                              nbytes=int(nbytes), label=label)
        return proc.clock

    def msg_arrival(
        self,
        proc: SimProcess,
        fabric: str,
        src: int,
        dst: int,
        nbytes: float,
    ) -> float:
        """Timing of a fire-and-forget (eager) message from ``proc``.

        Charges the sender's software overhead to ``proc`` and returns the
        virtual time at which the payload is available at ``dst`` — without
        blocking the sender for the full path.  Intended for control traffic
        and eager MPI sends below :data:`BULK_THRESHOLD`.
        """
        fab = self._check(fabric, src, dst)
        proc.compute(fab.sw_overhead(nbytes))
        if src == dst:
            return proc.clock + LOOPBACK_LATENCY + nbytes / LOOPBACK_RATE
        arrival = proc.clock + fab.latency + nbytes / fab.bandwidth
        if self.trace.enabled:
            self.trace.record(proc.clock, proc.name, "net.msg",
                              fabric=fabric, src=src, dst=dst, nbytes=int(nbytes))
        return arrival

    def rx_overhead(self, fabric: str, nbytes: float) -> float:
        """Receiver-side software cost for one message (charged by runtimes)."""
        return self.spec.fabric(fabric).sw_overhead(nbytes)
