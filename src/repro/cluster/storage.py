"""Storage devices: node-local SSD scratch and the shared NFS/Lustre front.

Devices expose blocking ``read``/``write`` primitives that charge a
per-request service latency plus a fluid-bandwidth term; each is
``run_steps`` over its step form, ``read_steps``/``write_steps``, and both
step forms are one transfer body on the device's read or write pool.  SSD *read
contention* — the effect Section III-C of the paper discusses (throughput
degrading once too many processes read in parallel, cf. the threshold
algorithm of reference [20]) — is modelled by a capacity-efficiency curve.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.process import SimProcess, Steps
from repro.sim.resources import FlowSystem, FluidResource
from repro.sim.trace import Trace


def ssd_read_efficiency(n_active: int) -> float:
    """Aggregate-throughput multiplier for ``n_active`` concurrent readers.

    Up to 4 parallel streams an SSD keeps full sequential throughput; beyond
    that, request interleaving costs ~3 % per extra stream down to a floor of
    75 % — a smooth stand-in for the thresholds in the paper's reference
    [20].
    """
    if n_active <= 4:
        return 1.0
    return max(0.75, 1.0 - 0.03 * (n_active - 4))


class StorageDevice:
    """One device with independent read and write bandwidth pools.

    Parameters
    ----------
    name:
        Identifier (e.g. ``"ssd[3]"`` or ``"nfs"``).
    flow_system:
        The cluster's flow coordinator.
    read_bw / write_bw:
        Sequential bandwidths, bytes/s.
    latency:
        Per-request service latency, seconds.
    read_efficiency:
        Optional concurrency-degradation curve for reads (see
        :func:`ssd_read_efficiency`).
    """

    def __init__(
        self,
        name: str,
        flow_system: FlowSystem,
        *,
        read_bw: float,
        write_bw: float,
        latency: float,
        read_efficiency: Callable[[int], float] | None = None,
        trace: Trace | None = None,
    ) -> None:
        self.name = name
        self.flows = flow_system
        self.latency = latency
        self.trace = trace if trace is not None else Trace(enabled=False)
        self._read = FluidResource(
            f"{name}:read", read_bw, efficiency=read_efficiency
        )
        self._write = FluidResource(f"{name}:write", write_bw)

    def scale_bandwidth(self, t: float, factor: float) -> None:
        """Multiply both bandwidth pools by ``factor`` at virtual time ``t``.

        The fault injector's ``disk_stall`` hook: ``factor < 1`` degrades
        the device, and a later call with the inverse factor restores it
        exactly (in-flight transfers re-price mid-flow both times).
        """
        for pool in (self._read, self._write):
            self.flows.set_capacity(pool, pool.capacity * factor, t)

    def read(self, proc: SimProcess, nbytes: float, *, label: str = "") -> float:
        """Read ``nbytes``; blocks ``proc``; returns completion time."""
        return proc.run_steps(self.read_steps(proc, nbytes, label=label))

    def read_steps(self, proc: SimProcess, nbytes: float, *,
                   label: str = "") -> Steps[float]:
        """Step form of :meth:`read` (see ``SimProcess.run_steps``)."""
        return self._transfer_steps(proc, self._read, "read", nbytes, label)

    def write(self, proc: SimProcess, nbytes: float, *, label: str = "") -> float:
        """Write ``nbytes``; blocks ``proc``; returns completion time."""
        return proc.run_steps(self.write_steps(proc, nbytes, label=label))

    def write_steps(self, proc: SimProcess, nbytes: float, *,
                    label: str = "") -> Steps[float]:
        """Step form of :meth:`write` (see ``SimProcess.run_steps``)."""
        return self._transfer_steps(proc, self._write, "write", nbytes, label)

    def _transfer_steps(self, proc: SimProcess, pool: FluidResource, op: str,
                        nbytes: float, label: str) -> Steps[float]:
        """The one body of a request: service latency, then the flow through
        ``pool``; traced as ``disk.<op>``."""
        proc.compute(self.latency)
        done = yield from self.flows.transfer_steps(
            proc, (pool,), nbytes, label=label or f"{op}:{self.name}"
        )
        if self.trace.enabled:
            self.trace.record(done, proc.name, f"disk.{op}",
                              device=self.name, nbytes=int(nbytes))
        return done
