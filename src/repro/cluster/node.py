"""A compute node: cores, memory-bandwidth pool and local scratch SSD."""

from __future__ import annotations

from repro.cluster.spec import NodeSpec
from repro.cluster.storage import StorageDevice, ssd_read_efficiency
from repro.sim.process import SimProcess, Steps
from repro.sim.resources import FlowSystem, FluidResource
from repro.sim.trace import Trace


class Node:
    """One simulated node of the cluster.

    ``mem`` is a fluid bandwidth pool shared by every process on the node
    that streams through memory (OpenMP threads scanning a file buffer, Spark
    tasks iterating records ...); it makes single-node scaling sub-linear for
    memory-bound kernels, which is why OpenMP's 16-core point in Fig 4 is not
    simply half of the 8-core one.
    """

    def __init__(self, node_id: int, spec: NodeSpec, flow_system: FlowSystem,
                 trace=None) -> None:
        self.id = node_id
        self.spec = spec
        #: the cluster's trace (shared); runtimes record shared-state
        #: accesses through it for the race checker
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.ssd = StorageDevice(
            f"ssd[{node_id}]",
            flow_system,
            read_bw=spec.ssd_read_bw,
            write_bw=spec.ssd_write_bw,
            latency=spec.ssd_latency,
            read_efficiency=ssd_read_efficiency,
            trace=trace,
        )
        self.mem = FluidResource(f"mem[{node_id}]", spec.mem_bw)
        self._flows = flow_system

    def stream_bytes(self, proc: SimProcess, nbytes: float, *, label: str = "") -> float:
        """Stream ``nbytes`` through this node's memory system.

        Blocks ``proc`` until done; concurrent streams on the same node share
        the node's memory bandwidth.
        """
        return proc.run_steps(self.stream_bytes_steps(proc, nbytes,
                                                      label=label))

    def stream_bytes_steps(self, proc: SimProcess, nbytes: float, *,
                           label: str = "") -> Steps[float]:
        """Step form of :meth:`stream_bytes` (see ``SimProcess.run_steps``)."""
        return (yield from self._flows.transfer_steps(
            proc, (self.mem,), nbytes, label=label or f"mem[{self.id}]"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.id}>"
