"""Trace-based profiling: communication matrices and I/O summaries.

Provision a traced session, run any workload (MPI job, Spark application,
MapReduce job — the profiler is framework-agnostic), then feed the session
back here::

    from repro.platform import ScenarioSpec
    from repro.tools import profile_session

    session = ScenarioSpec(nodes=4, trace=True).session()
    ... run something in the session ...
    print(profile_session(session).render())

(:func:`profile_trace` is the lower-level form for hand-built clusters.)

The report covers: per-fabric node-to-node byte matrices (who talked to
whom, over which path), loopback traffic, per-device disk read/write
volumes, message counts and, from the trace's ``spark.shuffle.*`` counters,
what each shuffle phase wrote — the Scalasca/Tau-style view the paper
notes the Big Data stack lacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.trace import Trace
from repro.units import fmt_bytes


@dataclass
class ProfileReport:
    """Aggregated traffic/I/O view of one traced run."""

    num_nodes: int
    #: fabric -> (num_nodes x num_nodes) byte matrix, [src][dst]
    comm_matrix: dict[str, np.ndarray] = field(default_factory=dict)
    #: fabric -> message/transfer count
    message_counts: dict[str, int] = field(default_factory=dict)
    #: fabric -> loopback (same-node) bytes
    loopback_bytes: dict[str, int] = field(default_factory=dict)
    #: device name -> [read_bytes, write_bytes]
    disk_bytes: dict[str, list[int]] = field(default_factory=dict)
    #: shuffle id -> {"maps", "records", "bytes"} its map tasks wrote
    shuffles: dict[int, dict[str, int]] = field(default_factory=dict)
    #: host seconds spent producing the run (wall clock)
    wall_s: float | None = None
    #: simulated seconds the run covers (engine makespan)
    virtual_s: float | None = None

    # -- aggregates ------------------------------------------------------------

    def fabric_bytes(self, fabric: str) -> int:
        """Total cross-node bytes carried by one fabric."""
        m = self.comm_matrix.get(fabric)
        return int(m.sum()) if m is not None else 0

    def total_network_bytes(self) -> int:
        return sum(self.fabric_bytes(f) for f in self.comm_matrix)

    def total_disk_bytes(self) -> tuple[int, int]:
        """``(read, write)`` summed over all devices."""
        read = sum(v[0] for v in self.disk_bytes.values())
        write = sum(v[1] for v in self.disk_bytes.values())
        return read, write

    def hotspot(self, fabric: str) -> tuple[int, int, int]:
        """``(src, dst, bytes)`` of the busiest link on a fabric."""
        m = self.comm_matrix[fabric]
        src, dst = np.unravel_index(int(m.argmax()), m.shape)
        return int(src), int(dst), int(m[src, dst])

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        lines = [f"profile over {self.num_nodes} nodes"]
        for fabric in sorted(self.comm_matrix):
            total = self.fabric_bytes(fabric)
            count = self.message_counts.get(fabric, 0)
            loop = self.loopback_bytes.get(fabric, 0)
            lines.append(
                f"  fabric {fabric}: {fmt_bytes(total)} cross-node in "
                f"{count} transfers (+{fmt_bytes(loop)} loopback)")
            if total:
                m = self.comm_matrix[fabric]
                header = "        dst:" + "".join(
                    f"{d:>10d}" for d in range(self.num_nodes))
                lines.append(header)
                for s in range(self.num_nodes):
                    row = "".join(f"{fmt_bytes(m[s, d]):>10s}"
                                  for d in range(self.num_nodes))
                    lines.append(f"    src {s:>3d}:{row}")
        read, write = self.total_disk_bytes()
        lines.append(f"  disk: {fmt_bytes(read)} read, "
                     f"{fmt_bytes(write)} written")
        for dev in sorted(self.disk_bytes):
            r, w = self.disk_bytes[dev]
            lines.append(f"    {dev}: {fmt_bytes(r)} read, "
                         f"{fmt_bytes(w)} written")
        for sid, s in sorted(self.shuffles.items()):
            lines.append(f"  shuffle {sid}: {s['records']:,} records in "
                         f"{s['maps']} maps, {fmt_bytes(s['bytes'])}")
        if self.wall_s is not None and self.virtual_s:
            lines.append(
                f"  wall {self.wall_s:.2f}s for {self.virtual_s:.2f}s "
                f"virtual ({self.wall_s / self.virtual_s:.3f} wall-s per "
                "virtual-s)")
        return "\n".join(lines)


def profile_trace(trace: Trace, num_nodes: int, *,
                  wall_s: float | None = None,
                  virtual_s: float | None = None) -> ProfileReport:
    """Aggregate a run's trace into a :class:`ProfileReport`.

    ``wall_s``/``virtual_s`` attach the host-time-per-simulated-second
    ratio — the number that shows a data-plane wall-clock regression
    before any test times out.
    """
    report = ProfileReport(num_nodes=num_nodes, wall_s=wall_s,
                           virtual_s=virtual_s)
    for (kind, *labels), n in trace.counters.items():
        if kind.startswith("spark.shuffle."):
            report.shuffles.setdefault(labels[0], {})[
                kind.rpartition(".")[2]] = n
    for ev in trace:
        if ev.kind in ("net.transmit", "net.msg"):
            fabric = ev.detail["fabric"]
            m = report.comm_matrix.get(fabric)
            if m is None:
                m = np.zeros((num_nodes, num_nodes), dtype=np.int64)
                report.comm_matrix[fabric] = m
            m[ev.detail["src"], ev.detail["dst"]] += ev.detail["nbytes"]
            report.message_counts[fabric] = (
                report.message_counts.get(fabric, 0) + 1)
        elif ev.kind == "net.loopback":
            fabric = ev.detail["fabric"]
            report.loopback_bytes[fabric] = (
                report.loopback_bytes.get(fabric, 0) + ev.detail["nbytes"])
        elif ev.kind == "disk.read":
            report.disk_bytes.setdefault(ev.detail["device"], [0, 0])[0] += \
                ev.detail["nbytes"]
        elif ev.kind == "disk.write":
            report.disk_bytes.setdefault(ev.detail["device"], [0, 0])[1] += \
                ev.detail["nbytes"]
    return report


def profile_session(session, *, wall_s: float | None = None) -> ProfileReport:
    """Aggregate a traced :class:`~repro.platform.Session`'s run.

    The session must have been provisioned with ``trace=True`` in its
    scenario; node count and virtual makespan are read off the session, so
    call sites only add host-side context (``wall_s``).
    """
    from repro.errors import ConfigurationError

    if session.trace is None or not session.trace.enabled:
        raise ConfigurationError(
            "session was not provisioned with trace=True; use "
            "ScenarioSpec(trace=True) to profile a run")
    return profile_trace(session.trace, len(session.cluster.nodes),
                         wall_s=wall_s,
                         virtual_s=session.cluster.engine.makespan())
