"""Hardware specifications, including the paper's Comet platform (Table I).

All bandwidths are bytes/second, latencies seconds, sizes bytes.  The
numbers for Comet come from Table I of the paper plus publicly documented
characteristics of its components (FDR InfiniBand, Haswell memory system,
local SATA SSD scratch).  They are *calibration inputs*, not measurements we
claim to reproduce exactly; EXPERIMENTS.md compares shapes, not absolutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.units import GB, GiB, MB, US


@dataclass(frozen=True)
class FabricSpec:
    """Timing model of one communication path ("fabric").

    Parameters
    ----------
    latency:
        One-way end-to-end latency per message (wire + stack), seconds.
    bandwidth:
        Effective per-NIC bandwidth for this protocol, bytes/s.
    per_msg_cpu:
        CPU time charged per message for the software send path (socket
        syscalls, driver work); ~0 for RDMA where the NIC does the work.
    copy_rate:
        Rate at which payload bytes must be copied/serialised through the
        CPU before hitting the wire (``None`` = zero-copy, i.e. RDMA).
    """

    name: str
    latency: float
    bandwidth: float
    per_msg_cpu: float = 0.0
    copy_rate: float | None = None

    def sw_overhead(self, nbytes: float) -> float:
        """CPU seconds spent on the software path for one ``nbytes`` message."""
        t = self.per_msg_cpu
        if self.copy_rate is not None:
            t += nbytes / self.copy_rate
        return t


#: FDR InfiniBand used natively via RDMA verbs (MPI, OpenSHMEM, the
#: RDMA-Spark shuffle plugin).  ~56 Gb/s signalling => ~6.4 GB/s effective.
IB_FDR_RDMA = FabricSpec(
    name="ib-fdr-rdma", latency=1.9 * US, bandwidth=6.4 * GB, per_msg_cpu=0.3 * US,
)

#: IP-over-InfiniBand: same wire, but payloads traverse the kernel TCP
#: stack and (for the Big Data frameworks, the only users of this path)
#: the JVM socket layer.  Raw iperf on FDR IPoIB reaches 1-2 GB/s, but the
#: effective per-node throughput of JVM-socket applications is a few
#: hundred MB/s — the value that matters here, since every IPoIB consumer
#: in these experiments is Spark or Hadoop.
IPOIB = FabricSpec(
    name="ipoib", latency=25 * US, bandwidth=0.45 * GB, per_msg_cpu=18 * US,
    copy_rate=3.2 * GB,
)

#: Plain 10 GbE sockets — the "conventional hardware" Hadoop targets.
ETH_10G = FabricSpec(
    name="eth-10g", latency=55 * US, bandwidth=1.05 * GB, per_msg_cpu=25 * US,
    copy_rate=3.2 * GB,
)

#: 100 GbE over the kernel TCP stack: wire bandwidth rivals FDR InfiniBand
#: but every payload still crosses the socket/copy path, so small-message
#: latency and per-message CPU stay Ethernet-class.  Used by the
#: ``comet-100gbe`` what-if machine (:mod:`repro.cluster.machines`).
ETH_100G = FabricSpec(
    name="eth-100g", latency=20 * US, bandwidth=10.5 * GB, per_msg_cpu=20 * US,
    copy_rate=3.2 * GB,
)

#: Commodity gigabit Ethernet — the original Hadoop deployment target.
ETH_1G = FabricSpec(
    name="eth-1g", latency=80 * US, bandwidth=0.117 * GB, per_msg_cpu=30 * US,
    copy_rate=3.2 * GB,
)


@dataclass(frozen=True)
class NodeSpec:
    """One compute node (Table I of the paper)."""

    cores: int = 24                    # 2 sockets x 12 cores
    clock_hz: float = 2.5e9            # Xeon E5-2680v3
    flops: float = 960e9               # peak, per Table I
    mem_bytes: int = 128 * GiB         # 128 GB DDR4
    mem_bw: float = 110 * GB           # aggregate stream bandwidth, 2 sockets
    ssd_bytes: int = 320 * GB          # local scratch
    ssd_read_bw: float = 1.05 * GB     # sequential read
    ssd_write_bw: float = 0.55 * GB    # sequential write
    ssd_latency: float = 90e-6         # per-request service latency


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster: ``num_nodes`` copies of ``node`` + fabrics."""

    name: str
    num_nodes: int
    node: NodeSpec = field(default_factory=NodeSpec)
    fabrics: tuple[FabricSpec, ...] = (IB_FDR_RDMA, IPOIB, ETH_10G)
    #: shared filesystem (NFS/Lustre front) aggregate bandwidth and latency
    nfs_bandwidth: float = 2.5 * GB
    nfs_latency: float = 450e-6

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("cluster needs at least one node")
        names = [f.name for f in self.fabrics]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate fabric names: {names}")

    def fabric(self, name: str) -> FabricSpec:
        """Look up a fabric by name."""
        for f in self.fabrics:
            if f.name == name:
                return f
        raise ConfigurationError(
            f"unknown fabric {name!r} on {self.name!r}; "
            f"available fabrics: {[f.name for f in self.fabrics]}"
        )

    def with_nodes(self, num_nodes: int) -> "ClusterSpec":
        """A copy of this spec with a different node count."""
        return replace(self, num_nodes=num_nodes)


#: The paper's platform: SDSC Comet (Table I).  The paper uses at most 8
#: nodes of the 1,984; experiments size the cluster with ``with_nodes``.
COMET = ClusterSpec(name="comet", num_nodes=8)

#: A deliberately tiny configuration for fast unit tests.
TESTING = ClusterSpec(
    name="testing",
    num_nodes=2,
    node=NodeSpec(cores=4, mem_bytes=8 * GiB, ssd_bytes=50 * GB),
)

# Re-exported convenience size for test files
SMALL_FILE = 64 * MB
