"""Named machines: hardware + software-cost calibration + fabric routing.

A :class:`MachineSpec` bundles everything "the machine" means to an
experiment: the :class:`~repro.cluster.spec.ClusterSpec` hardware, the
:class:`~repro.costs.SoftwareCosts` calibration, and the default fabric
routing (which fabric MPI/SHMEM ride vs the Big Data frameworks, and what
each Spark shuffle transport maps to).  Runtimes resolve their defaults
from ``cluster.machine`` instead of module-level singletons, so two
sessions on different machines coexist in one process and a what-if
machine changes *every* layer consistently.

The registry ships the paper's platform plus three what-if variants:

``comet``
    SDSC Comet exactly as Table I encodes it — the default everywhere,
    bit-identical to the pre-machine-axis goldens.
``comet-100gbe``
    Comet with the InfiniBand HCA swapped for a 100 GbE NIC: comparable
    wire bandwidth, but no RDMA path — everything (including MPI) rides
    kernel sockets.  Isolates what the paper's gap owes to RDMA semantics
    vs raw bandwidth.
``commodity-eth``
    The "conventional Hadoop cluster" the Big Data stack was designed
    for: fewer, slower cores, gigabit Ethernet, HDD scratch.
``comet-nvme``
    Comet with NVMe-class local scratch — a storage-only what-if; fabric
    and costs unchanged.

Variants are plain ``dataclasses.replace`` derivations; define your own
with :meth:`MachineSpec.with_` + :func:`register_machine` (see
``docs/hardware.md``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.cluster.spec import (
    COMET,
    ETH_1G,
    ETH_100G,
    ClusterSpec,
    NodeSpec,
)
from repro.costs import SoftwareCosts
from repro.errors import ConfigurationError
from repro.units import GB, GiB, TB, US


@dataclass(frozen=True)
class MachineSpec:
    """One named machine: hardware, cost calibration and fabric routing.

    ``hpc_fabric`` is what the native runtimes (MPI, OpenSHMEM) use by
    default; ``bigdata_fabric`` carries the JVM-socket traffic (HDFS,
    Hadoop shuffle, the Spark control plane and default shuffle);
    ``shuffle_fabrics`` maps each supported Spark shuffle transport name
    to the fabric it rides.  All three must name fabrics present on
    ``cluster`` — :meth:`check` enforces it for registry machines.
    """

    name: str
    description: str
    cluster: ClusterSpec
    costs: SoftwareCosts = field(default_factory=SoftwareCosts)
    #: fabric for the native HPC runtimes (MPI, OpenSHMEM)
    hpc_fabric: str = "ib-fdr-rdma"
    #: fabric for JVM-socket traffic (HDFS, Hadoop, Spark control plane)
    bigdata_fabric: str = "ipoib"
    #: Spark shuffle transport name -> fabric name
    shuffle_fabrics: tuple[tuple[str, str], ...] = (
        ("socket", "ipoib"), ("rdma", "ib-fdr-rdma"))
    #: human-readable hardware description (Table I rendering)
    cpu_model: str = "Intel Xeon E5-2680v3 (modelled)"
    interconnect: str = "FDR InfiniBand (RDMA / IPoIB modelled)"

    def shuffle_transports(self) -> tuple[str, ...]:
        """Spark shuffle transport names this machine supports."""
        return tuple(t for t, _ in self.shuffle_fabrics)

    def shuffle_fabric(self, transport: str) -> str:
        """The fabric name a Spark shuffle transport rides on this machine."""
        for t, fabric in self.shuffle_fabrics:
            if t == transport:
                return fabric
        raise ConfigurationError(
            f"unknown shuffle transport {transport!r} on machine "
            f"{self.name!r}; available transports: "
            f"{list(self.shuffle_transports())}")

    def with_(self, **changes) -> "MachineSpec":
        """A copy of this machine with fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_nodes(self, num_nodes: int) -> "MachineSpec":
        """A copy of this machine resized to ``num_nodes`` nodes."""
        return dataclasses.replace(
            self, cluster=self.cluster.with_nodes(num_nodes))

    def check(self) -> "MachineSpec":
        """Validate the costs and that every routing entry names a fabric
        on ``cluster``.

        Every cost must be finite and ``>= 0``, and every ``*rate*`` field
        ``> 0``: a NaN charge would otherwise poison the clocks it reaches
        while the times around it still look plausible.
        """
        for f in dataclasses.fields(self.costs):
            value = getattr(self.costs, f.name)
            is_rate = "rate" in f.name
            if not (math.isfinite(value)
                    and (value > 0 if is_rate else value >= 0)):
                raise ConfigurationError(
                    f"machine {self.name!r}: costs.{f.name} must be finite "
                    f"and {'> 0' if is_rate else '>= 0'}, got {value!r}")
        for label, fabric in (("hpc_fabric", self.hpc_fabric),
                              ("bigdata_fabric", self.bigdata_fabric),
                              *(("shuffle_fabrics", f)
                                for _, f in self.shuffle_fabrics)):
            try:
                self.cluster.fabric(fabric)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"machine {self.name!r}: {label} routes to {exc}"
                ) from None
        return self


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: The paper's platform: SDSC Comet (Table I) with the Comet-era software
#: calibration.  Default for every scenario; bit-identical to the goldens.
COMET_MACHINE = MachineSpec(
    name="comet",
    description="SDSC Comet (paper Table I): FDR InfiniBand, SSD scratch",
    cluster=COMET,
).check()

#: Comet with the IB HCA swapped for a 100 GbE NIC: similar wire bandwidth,
#: no RDMA anywhere — MPI rides the kernel socket stack too.
COMET_100GBE = MachineSpec(
    name="comet-100gbe",
    description="Comet nodes on 100 GbE sockets: IB-class bandwidth, no RDMA",
    cluster=dataclasses.replace(COMET, name="comet-100gbe",
                                fabrics=(ETH_100G,)),
    hpc_fabric="eth-100g",
    bigdata_fabric="eth-100g",
    shuffle_fabrics=(("socket", "eth-100g"),),
    interconnect="100 GbE (sockets only, modelled)",
).check()

#: The "conventional Hadoop cluster": fewer, slower cores, 1 GbE, HDD
#: scratch, a modest NFS head.  JVM costs stay Comet-era; the point of the
#: variant is the hardware floor the Big Data stack was designed for.
COMMODITY_ETH = MachineSpec(
    name="commodity-eth",
    description="commodity Hadoop-era cluster: 1 GbE, HDD scratch",
    cluster=ClusterSpec(
        name="commodity-eth",
        num_nodes=8,
        node=NodeSpec(
            cores=16, clock_hz=2.2e9, flops=280e9,
            mem_bytes=64 * GiB, mem_bw=60 * GB,
            ssd_bytes=2 * TB, ssd_read_bw=0.16 * GB, ssd_write_bw=0.14 * GB,
            ssd_latency=8e-3,
        ),
        fabrics=(ETH_1G,),
        nfs_bandwidth=0.5 * GB,
        nfs_latency=2e-3,
    ),
    hpc_fabric="eth-1g",
    bigdata_fabric="eth-1g",
    shuffle_fabrics=(("socket", "eth-1g"),),
    cpu_model="commodity Xeon (modelled)",
    interconnect="1 GbE (sockets only, modelled)",
).check()

#: Comet with NVMe-class local scratch: a storage-only what-if.
COMET_NVME = MachineSpec(
    name="comet-nvme",
    description="Comet with NVMe-class local scratch (storage what-if)",
    cluster=dataclasses.replace(
        COMET, name="comet-nvme",
        node=dataclasses.replace(
            COMET.node, ssd_read_bw=3.2 * GB, ssd_write_bw=1.8 * GB,
            ssd_latency=20 * US),
    ),
).check()

#: All registered machines, by name.  ``register_machine`` adds to this.
MACHINES: dict[str, MachineSpec] = {
    m.name: m
    for m in (COMET_MACHINE, COMET_100GBE, COMMODITY_ETH, COMET_NVME)
}

#: The machine every scenario uses unless told otherwise.
DEFAULT_MACHINE = COMET_MACHINE.name


def machine_names() -> list[str]:
    """Registered machine names, sorted."""
    return sorted(MACHINES)


def get_machine(name: str) -> MachineSpec:
    """Look up a registered machine by name."""
    try:
        return MACHINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown machine {name!r}; available machines: "
            f"{machine_names()}") from None


def register_machine(machine: MachineSpec) -> MachineSpec:
    """Add a machine to the registry (validated); returns it."""
    if machine.name in MACHINES:
        raise ConfigurationError(
            f"machine {machine.name!r} is already registered")
    MACHINES[machine.name] = machine.check()
    return machine


def resolve_machine(machine: "str | MachineSpec") -> MachineSpec:
    """Coerce a machine name or spec to a :class:`MachineSpec`."""
    if isinstance(machine, MachineSpec):
        return machine
    return get_machine(machine)
