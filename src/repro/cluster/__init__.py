"""Hardware model: nodes, interconnect fabrics and storage devices.

The presets in :mod:`repro.cluster.spec` encode the paper's experimental
platform (SDSC Comet, Table I).  A :class:`~repro.cluster.cluster.Cluster`
instantiates the simulated hardware over one :class:`~repro.sim.Engine` and
is the object every runtime (MPI, OpenMP, SHMEM, Spark, Hadoop) is launched
against.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.machines import (
    COMET_MACHINE,
    DEFAULT_MACHINE,
    MACHINES,
    MachineSpec,
    get_machine,
    machine_names,
    register_machine,
    resolve_machine,
)
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.spec import (
    COMET,
    ETH_1G,
    ETH_10G,
    ETH_100G,
    IB_FDR_RDMA,
    IPOIB,
    ClusterSpec,
    FabricSpec,
    NodeSpec,
)
from repro.cluster.storage import StorageDevice, ssd_read_efficiency

__all__ = [
    "Cluster",
    "Network",
    "Node",
    "ClusterSpec",
    "NodeSpec",
    "FabricSpec",
    "MachineSpec",
    "MACHINES",
    "COMET_MACHINE",
    "DEFAULT_MACHINE",
    "get_machine",
    "machine_names",
    "register_machine",
    "resolve_machine",
    "COMET",
    "IB_FDR_RDMA",
    "IPOIB",
    "ETH_10G",
    "ETH_100G",
    "ETH_1G",
    "StorageDevice",
    "ssd_read_efficiency",
]
