"""Declarative platform provisioning: one scenario spec, one session.

The paper's methodological core is running five programming models on *one*
platform so the comparison is fair.  This module is that platform as code:
a :class:`ScenarioSpec` describes the slice of (simulated) Comet an
experiment needs — node count, processes per node, filesystems, staged
datasets, tracing — and a :class:`Session` provisions it exactly once:
cluster, filesystems, staged data and framework runtime handles, in a
deterministic order.

Every entry layer (figures, ablations, extras, validation, examples,
profiler) consumes sessions instead of hand-wiring
``Cluster(machine.with_nodes(n))`` + filesystem + staging calls, so the
provisioning logic exists in one place and the provisioned platform is
identical everywhere — the "same platform" discipline, enforced by
construction.

Example
-------
>>> from repro.platform import Dataset, ScenarioSpec
>>> from repro.fs.content import LineContent
>>> spec = ScenarioSpec(nodes=2, procs_per_node=4, datasets=(
...     Dataset("corpus.txt", LineContent(lambda i: f"line-{i}", 100)),))
>>> s = spec.session()
>>> s.local.size("corpus.txt") > 0
True
>>> res = s.mpi(lambda comm: comm.allreduce(comm.rank))
>>> res.returns[0]
28

A fresh cluster is a fresh virtual-time engine, so one session hosts one
measured run (like a dedicated allocation); call :meth:`ScenarioSpec.session`
again for the next measurement — the spec is the reusable artifact.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.cluster import (
    DEFAULT_MACHINE,
    Cluster,
    MachineSpec,
    resolve_machine,
)
from repro.errors import ConfigurationError
from repro.sim.trace import Trace


#: where an armed :func:`collect_traces` block receives session traces
_collected: list[Trace] | None = None


@contextmanager
def collect_traces() -> Iterator[list[Trace]]:
    """Collect the hb trace of every session provisioned inside the block.

    While armed, each :class:`Session` is built with hb instrumentation
    on — exactly as if its spec said ``hb=True`` — and appends its
    :class:`~repro.sim.trace.Trace` to the yielded list in provisioning
    order.  This is how ``python -m repro analyze check`` reads the
    registered experiments' own runs (:mod:`repro.analysis.scenarios`).
    A session reads no environment: hb is on iff ``spec.hb`` or an armed
    collector.  Observational only — the instrumentation never touches
    virtual time, so fingerprints are identical armed or not
    (``tests/test_analysis_scenarios.py::test_collection_is_observational``).
    """
    global _collected
    outer, traces = _collected, []
    _collected = traces
    try:
        yield traces
    finally:
        _collected = outer


@dataclass(frozen=True)
class HDFSSpec:
    """How to mount HDFS in a scenario.

    ``replication=None`` means one replica per cluster node — the fully
    replicated setting the paper's experiments use so executor placement
    never forces remote reads (Section V-B2).
    """

    replication: int | None = None
    block_size: int | None = None


@dataclass(frozen=True)
class Dataset:
    """One staged input file.

    ``on`` names the filesystems the file is installed on, in order;
    ``scale`` is the logical-vs-physical multiplier (an "80 GB" file with
    MBs of physical payload — DESIGN.md §2).
    """

    path: str
    content: Any
    scale: int = 1
    on: tuple[str, ...] = ("local", "hdfs")


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of the platform an experiment runs on.

    A spec is an immutable value: build one, derive variants with
    :meth:`with_`, and provision as many fresh :class:`Session` objects
    from it as there are measured runs.  Two sessions built from equal
    specs are bit-identical platforms — same node count, same staged
    bytes, same process-id sequence — which is what makes cross-framework
    comparisons (and golden fingerprints) meaningful.

    Fields
    ------
    nodes, procs_per_node:
        Cluster size and process density (executors, ranks, PEs or
        slots per node); ``nprocs`` is their product.
    machine:
        The hardware + cost model to provision — a registry name
        (``"comet"``, ``"commodity-eth"``, …) or a full
        :class:`~repro.cluster.MachineSpec`.  Defaults to the simulated
        SDSC Comet; see :mod:`repro.cluster.machines` and
        ``docs/hardware.md``.  The one place a scenario's hardware,
        cost constants and fabric routing are chosen: a variant is a
        ``machine.with_(...)`` value, not a per-call override.
    hdfs, datasets:
        HDFS mount parameters, and input files staged before the run in
        declaration order.
    trace:
        Enable structured event tracing (the profiler and the
        communication sanitizer read it back).
    hb:
        Enable happens-before instrumentation on top of tracing: vector
        clocks are threaded through the engine and shared-state accesses
        recorded for the race checker (:mod:`repro.analysis.races`).
        Implies ``trace``; observational only — virtual-time outputs are
        bit-identical with the flag on or off.
    faults:
        :class:`~repro.faults.FaultPlan` tuple injected at exact virtual
        times by a session daemon (``docs/faults.md``).  The empty
        default arms nothing — a fault-free session is bit-identical to
        one built before the fault subsystem existed.
    """

    #: cluster size in nodes (the paper sweeps 1..16)
    nodes: int = 2
    #: process density — executors, ranks, PEs or slots per node (the
    #: paper's runs use 8 or 16)
    procs_per_node: int = 8
    #: the machine this scenario provisions — a registry name or a
    #: :class:`~repro.cluster.MachineSpec`; defaults to the simulated
    #: SDSC Comet (see :mod:`repro.cluster.machines`)
    machine: str | MachineSpec = DEFAULT_MACHINE
    #: HDFS mount parameters (replication, block size)
    hdfs: HDFSSpec = field(default_factory=HDFSSpec)
    #: input files staged before the run, in declaration order
    datasets: tuple[Dataset, ...] = ()
    #: enable structured event tracing (the profiler reads it back)
    trace: bool = False
    #: enable happens-before instrumentation on top of tracing: vector
    #: clocks are threaded through the engine and shared-state accesses are
    #: recorded for the race checker (:mod:`repro.analysis.races`).  Implies
    #: ``trace``.  Observational only — virtual-time outputs are
    #: bit-identical with the flag on or off.
    hb: bool = False
    #: fault plans (:class:`repro.faults.FaultPlan`) injected at their
    #: virtual times by a session daemon.  The empty default arms nothing —
    #: a fault-free session is bit-identical to one built before the fault
    #: subsystem existed (no extra processes, no pid shifts).
    faults: tuple[Any, ...] = ()

    @property
    def nprocs(self) -> int:
        """Total process count (``nodes * procs_per_node``)."""
        return self.nodes * self.procs_per_node

    @property
    def machine_spec(self) -> MachineSpec:
        """The resolved :class:`~repro.cluster.MachineSpec`."""
        return resolve_machine(self.machine)

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A copy of this spec with fields replaced.

        >>> ScenarioSpec(nodes=2).with_(nodes=8).nodes
        8
        """
        return dataclasses.replace(self, **changes)

    def session(self) -> "Session":
        """Provision a fresh platform session from this spec."""
        return Session(self)


class Session:
    """A provisioned platform: cluster + filesystems + data + runtimes.

    Construction provisions everything the spec declares; afterwards the
    session only hands out handles.  Filesystems not named by any dataset
    are mounted lazily on first use, so a scenario without staged data is
    exactly a bare cluster.

    One session hosts one measured run: the cluster owns a fresh
    virtual-time engine, and the first framework call
    (:meth:`spark`/:meth:`mpi`/...) that runs it consumes the engine's
    virtual timeline.  Attributes of note: ``cluster`` (the simulated
    hardware), ``trace`` (the event sink when the spec enables tracing,
    else ``None``), and ``faults`` (the armed
    :class:`~repro.faults.FaultInjector` when the spec lists fault plans,
    else ``None``).
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.machine = spec.machine_spec
        node_cores = self.machine.cluster.node.cores
        if spec.procs_per_node > node_cores:
            raise ConfigurationError(
                f"scenario oversubscribes the node model: "
                f"{spec.procs_per_node} processes/node on machine "
                f"{self.machine.name!r} whose nodes have {node_cores} cores")
        hb = spec.hb or _collected is not None
        self.trace = Trace(hb=hb) if spec.trace or hb else None
        if _collected is not None:
            _collected.append(self.trace)
        self.cluster = Cluster(self.machine.with_nodes(spec.nodes),
                               trace=self.trace)
        # Arm fault plans before any datasets or runtimes exist so the
        # injector daemon gets the first pid *when used*; with no plans
        # nothing is imported or spawned and the session is bit-identical
        # to a fault-free build.
        self.faults = None
        if spec.faults:
            from repro.faults import FaultInjector

            self.faults = FaultInjector(self.cluster, spec.faults)
        for ds in spec.datasets:
            self.stage(ds)

    # -- filesystems -----------------------------------------------------------

    @property
    def local(self):
        """The per-node scratch filesystem (mounted on first use)."""
        fs = self.cluster.filesystems.get("local")
        if fs is None:
            from repro.fs import LocalFS

            fs = LocalFS(self.cluster)
        return fs

    @property
    def hdfs(self):
        """The cluster's HDFS instance (mounted on first use)."""
        fs = self.cluster.filesystems.get("hdfs")
        if fs is None:
            from repro.fs import HDFS

            conf = self.spec.hdfs
            kwargs: dict[str, Any] = {
                "replication": conf.replication or self.spec.nodes}
            if conf.block_size is not None:
                kwargs["block_size"] = conf.block_size
            fs = HDFS(self.cluster, **kwargs)
        return fs

    def fs(self, scheme: str):
        """Filesystem by scheme (``"local"``, ``"hdfs"``, ...)."""
        if scheme == "local":
            return self.local
        if scheme == "hdfs":
            return self.hdfs
        try:
            return self.cluster.filesystems[scheme]
        except KeyError:
            raise ConfigurationError(
                f"no filesystem {scheme!r} mounted in this session") from None

    def stage(self, ds: Dataset) -> None:
        """Install one dataset on the filesystems it names."""
        for scheme in ds.on:
            fs = self.fs(scheme)
            if scheme == "local":
                fs.create_replicated(ds.path, ds.content, scale=ds.scale)
            else:
                fs.create(ds.path, ds.content, scale=ds.scale)

    # -- framework runtime handles ---------------------------------------------

    def spark(self, **kwargs: Any):
        """A :class:`~repro.spark.SparkContext` on this session's cluster.

        ``executors_per_node`` defaults to the scenario's processes-per-node
        so all frameworks run at the same process density.
        """
        from repro.spark import SparkContext

        kwargs.setdefault("executors_per_node", self.spec.procs_per_node)
        return SparkContext(self.cluster, **kwargs)

    def mpi(self, fn: Callable[..., Any], nprocs: int | None = None, *,
            procs_per_node: int | None = None, **kwargs: Any):
        """Run an MPI job sized to the scenario (see :func:`repro.mpi.mpi_run`)."""
        from repro.mpi import mpi_run

        return mpi_run(self.cluster, fn, nprocs or self.spec.nprocs,
                       procs_per_node=procs_per_node or self.spec.procs_per_node,
                       **kwargs)

    def openmp(self, fn: Callable[..., Any], num_threads: int | None = None,
               **kwargs: Any):
        """Run an OpenMP region on node 0 (see :func:`repro.openmp.omp_run`)."""
        from repro.openmp import omp_run

        return omp_run(self.cluster, fn,
                       num_threads or self.spec.procs_per_node, **kwargs)

    def shmem(self, fn: Callable[..., Any], npes: int | None = None, *,
              pes_per_node: int | None = None, **kwargs: Any):
        """Run an OpenSHMEM job (see :func:`repro.shmem.shmem_run`)."""
        from repro.shmem import shmem_run

        return shmem_run(self.cluster, fn, npes or self.spec.nprocs,
                         pes_per_node=pes_per_node or self.spec.procs_per_node,
                         **kwargs)

    def mapreduce(self, conf: Any, **kwargs: Any):
        """Run a Hadoop MapReduce job (see :func:`repro.mapreduce.run_job`)."""
        from repro.mapreduce import run_job

        kwargs.setdefault("map_slots_per_node", self.spec.procs_per_node)
        kwargs.setdefault("reduce_slots_per_node", self.spec.procs_per_node)
        return run_job(self.cluster, conf, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Session(nodes={self.spec.nodes}, "
                f"procs_per_node={self.spec.procs_per_node}, "
                f"filesystems={sorted(self.cluster.filesystems)})")


def session_app(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Attach a ``fn.run_in(session, ...)`` adapter to an app function.

    Apps keep their ``fn(cluster, ...)`` signature; the adapter lets entry
    layers hand them a :class:`Session` instead:
    ``mpi_pagerank.run_in(session, edges, ...)``.
    """
    def _run_in(session: Session, *args: Any, **kwargs: Any) -> Any:
        return fn(session.cluster, *args, **kwargs)

    fn.run_in = _run_in  # type: ignore[attr-defined]
    return fn
