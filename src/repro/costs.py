"""Software cost model: every framework-level constant in one place.

The cluster layer (:mod:`repro.cluster.spec`) models *hardware*; this module
models *software* — what each runtime charges for parsing a record on the
JVM vs in C, dispatching a Spark task through the driver, forking a Hadoop
task JVM, entering an OpenMP region, and so on.  These constants are what
make the paper's qualitative results come out: e.g. the orders-of-magnitude
MPI-vs-Spark gap in Fig 3 is ``spark_job_overhead + task dispatch`` vs a few
``log2(p)`` network latencies.

Values are order-of-magnitude calibrations for the paper's 2015/2016
software generation (OpenMPI 1.8, Spark 1.5, Hadoop 2.6, JDK 7), drawn from
the usual public measurements of these systems.  EXPERIMENTS.md compares
*shapes* against the paper, never absolute numbers.

Use :func:`dataclasses.replace` to build ablation variants (e.g. "what if
Spark's scheduler were free?").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import KiB, US

# ---- HDFS (not machine-dependent: one value is in use) -----------------------
#: bytes/s of the client+datanode software path (checksum verify,
#: DataXceiver copies) charged per byte read on top of the device — the
#: source of the "25% overhead in using HDFS compared to the local
#: filesystem" the paper measures in Table II.
HDFS_CLIENT_RATE = 0.5e9
#: namenode metadata round-trip charged once per block access
HDFS_NAMENODE_LOOKUP = 250e-6


@dataclass(frozen=True)
class SoftwareCosts:
    """Tunable per-framework software costs (seconds / bytes-per-second)."""

    # ---- generic compute rates -------------------------------------------------
    #: combining reduction buffers in compiled code (memory-bound)
    reduce_rate_native: float = 4.0e9
    #: scanning/parsing text in C/C++ (strtok-style)
    parse_rate_native: float = 1.2e9
    #: scanning/parsing text on the JVM (String.split-style; JDK-7-era
    #: String allocation + GC keeps this to low hundreds of MB/s per core —
    #: the paper's own Table II throughputs imply ~30-40 MB/s per core
    #: end-to-end for Spark text scans)
    parse_rate_jvm: float = 100e6
    #: Java object (de)serialisation, bytes/s
    ser_rate_jvm: float = 350e6

    # ---- MPI ---------------------------------------------------------------------
    #: mpirun/orted launch cost per job (independent of p in this range)
    mpi_launch: float = 0.25
    #: additional per-process wireup during MPI_Init
    mpi_init_per_proc: float = 1.5e-3
    #: bookkeeping per MPI call (request/envelope management)
    mpi_per_call: float = 0.4 * US
    #: eager/rendezvous protocol switch point
    mpi_eager_threshold: int = 8 * KiB
    #: per-element overhead applying a reduction op (native loop)
    mpi_io_coordination: float = 25 * US

    # ---- OpenMP --------------------------------------------------------------------
    #: forking/joining a parallel region (per region)
    omp_region_overhead: float = 6 * US
    #: per-thread cost of entering a region
    omp_per_thread: float = 0.3 * US
    #: one barrier inside a region
    omp_barrier: float = 1.5 * US
    #: per dynamic-schedule chunk grab (shared counter)
    omp_dynamic_chunk: float = 0.15 * US
    #: per-task creation/dispatch cost (task model)
    omp_task_overhead: float = 1.2 * US

    # ---- OpenSHMEM --------------------------------------------------------------------
    #: symmetric-heap allocation (collective)
    shmem_alloc: float = 4 * US
    #: per put/get call software overhead (NIC doorbell)
    shmem_rma_overhead: float = 0.25 * US
    #: barrier_all base cost in addition to message rounds
    shmem_barrier_base: float = 0.8 * US

    # ---- Spark ----------------------------------------------------------------------------
    #: driver: building the DAG and submitting one job
    spark_job_overhead: float = 70e-3
    #: driver: computing one stage's tasks + locality preferences
    spark_stage_overhead: float = 25e-3
    #: driver: serialising + dispatching one task (serialised at the driver)
    spark_task_dispatch: float = 1.2e-3
    #: executor: deserialising + launching + reporting one task
    spark_task_overhead: float = 5e-3
    #: executor: per-record closure-call overhead (JVM iterator chain of
    #: boxed tuples; a few hundred ns per record per operator in Spark 1.5)
    spark_record_overhead: float = 250e-9
    #: block-manager bookkeeping per cached partition
    spark_cache_block_overhead: float = 0.8e-3
    #: shuffle: per (map-task, reduce-partition) fetch request overhead.
    #: Total fetches grow as maps x reduces, so this term scales
    #: quadratically with parallelism — the reason default Spark's shuffle
    #: degrades on bigger clusters.  The RDMA engine's staged event-driven
    #: design (SEDA, Lu et al.) makes each fetch far cheaper.
    spark_shuffle_fetch_overhead: float = 0.12e-3
    spark_shuffle_fetch_overhead_rdma: float = 0.08e-3
    #: shuffle transport CPU path, bytes/s: the JVM socket engine (NIO
    #: copies, byte[] churn) vs the RDMA plugin's near-zero-copy path —
    #: the difference Lu et al. measure as 20-83% shuffle speedup
    spark_shuffle_socket_rate: float = 800e6
    spark_shuffle_rdma_rate: float = 6e9

    # ---- Hadoop MapReduce -------------------------------------------------------------------
    #: client + YARN: submitting one job (famously tens of seconds)
    hadoop_job_submit: float = 8.0
    #: spawning one task-attempt JVM
    hadoop_task_jvm: float = 1.4
    #: heartbeat-driven scheduling delay per task wave
    hadoop_schedule_wave: float = 0.6
    #: sort/merge rate for spills and reduce-side merges, bytes/s
    hadoop_sort_rate: float = 120e6
    #: per map-output fetch (HTTP request) overhead in the reduce shuffle
    hadoop_fetch_overhead: float = 3e-3


#: The stock Comet-era calibration.  Kept as a convenience constant for
#: tests and ablations; runtimes no longer consult it — they resolve
#: their costs from ``cluster.machine.costs`` (the machine axis,
#: :mod:`repro.cluster.machines`), so two sessions on different machines
#: can coexist in one process.
DEFAULT_COSTS = SoftwareCosts()
