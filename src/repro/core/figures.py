"""One function per paper table/figure: declare scenario, run, collect.

Default parameters are sized so the whole suite regenerates in minutes on a
laptop while preserving the paper's qualitative shapes; every function takes
explicit size knobs so tests can shrink further and ambitious users can
scale up.  Data *logical* sizes match the paper via the filesystem
``scale`` mechanism (an "80 GB" file carries MBs of physical payload); graph
sizes are physically real and therefore default below the paper's 10^6
vertices (see EXPERIMENTS.md for the sizing discussion).

All platform provisioning goes through :mod:`repro.platform`: each measured
point declares a :class:`~repro.platform.ScenarioSpec` and runs inside a
fresh :class:`~repro.platform.Session` — one simulated allocation per
measurement, identical across frameworks.
"""

from __future__ import annotations

from repro.apps import (
    hadoop_answers_count,
    mpi_answers_count,
    mpi_pagerank,
    mpi_parallel_read,
    mpi_reduce_latency,
    openmp_answers_count,
    shmem_reduce_latency,
    spark_answers_count,
    spark_pagerank_bigdatabench,
    spark_pagerank_hibench,
    spark_parallel_read,
    spark_reduce_latency,
)
from repro.cluster import resolve_machine
from repro.core.metrics import TABLE3_CORPUS, measure_module
from repro.core.report import FigureResult, Series, TableResult
from repro.errors import ConfigurationError, SimProcessError
from repro.fs.content import LineContent
from repro.platform import Dataset, ScenarioSpec, Session
from repro.units import GiB, KiB, MiB, fmt_bytes, fmt_rate
from repro.workloads.graphs import GraphSpec
from repro.workloads.stackexchange import StackExchangeSpec, stackexchange_content

# ---------------------------------------------------------------------------
# Table I — experimental setup
# ---------------------------------------------------------------------------


def table1(*, machine: str = "comet") -> TableResult:
    """The node configuration the simulator encodes (paper Table I).

    Renders the named machine's hardware model; the default is the
    paper's SDSC Comet.
    """
    m = resolve_machine(machine)
    node = m.cluster.node
    rows = [
        ["Processor type", m.cpu_model],
        ["Sockets #", "2"],
        ["Cores/socket", str(node.cores // 2)],
        ["Clock speed", f"{node.clock_hz / 1e9:.1f} GHz"],
        ["Flop speed", f"{node.flops / 1e9:.0f} GFlop/s"],
        ["Memory capacity", f"{node.mem_bytes // 2**30} GiB"],
        ["Interconnect", m.interconnect],
        ["Local scratch", fmt_bytes(node.ssd_bytes)
         + f" SSD @ {fmt_rate(node.ssd_read_bw)}"],
    ]
    return TableResult("Table I", f"{m.name.capitalize()} node configuration",
                       ["Attribute", "Value"], rows)


# ---------------------------------------------------------------------------
# Fig 3 — reduce microbenchmark
# ---------------------------------------------------------------------------


def fig3(
    sizes: list[int] | None = None,
    *,
    nodes: int = 8,
    procs_per_node: int = 8,
    iterations: int = 10,
    include_shmem: bool = False,
    machine: str = "comet",
) -> FigureResult:
    """Reduce latency vs message size: MPI, Spark, Spark-RDMA (64 procs).

    On machines without an RDMA shuffle transport (e.g. ``comet-100gbe``)
    the Spark-RDMA series is omitted.
    """
    sizes = sizes or [4, 64, 1 * KiB, 16 * KiB, 256 * KiB, 1 * MiB]
    scenario = ScenarioSpec(nodes=nodes, procs_per_node=procs_per_node,
                            machine=machine)
    transports = scenario.machine_spec.shuffle_transports()
    nprocs = scenario.nprocs
    fig = FigureResult("Fig 3", "Reduce microbenchmark"
                       f" ({nprocs} processes, {procs_per_node}/node)",
                       "message size (bytes)", "latency (s)")

    mpi = mpi_reduce_latency.run_in(scenario.session(), sizes, nprocs,
                                    procs_per_node, iterations=iterations)
    fig.series.append(Series("MPI", [(s, mpi[s]) for s in sizes]))
    for transport, label in (("socket", "Spark"), ("rdma", "Spark-RDMA")):
        if transport not in transports:
            continue
        lat = spark_reduce_latency.run_in(
            scenario.session(), sizes, nprocs, procs_per_node,
            shuffle_transport=transport, iterations=max(1, iterations // 3))
        fig.series.append(Series(label, [(s, lat[s]) for s in sizes]))
    if include_shmem:
        shm = shmem_reduce_latency.run_in(scenario.session(), sizes, nprocs,
                                          procs_per_node,
                                          iterations=iterations)
        fig.series.append(Series("OpenSHMEM", [(s, shm[s]) for s in sizes]))
    return fig


# ---------------------------------------------------------------------------
# Table II — parallel file read
# ---------------------------------------------------------------------------


def _read_scenario(nodes: int, procs_per_node: int, logical_size: int, *,
                   physical: int = 2 * MiB,
                   replication: int | None = None,
                   machine: str = "comet") -> ScenarioSpec:
    """Scenario with the read benchmark's input on local scratch and HDFS."""
    line = "payload-%08d-" + "z" * 100
    content = LineContent(lambda i: line % i, physical // 115)
    scale = max(1, logical_size // content.size)
    from repro.platform import HDFSSpec

    return ScenarioSpec(
        nodes=nodes, procs_per_node=procs_per_node, machine=machine,
        hdfs=HDFSSpec(replication=replication),
        datasets=(Dataset("input.dat", content, scale=scale),))


def table2(
    logical_sizes: tuple[int, ...] = (8 * 10**9, 80 * 10**9),
    *,
    nodes: int = 8,
    procs_per_node: int = 8,
    machine: str = "comet",
) -> TableResult:
    """Parallel file read times (paper Table II)."""
    headers = ["File size", "Spark on HDFS (scratch fs)",
               "Spark on local files (scratch fs)", "MPI (scratch fs)"]
    table = TableResult("Table II", "Parallel file read microbenchmark",
                        headers, [])
    from repro.units import fmt_seconds

    for size in logical_sizes:
        scenario = _read_scenario(nodes, procs_per_node, size,
                                  machine=machine)
        t_hdfs, n1 = spark_parallel_read.run_in(
            scenario.session(), "hdfs://input.dat", procs_per_node)
        # local files split at the same ~128 MB granularity HDFS blocks give
        splits = max(nodes * procs_per_node, size // (128 * 10**6))
        t_local, n2 = spark_parallel_read.run_in(
            scenario.session(), "local://input.dat", procs_per_node,
            min_partitions=splits)
        s = scenario.session()
        t_mpi, n3 = mpi_parallel_read.run_in(
            s, s.local, "input.dat", nodes * procs_per_node, procs_per_node)
        assert n1 == n2 == n3, "implementations disagree on record count"
        table.rows.append([fmt_bytes(size), fmt_seconds(t_hdfs),
                           fmt_seconds(t_local), fmt_seconds(t_mpi)])
    return table


# ---------------------------------------------------------------------------
# Fig 4 — StackExchange AnswersCount
# ---------------------------------------------------------------------------


def _select_series(available: tuple[str, ...],
                   series: tuple[str, ...] | None) -> frozenset[str]:
    """Resolve a figure's ``series`` filter against its framework list.

    ``None`` selects everything; anything else must be a non-empty subset
    (a :class:`~repro.errors.ConfigurationError` otherwise, worded as the
    driver's plan words it).  Each framework run provisions its own
    :class:`~repro.platform.scenario.Session`, so running a subset leaves
    every selected point bit-identical to the full figure — the property
    the driver's (point × series) unit plan relies on
    (:mod:`repro.platform.driver`).
    """
    if series is None:
        return frozenset(available)
    if not series or any(s not in available for s in series):
        raise ConfigurationError(
            f"series {list(series)} must be a non-empty subset of "
            f"{list(available)}")
    return frozenset(series)


def fig4(
    proc_counts: tuple[int, ...] = (8, 16, 32, 64, 128),
    *,
    procs_per_node: int = 8,
    logical_size: int = 80 * GiB,
    spec: StackExchangeSpec | None = None,
    series: tuple[str, ...] | None = None,
    machine: str = "comet",
) -> FigureResult:
    """AnswersCount execution time vs process count (paper Fig 4).

    OpenMP appears only at thread counts that fit one node; MPI points
    where the 2 GiB ``int`` chunk limit bites are recorded as absent —
    exactly the gaps the paper describes.
    """
    spec = spec or StackExchangeSpec(n_posts=20_000)
    content = stackexchange_content(spec)
    scale = max(1, logical_size // content.size)

    def session_with_data(nodes: int) -> Session:
        return ScenarioSpec(
            nodes=nodes, procs_per_node=procs_per_node, machine=machine,
            datasets=(Dataset("posts.txt", content, scale=scale),)).session()

    fig = FigureResult("Fig 4", "StackExchange AnswersCount"
                       f" ({fmt_bytes(content.size * scale)} dataset,"
                       f" {procs_per_node} processes/node)",
                       "processes", "execution time (s)")
    want = _select_series(("OpenMP", "MPI", "Spark", "Hadoop"), series)
    omp = Series("OpenMP")
    mpi = Series("MPI")
    spark = Series("Spark")
    hadoop = Series("Hadoop")
    node_cores = resolve_machine(machine).cluster.node.cores
    for p in proc_counts:
        nodes = -(-p // procs_per_node)
        # OpenMP: single node only
        if "OpenMP" in want:
            if p <= node_cores:
                s = session_with_data(1)
                t, _ = openmp_answers_count.run_in(s, s.local, "posts.txt", p)
                omp.add(p, t)
            else:
                omp.add(p, None)
        # MPI: absent where a chunk exceeds INT_MAX
        if "MPI" in want:
            s = session_with_data(nodes)
            try:
                t, _ = mpi_answers_count.run_in(s, s.local, "posts.txt", p,
                                                procs_per_node)
                mpi.add(p, t)
            except SimProcessError as exc:
                from repro.errors import MPIIntOverflowError

                if not isinstance(exc.__cause__, MPIIntOverflowError):
                    raise
                mpi.add(p, None)
        if "Spark" in want:
            t, _ = spark_answers_count.run_in(
                session_with_data(nodes), "hdfs://posts.txt", procs_per_node,
                executor_nodes=list(range(nodes)))
            spark.add(p, t)
        if "Hadoop" in want:
            t, _ = hadoop_answers_count.run_in(
                session_with_data(nodes), "hdfs://posts.txt",
                map_slots_per_node=procs_per_node)
            hadoop.add(p, t)
    fig.series = [s for s in (omp, mpi, spark, hadoop) if s.name in want]
    return fig


# ---------------------------------------------------------------------------
# Fig 6 / Fig 7 — PageRank
# ---------------------------------------------------------------------------


def _spark_pagerank_inputs(graph: GraphSpec, spark_physical_vertices: int):
    """Spark-side inputs of the PageRank figures.

    The Spark engine computes on real Python records, so it runs a
    structurally identical *physical sample* of the graph and is timed via
    ``record_scale`` as if each record were ``graph.n_vertices / sample``
    records — the same logical-vs-physical scaling the filesystems use
    (DESIGN.md §2).

    Returns ``(spark_content, n_spark, record_scale)`` where
    ``spark_content`` is the HDFS edge-list payload.
    """
    import dataclasses

    from repro.workloads.graphs import ring_edge_list_content

    n_spark = min(graph.n_vertices, spark_physical_vertices)
    sample = dataclasses.replace(graph, n_vertices=n_spark)
    record_scale = max(1, graph.n_vertices // n_spark)
    return ring_edge_list_content(sample), n_spark, record_scale


def _mpi_pagerank_edges(graph: GraphSpec):
    """Edge arrays for the MPI PageRank, which is fully vectorised and so
    runs the paper's *actual* vertex count on real data.  Generating them
    is the costly half of the PageRank inputs (one Zipf draw per edge);
    call this only where an MPI series is about to run."""
    from repro.workloads.graphs import with_ring_arrays

    src, dst = graph.generate_arrays()
    return with_ring_arrays(src, dst, graph.n_vertices)


def _spark_pagerank_session(nodes: int, procs_per_node: int, content,
                            record_scale: int,
                            machine: str = "comet") -> Session:
    return ScenarioSpec(
        nodes=nodes, procs_per_node=procs_per_node, machine=machine,
        datasets=(Dataset("edges.txt", content, scale=record_scale,
                          on=("hdfs",)),)).session()


def _spark_pagerank_series(fig: FigureResult, app, want, machine: str,
                           node_counts: tuple[int, ...], procs_per_node: int,
                           graph: GraphSpec, spark_physical_vertices: int,
                           iterations: int) -> None:
    """Append the Spark and Spark-RDMA series of ``app`` (a Spark PageRank
    module) to ``fig``: one fresh session per node count and transport.
    A transport the machine lacks is omitted."""
    transports = resolve_machine(machine).shuffle_transports()
    content, n_spark, record_scale = _spark_pagerank_inputs(
        graph, spark_physical_vertices)
    for transport, label in (("socket", "Spark"), ("rdma", "Spark-RDMA")):
        if label not in want or transport not in transports:
            continue
        s = Series(label)
        for nodes in node_counts:
            session = _spark_pagerank_session(nodes, procs_per_node, content,
                                              record_scale, machine)
            t, _ = app.run_in(
                session, "hdfs://edges.txt", n_spark, procs_per_node,
                iterations=iterations, shuffle_transport=transport,
                record_scale=record_scale)
            s.add(nodes, t)
        fig.series.append(s)


def fig6(
    node_counts: tuple[int, ...] = (1, 2, 4, 8),
    *,
    procs_per_node: int = 16,
    graph: GraphSpec | None = None,
    iterations: int = 10,
    spark_physical_vertices: int = 16_000,
    series: tuple[str, ...] | None = None,
    machine: str = "comet",
) -> FigureResult:
    """BigDataBench PageRank: MPI vs Spark vs Spark-RDMA (paper Fig 6).

    On machines without an RDMA shuffle transport the Spark-RDMA series
    is omitted.
    """
    graph = graph or GraphSpec(n_vertices=1_000_000, out_degree=8)
    want = _select_series(("MPI", "Spark", "Spark-RDMA"), series)
    fig = FigureResult(
        "Fig 6",
        f"BigDataBench PageRank ({graph.n_vertices} vertices,"
        f" {procs_per_node} processes/node)",
        "nodes", "execution time (s)")
    if "MPI" in want:
        mpi_edges = _mpi_pagerank_edges(graph)
        s_mpi = Series("MPI")
        for nodes in node_counts:
            t, _ = mpi_pagerank.run_in(
                ScenarioSpec(nodes=nodes, procs_per_node=procs_per_node,
                             machine=machine).session(),
                mpi_edges, graph.n_vertices, nodes * procs_per_node,
                procs_per_node, iterations=iterations)
            s_mpi.add(nodes, t)
        fig.series.append(s_mpi)
    _spark_pagerank_series(fig, spark_pagerank_bigdatabench, want, machine,
                           node_counts, procs_per_node, graph,
                           spark_physical_vertices, iterations)
    return fig


def fig7(
    node_counts: tuple[int, ...] = (1, 2, 4, 8),
    *,
    procs_per_node: int = 16,
    graph: GraphSpec | None = None,
    iterations: int = 10,
    spark_physical_vertices: int = 16_000,
    series: tuple[str, ...] | None = None,
    machine: str = "comet",
) -> FigureResult:
    """HiBench PageRank: Spark default vs Spark-RDMA (paper Fig 7).

    On machines without an RDMA shuffle transport the Spark-RDMA series
    is omitted.
    """
    graph = graph or GraphSpec(n_vertices=1_000_000, out_degree=8)
    want = _select_series(("Spark", "Spark-RDMA"), series)
    fig = FigureResult(
        "Fig 7",
        f"HiBench PageRank ({graph.n_vertices} vertices,"
        f" {procs_per_node} processes/node)",
        "nodes", "execution time (s)")
    _spark_pagerank_series(fig, spark_pagerank_hibench, want, machine,
                           node_counts, procs_per_node, graph,
                           spark_physical_vertices, iterations)
    return fig


# ---------------------------------------------------------------------------
# Fig 8 — fault injection and recovery (survey extension)
# ---------------------------------------------------------------------------


def _values_match(a, b) -> bool:
    """Bit-identical result check that tolerates numpy payloads."""
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


def fig8(
    workloads: tuple[str, ...] = ("answerscount", "pagerank", "reduce"),
    *,
    nodes: int = 4,
    procs_per_node: int = 8,
    crash_node: int = 1,
    crash_fraction: float = 0.25,
    logical_size: int = 8 * GiB,
    spec: StackExchangeSpec | None = None,
    graph: GraphSpec | None = None,
    iterations: int = 5,
    spark_physical_vertices: int = 16_000,
    machine: str = "comet",
) -> TableResult:
    """Recovery cost of one injected node crash, per framework (Fig 8).

    The paper discusses fault tolerance qualitatively (Section VI-D: Spark
    recomputes lost partitions from lineage, Hadoop re-executes failed
    tasks, MPI jobs simply die); this survey-extension figure makes the
    comparison quantitative.  Each row runs a workload fault-free, then
    re-runs it on an identical platform with one
    :class:`~repro.faults.FaultPlan` node crash scheduled at
    ``crash_fraction`` of the fault-free duration.  Frameworks with
    recovery report the slowdown (and the run asserts the recovered result
    is bit-identical to the fault-free one); MPI and OpenSHMEM report the
    launcher's abort diagnostic.
    """
    from repro.errors import FaultAbortError
    from repro.faults import FaultPlan
    from repro.spark.context import DEFAULT_APP_STARTUP
    from repro.units import fmt_seconds

    spec = spec or StackExchangeSpec(n_posts=8000)
    graph = graph or GraphSpec(n_vertices=100_000, out_degree=8)
    table = TableResult(
        "Fig 8",
        f"Recovery from one node crash ({nodes} nodes,"
        f" {procs_per_node} processes/node; node {crash_node} crashes at"
        f" {crash_fraction:.0%} of the fault-free run)",
        ["Workload", "Framework", "Fault-free", "With crash", "Outcome"],
        [])

    def measure(workload, framework, base_spec, run, *, start_offset=0.0):
        """Append one row: fault-free run, then the same run under a crash."""
        t_clean, v_clean = run(base_spec.session())
        # schedule the crash in absolute engine time, mid-way through the
        # work observed fault-free (identical platforms share the execution
        # prefix, so the job is provably still running at `at`)
        at = start_offset + crash_fraction * t_clean
        plan = FaultPlan("node_crash", at=at, target=crash_node)
        try:
            t_bad, v_bad = run(base_spec.with_(faults=(plan,)).session())
        except FaultAbortError as exc:
            table.rows.append([workload, framework, fmt_seconds(t_clean),
                               "aborted", str(exc)])
            return
        if not _values_match(v_clean, v_bad):
            raise AssertionError(
                f"{framework} recovered {workload} with a different result: "
                f"{v_bad!r} != fault-free {v_clean!r}")
        table.rows.append([
            workload, framework, fmt_seconds(t_clean), fmt_seconds(t_bad),
            f"recovered, {t_bad / t_clean:.2f}x fault-free "
            f"(+{fmt_seconds(t_bad - t_clean)})"])

    def answerscount_rows():
        content = stackexchange_content(spec)
        scale = max(1, logical_size // content.size)
        base = ScenarioSpec(
            nodes=nodes, procs_per_node=procs_per_node, machine=machine,
            datasets=(Dataset("posts.txt", content, scale=scale),))

        def run_spark(s):
            return spark_answers_count.run_in(
                s, "hdfs://posts.txt", procs_per_node,
                executor_nodes=list(range(nodes)))

        def run_hadoop(s):
            return hadoop_answers_count.run_in(
                s, "hdfs://posts.txt", map_slots_per_node=procs_per_node)

        def run_mpi(s):
            return mpi_answers_count.run_in(
                s, s.local, "posts.txt", nodes * procs_per_node,
                procs_per_node)

        measure("AnswersCount", "Spark (lineage recompute)", base, run_spark,
                start_offset=DEFAULT_APP_STARTUP)
        measure("AnswersCount", "Hadoop (task re-execution)", base,
                run_hadoop)
        measure("AnswersCount", "MPI (no fault tolerance)", base, run_mpi)

    def pagerank_rows():
        content, n_spark, record_scale = _spark_pagerank_inputs(
            graph, spark_physical_vertices)
        mpi_edges = _mpi_pagerank_edges(graph)
        spark_base = ScenarioSpec(
            nodes=nodes, procs_per_node=procs_per_node, machine=machine,
            datasets=(Dataset("edges.txt", content, scale=record_scale,
                              on=("hdfs",)),))
        mpi_base = ScenarioSpec(nodes=nodes, procs_per_node=procs_per_node,
                                machine=machine)

        def run_spark(s):
            return spark_pagerank_bigdatabench.run_in(
                s, "hdfs://edges.txt", n_spark, procs_per_node,
                iterations=iterations, record_scale=record_scale)

        def run_mpi(s):
            return mpi_pagerank.run_in(
                s, mpi_edges, graph.n_vertices, nodes * procs_per_node,
                procs_per_node, iterations=iterations)

        measure("PageRank", "Spark (lineage recompute)", spark_base,
                run_spark, start_offset=DEFAULT_APP_STARTUP)
        measure("PageRank", "MPI (no fault tolerance)", mpi_base, run_mpi)

    def reduce_rows():
        base = ScenarioSpec(nodes=nodes, procs_per_node=procs_per_node,
                            machine=machine)
        n = 16 * KiB // 4
        rounds = max(3, iterations)

        def kernel(pe):
            import numpy as np

            sym = pe.alloc(n, dtype=np.float32)
            for _ in range(rounds):
                pe.local(sym)[:] = 1.0
                pe.sum_to_all(sym)
                pe.barrier_all()
            return float(pe.local(sym)[0])

        def run_shmem(s):
            res = s.shmem(kernel)
            return res.elapsed, res.returns[0]

        measure("Reduce (16 KiB sum_to_all)",
                "OpenSHMEM (no fault tolerance)", base, run_shmem)

    dispatch = {"answerscount": answerscount_rows,
                "pagerank": pagerank_rows, "reduce": reduce_rows}
    for workload in workloads:
        if workload not in dispatch:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown fig8 workload {workload!r}; have {sorted(dispatch)}")
        dispatch[workload]()
    return table


# ---------------------------------------------------------------------------
# Table III — maintainability
# ---------------------------------------------------------------------------


def table3() -> TableResult:
    """LoC + boilerplate per (benchmark, model) over :mod:`repro.apps`."""
    table = TableResult(
        "Table III", "Lines of code and boilerplate per implementation",
        ["Benchmark", "Model", "Code LoC", "Boilerplate LoC"], [])
    for (bench, model), module in sorted(TABLE3_CORPUS.items()):
        m = measure_module(module)
        table.rows.append([bench, model, str(m.code_lines),
                           str(m.boilerplate_lines)])
    return table
