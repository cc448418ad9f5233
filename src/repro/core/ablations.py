"""Ablations for the design choices Section VI discusses.

These go beyond the paper's own figures and quantify the mechanisms its
discussion credits: the persist tuning (VI-C), HDFS replication vs locality
(V-B2) and the cost of each framework's fault-tolerance strategy (VI-D).
"""

from __future__ import annotations

from repro.apps.pagerank import (
    spark_pagerank_bigdatabench,
    spark_pagerank_hibench,
)
from repro.core.report import TableResult
from repro.fs import LineContent
from repro.platform import Dataset, HDFSSpec, ScenarioSpec, Session
from repro.units import GiB, MiB, fmt_bytes, fmt_seconds
from repro.workloads.graphs import GraphSpec, with_ring


def ablation_persist(
    *,
    graph: GraphSpec | None = None,
    iterations: int = 10,
    nodes: int = 4,
    procs_per_node: int = 8,
    machine: str = "comet",
) -> TableResult:
    """PageRank variants: the paper claims the Fig 5 persist tuning alone
    "improve[s] the performance of the Spark implementation by a factor
    of 3"."""
    from repro.workloads.graphs import edge_list_content

    graph = graph or GraphSpec(n_vertices=8000, out_degree=8)
    content = edge_list_content(with_ring(graph.generate(), graph.n_vertices))
    scenario = ScenarioSpec(
        nodes=nodes, procs_per_node=procs_per_node, machine=machine,
        datasets=(Dataset("edges.txt", content, on=("hdfs",)),))

    rows = []
    t_tuned, _ = spark_pagerank_bigdatabench.run_in(
        scenario.session(), "hdfs://edges.txt", graph.n_vertices,
        procs_per_node, iterations=iterations)
    rows.append(["partitionBy + persist (BigDataBench/Fig 5)",
                 fmt_seconds(t_tuned), "1.0x"])
    t_plain, _ = spark_pagerank_hibench.run_in(
        scenario.session(), "hdfs://edges.txt", graph.n_vertices,
        procs_per_node, iterations=iterations)
    rows.append(["no tuning (HiBench shape)", fmt_seconds(t_plain),
                 f"{t_plain / t_tuned:.1f}x"])
    return TableResult(
        "Ablation: persist",
        f"Spark PageRank tuning effect ({graph.n_vertices} vertices, "
        f"{iterations} iterations, {nodes} nodes)",
        ["Variant", "Time", "vs tuned"], rows)


def ablation_replication(
    *,
    nodes: int = 4,
    executor_nodes: int = 2,
    replication_factors: tuple[int, ...] = (1, 2, 4),
    logical_size: int = 8 * GiB,
    executors_per_node: int = 8,
    machine: str = "comet",
) -> TableResult:
    """Section V-B2's observation and fix: with executors on fewer nodes
    than datanodes, low replication forces remote block fetches; raising
    replication to the node count restores locality."""
    content = LineContent(lambda i: f"row-{i:08d}-" + "y" * 100, 20_000)
    scale = max(1, logical_size // content.size)
    rows = []
    for repl in replication_factors:
        session = ScenarioSpec(
            nodes=nodes, procs_per_node=executors_per_node, machine=machine,
            hdfs=HDFSSpec(replication=repl), trace=True,
            datasets=(Dataset("input.dat", content, scale=scale,
                              on=("hdfs",)),)).session()
        sc = session.spark(executor_nodes=list(range(executor_nodes)))
        result = sc.run(lambda sc: sc.text_file("hdfs://input.dat").count())
        moved = sum(ev.detail["nbytes"]
                    for ev in session.trace.filter(kind="net.transmit")
                    if ev.detail["label"].startswith("hdfs:"))
        rows.append([str(repl), fmt_seconds(result.app_elapsed),
                     fmt_bytes(moved)])
    return TableResult(
        "Ablation: replication",
        f"HDFS replication vs executor locality ({executor_nodes} executor "
        f"nodes of {nodes} datanodes)",
        ["Replication factor", "Read time", "Remote block bytes"], rows)


def ablation_faults(*, nodes: int = 2, executors_per_node: int = 4,
                    machine: str = "comet") -> TableResult:
    """Cost of recovering from one lost worker, per framework strategy.

    Spark recomputes lost lineage; Hadoop re-runs the failed attempt; MPI
    (no fault tolerance, Section VI-D) loses the job — represented as a
    full re-run.
    """
    rows = []

    scenario = ScenarioSpec(nodes=nodes, procs_per_node=executors_per_node,
                            machine=machine)

    # -- Spark: cached-data job, kill one executor between actions ----------
    def spark_time(kill: bool) -> float:
        sc = scenario.session().spark()

        def app(sc):
            import repro.sim as sim

            rdd = sc.parallelize(range(40_000), 16).map(
                lambda x: x * x, cost=5e-5).cache()
            rdd.count()
            if kill:
                sc.kill_executor(0)
            t0 = sim.current_process().clock
            rdd.count()
            return sim.current_process().clock - t0

        return sc.run(app).value

    clean, faulted = spark_time(False), spark_time(True)
    rows.append(["Spark (lineage recompute)", fmt_seconds(clean),
                 fmt_seconds(faulted), f"{faulted / clean:.1f}x"])

    # -- Hadoop: retry one map attempt ---------------------------------------
    from repro.mapreduce import JobConf

    def hadoop_time(fail: bool) -> float:
        session = scenario.with_(
            hdfs=HDFSSpec(block_size=1 * MiB),
            datasets=(Dataset("in.txt",
                              LineContent(lambda i: f"k{i % 50} 1", 40_000),
                              on=("hdfs",)),)).session()
        conf = JobConf(
            name="wc", input_url="hdfs://in.txt",
            mapper=lambda line: [(line.split()[0], 1)],
            reducer=lambda k, vs: [(k, sum(vs))], num_reduces=2)
        injector = (lambda kind, tid, attempt:
                    kind == "map" and tid == 0 and attempt == 1) if fail else None
        return session.mapreduce(conf, fault_injector=injector).elapsed

    clean, faulted = hadoop_time(False), hadoop_time(True)
    rows.append(["Hadoop (task re-execution)", fmt_seconds(clean),
                 fmt_seconds(faulted), f"{faulted / clean:.1f}x"])

    # -- MPI: coordinated checkpoint/restart (the future-work extension) -------
    from repro.mpi.checkpoint import (
        SimulatedRankFailure,
        run_with_restart,
    )

    def mpi_job(fail: bool):
        attempts = {"n": 0}

        def body(comm, ckpt):
            from repro.sim import current_process

            if comm.rank == 0:
                attempts["n"] += 1
            restored = ckpt.restore()
            step0, acc = (restored[0] + 1, restored[1]) if restored else (0, 0.0)
            for step in range(step0, 10):
                current_process().compute(0.05)  # one iteration of "science"
                acc += comm.allreduce(float(step))
                if fail and attempts["n"] == 1 and step == 7 and comm.rank == 1:
                    raise SimulatedRankFailure("node crash")
                ckpt.save(step, acc)
            return acc

        return body

    clean_res = run_with_restart(lambda: scenario.session().cluster,
                                 mpi_job(False), nodes * executors_per_node,
                                 procs_per_node=executors_per_node)
    fault_res = run_with_restart(lambda: scenario.session().cluster,
                                 mpi_job(True), nodes * executors_per_node,
                                 procs_per_node=executors_per_node)
    assert clean_res.result.returns[0] == fault_res.result.returns[0]
    rows.append(["MPI (checkpoint/restart extension)",
                 fmt_seconds(clean_res.total_elapsed),
                 fmt_seconds(fault_res.total_elapsed),
                 f"{fault_res.total_elapsed / clean_res.total_elapsed:.1f}x"])
    return TableResult(
        "Ablation: faults",
        "Recovery cost after losing one worker mid-application",
        ["Framework", "Clean", "With one fault", "Overhead"], rows)
