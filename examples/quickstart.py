#!/usr/bin/env python3
"""Quickstart: the same word-count in all five programming models.

Declares a 2-node simulated Comet slice with a staged text corpus as a
:class:`~repro.platform.ScenarioSpec`, then counts words with OpenMP, MPI,
OpenSHMEM, Hadoop MapReduce and Spark — printing each framework's answer
(identical) and virtual execution time (very much not identical).  Each
framework gets a fresh :class:`~repro.platform.Session` of the *same*
scenario: one platform, five models, which is the paper's whole method.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.fs import LineContent
from repro.fs.records import iter_all_records, read_split_records
from repro.mapreduce import JobConf
from repro.platform import Dataset, HDFSSpec, ScenarioSpec, Session

WORDS = ["exascale", "convergence", "paradigm", "shuffle", "lineage",
         "collective", "latency", "locality"]
N_LINES = 4000

SCENARIO = ScenarioSpec(
    nodes=2,
    procs_per_node=4,
    hdfs=HDFSSpec(replication=2, block_size=16 * 1024),
    datasets=(Dataset("corpus.txt", LineContent(
        lambda i: " ".join(WORDS[(i + j) % len(WORDS)] for j in range(5)),
        N_LINES)),),
)


def reference_counts(session: Session) -> Counter:
    lines = iter_all_records(session.local, "corpus.txt")
    return Counter(w for line in lines for w in line.split())


# --------------------------------------------------------------------------
# OpenMP: one node, worksharing over chunks, reduction of partial counters
# --------------------------------------------------------------------------

def openmp_wordcount(session: Session) -> tuple[Counter, float]:
    fs = session.local
    size = fs.size("corpus.txt")
    chunk = 16 * 1024
    n_chunks = -(-size // chunk)

    def region(omp):
        from repro.sim import current_process

        local = Counter()
        for i in omp.for_range(n_chunks, schedule="dynamic"):
            proc = current_process()
            records = proc.run_steps(read_split_records(
                fs, proc, "corpus.txt",
                i * chunk, min(size, (i + 1) * chunk)))
            for line in records:
                local.update(line.split())
        total = omp.reduce(local, op=lambda a, b: a + b)
        return total

    res = session.openmp(region, 8)
    return res.returns[0], res.elapsed


# --------------------------------------------------------------------------
# MPI: block-partitioned file, local counting, reduce to rank 0
# --------------------------------------------------------------------------

def mpi_wordcount(session: Session) -> tuple[Counter, float]:
    fs = session.local

    def main(comm):
        size = fs.size("corpus.txt")
        chunk = -(-size // comm.size)
        proc = __import__("repro.sim",
                          fromlist=["current_process"]).current_process()
        records = proc.run_steps(read_split_records(
            fs, proc, "corpus.txt", comm.rank * chunk,
            min(size, (comm.rank + 1) * chunk)))
        local = Counter()
        for line in records:
            local.update(line.split())
        return comm.reduce(local, op=lambda a, b: a + b, root=0)

    res = session.mpi(main)
    return res.returns[0], res.elapsed


# --------------------------------------------------------------------------
# OpenSHMEM: per-PE dense count vectors in the symmetric heap, sum_to_all
# --------------------------------------------------------------------------

def shmem_wordcount(session: Session) -> tuple[Counter, float]:
    fs = session.local
    vocab = {w: i for i, w in enumerate(WORDS)}

    def main(pe):
        from repro.sim import current_process

        counts = pe.alloc(len(vocab), dtype=np.float64)
        size = fs.size("corpus.txt")
        chunk = -(-size // pe.n_pes)
        proc = current_process()
        records = proc.run_steps(read_split_records(
            fs, proc, "corpus.txt",
            pe.my_pe * chunk, min(size, (pe.my_pe + 1) * chunk)))
        local = pe.local(counts)
        for line in records:
            for w in line.split():
                local[vocab[w]] += 1
        pe.sum_to_all(counts)
        return Counter({w: int(pe.local(counts)[i])
                        for w, i in vocab.items()})

    res = session.shmem(main)
    return res.returns[0], res.elapsed


# --------------------------------------------------------------------------
# Hadoop MapReduce: classic mapper/combiner/reducer
# --------------------------------------------------------------------------

def hadoop_wordcount(session: Session) -> tuple[Counter, float]:
    conf = JobConf(
        name="wordcount",
        input_url="hdfs://corpus.txt",
        mapper=lambda line: [(w, 1) for w in line.split()],
        combiner=lambda k, vs: [(k, sum(vs))],
        reducer=lambda k, vs: [(k, sum(vs))],
        num_reduces=4,
    )
    result = session.mapreduce(conf)
    return Counter(dict(result.output)), result.elapsed


# --------------------------------------------------------------------------
# Spark: textFile -> flatMap -> reduceByKey
# --------------------------------------------------------------------------

def spark_wordcount(session: Session) -> tuple[Counter, float]:
    sc = session.spark()

    def app(sc):
        return dict(
            sc.text_file("hdfs://corpus.txt")
            .flat_map(str.split)
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda a, b: a + b, 8)
            .collect()
        )

    result = sc.run(app)
    return Counter(result.value), result.elapsed


def main() -> None:
    reference = reference_counts(SCENARIO.session())
    print(f"corpus: {N_LINES} lines, {sum(reference.values())} words\n")
    runners = [
        ("OpenMP (8 threads)", openmp_wordcount),
        ("MPI (8 ranks)", mpi_wordcount),
        ("OpenSHMEM (8 PEs)", shmem_wordcount),
        ("Hadoop MapReduce", hadoop_wordcount),
        ("Spark", spark_wordcount),
    ]
    print(f"{'framework':<20} {'virtual time':>14}   correct?")
    for name, fn in runners:
        counts, elapsed = fn(SCENARIO.session())
        ok = counts == reference
        print(f"{name:<20} {elapsed:>12.3f} s   {'yes' if ok else 'NO'}")
        assert ok, f"{name} produced wrong counts!"


if __name__ == "__main__":
    main()
