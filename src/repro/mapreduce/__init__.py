"""Hadoop-MapReduce-like engine (paper Section II-D).

One job = map tasks over input splits + reduce tasks over hash-partitioned
intermediate data, with the cost structure that puts Hadoop where Fig 4
shows it: a heavyweight job submission, a fresh JVM per task attempt, map
outputs **spilled to disk** (sorted), an HTTP-style fetch per (map, reduce)
pair, and a reduce-side merge — "Hadoop relies heavily on disk operations
and persists intermediate results on disk".

Automatic re-execution of failed tasks (Section II-D: "failed tasks are
re-executed automatically") is built in; inject faults via the
``fault_injector`` hook.

Keys are cut and grouped by the Spark shuffle's kernels, so a record that
is not a ``(key, value)`` pair ends the job in the ``SparkError`` that
Spark and MPI MapReduce raise (the ``SimProcessError``'s cause).

Entry point::

    from repro.mapreduce import JobConf, run_job

    conf = JobConf(
        name="wordcount",
        input_url="hdfs://corpus.txt",
        mapper=lambda line: [(w, 1) for w in line.split()],
        reducer=lambda key, values: [(key, sum(values))],
        num_reduces=4,
    )
    result = run_job(cluster, conf)
"""

from repro.mapreduce.engine import run_job
from repro.mapreduce.types import JobConf, JobCounters, JobResult

__all__ = ["run_job", "JobConf", "JobResult", "JobCounters"]
