"""Deterministic fault injection with per-framework recovery semantics.

The paper's fault-tolerance claims (Section VI-D, Table II's "price of
fault tolerance") are qualitative; this package makes them measurable.
Declare faults on a :class:`~repro.platform.ScenarioSpec`::

    from repro.faults import FaultPlan
    from repro.platform import ScenarioSpec

    spec = ScenarioSpec(nodes=4, faults=(
        FaultPlan(kind="node_crash", at=6.0, target=1),))
    session = spec.session()          # the injector daemon is armed
    result = session.spark().run(app) # crash lands mid-run, Spark recovers

What each framework does about an injected fault:

* **Spark** — executors on a crashed node are lost; the DAG scheduler
  re-runs exactly the lost lineage (missing map partitions, resubmitted
  result tasks), values bit-identical to a fault-free run.
* **Hadoop MapReduce** — attempts on a dead node are treated as failed and
  re-scheduled on surviving nodes; reduces that find a source map's output
  gone report the lost maps, which re-execute before the reduce retries.
* **HDFS** — reads fail over to surviving replicas;
  :class:`~repro.errors.BlockUnavailableError` at replication=1.
* **MPI / OpenMP / OpenSHMEM** — the job aborts with a clean
  :class:`~repro.errors.FaultAbortError` diagnostic: these models have no
  recovery story, which is the paper's point.

See ``docs/faults.md`` for the full model and ``fig8`` (``python -m repro
run fig8``) for the recovery-overhead experiment built on it.
"""

from repro.errors import FaultAbortError, FaultError
from repro.faults.injector import FaultInjector
from repro.faults.plan import KINDS, FaultPlan, seeded_plans

__all__ = [
    "FaultAbortError",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "KINDS",
    "seeded_plans",
]
