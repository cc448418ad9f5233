"""Multi-tenant batch scheduling over the simulated cluster.

The paper benchmarks one framework run at a time; a production
Comet-class machine serves thousands of queued jobs under a SLURM-like
batch scheduler.  This package is that operational layer, kept fully
deterministic so it composes with the repository's fingerprint
discipline:

* :mod:`repro.sched.jobs` — the :class:`Job`/:class:`JobRecord` model
  (tenants, priorities, node requests, the requested-vs-used waste gap);
* :mod:`repro.sched.traffic` — the seeded synthetic trace generator
  (heavy-tailed sizes, bursty arrivals, mixed framework job kinds);
* :mod:`repro.sched.kinds` — job kinds that measure runtimes by running
  the real app adapters in machine-sized sessions (memoized per distinct
  configuration);
* :mod:`repro.sched.scheduler` — the virtual-time FCFS + conservative
  backfill scheduler with fair-share across tenants and ``job.*``
  lifecycle trace events;
* :mod:`repro.sched.metrics` — queue wait, utilization, bounded
  slowdown and resource waste over a computed schedule.

The ``sched-trace`` experiment (``python -m repro run sched-trace``)
wires these together: generate a trace, measure its runtimes on the
target machine, schedule it, report the metrics — one table row per
replication seed, sharded across workers bit-identically to a serial
run.  See ``docs/scheduler.md`` for the model and a walkthrough.

>>> from repro.sched import TraceProfile, generate_jobs, schedule
>>> jobs = generate_jobs(TraceProfile(n_jobs=4, seed=7, pool_nodes=8))
>>> outcome = schedule(jobs, {j.job_id: 60.0 for j in jobs}, pool_nodes=8)
>>> len(outcome.records)
4
"""

from repro.sched.jobs import Job, JobRecord
from repro.sched.kinds import (
    JOB_KINDS,
    JobKind,
    measure_runtimes,
)
from repro.sched.metrics import outcome_metrics
from repro.sched.scheduler import (
    POLICIES,
    BatchScheduler,
    SchedOutcome,
    schedule,
)
from repro.sched.traffic import (
    DEFAULT_TENANTS,
    TenantSpec,
    TraceProfile,
    generate_jobs,
)

__all__ = [
    "Job",
    "JobRecord",
    "JobKind",
    "JOB_KINDS",
    "measure_runtimes",
    "BatchScheduler",
    "SchedOutcome",
    "schedule",
    "POLICIES",
    "TenantSpec",
    "TraceProfile",
    "DEFAULT_TENANTS",
    "generate_jobs",
    "outcome_metrics",
]
