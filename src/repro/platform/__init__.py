"""Platform provisioning and experiment orchestration.

Two halves, one seam:

* :mod:`repro.platform.scenario` — the declarative :class:`ScenarioSpec`
  and the :class:`Session` that provisions cluster + filesystems + staged
  datasets + framework runtime handles exactly once per measured run;
* :mod:`repro.platform.driver` — the process-parallel experiment driver
  that shards registry experiments (and the independent points inside a
  figure's sweep) across worker subprocesses, emits per-unit manifests,
  and merges results bit-identically to serial execution.

Every entry layer — ``repro.core.figures``/``ablations``/``extras``/
``validate``, the profiler, the examples and the ``python -m repro`` CLI —
builds its platform here and nowhere else.

Fault plans declared on a spec (``ScenarioSpec(faults=...)``, see
:mod:`repro.faults`) are armed by the session at construction, so injected
failures are part of the provisioned platform like any other knob.
"""

from repro.platform.driver import (
    CachePlan,
    SuiteResult,
    Unit,
    UnitResult,
    check_golden,
    fingerprint_result,
    merge_results,
    plan_units,
    read_golden,
    read_manifest,
    run_suite,
    unit_cache_key,
    write_manifests,
)
from repro.platform.scenario import (
    Dataset,
    HDFSSpec,
    ScenarioSpec,
    Session,
    collect_traces,
    session_app,
)

__all__ = [
    "ScenarioSpec",
    "Session",
    "Dataset",
    "HDFSSpec",
    "collect_traces",
    "session_app",
    "run_suite",
    "plan_units",
    "merge_results",
    "fingerprint_result",
    "Unit",
    "UnitResult",
    "SuiteResult",
    "CachePlan",
    "unit_cache_key",
    "write_manifests",
    "read_manifest",
    "read_golden",
    "check_golden",
]
