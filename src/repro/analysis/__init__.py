"""Static + dynamic analysis for the virtual-time stack.

Every figure and table in this reproduction rests on one invariant: a
simulation's outputs are a pure function of its inputs — bit-identical
across runs, hosts, worker counts and the sharded driver.  This package
enforces that invariant *before* a golden fingerprint can drift, with
three engines:

* :mod:`repro.analysis.lint` — **reprolint**, an AST-based determinism
  linter with rules tuned to this codebase (wall-clock reads, unseeded
  randomness, unordered-collection iteration, ``id()``-keyed maps,
  swallowed errors, stray env escape hatches ...).  Run it with
  ``python -m repro analyze lint src/``.

* :mod:`repro.analysis.races` — a **happens-before race checker**: with
  ``Trace(hb=True)`` the engine threads vector clocks through simulated
  processes and the runtimes record shared-state accesses (SHMEM symmetric
  heap, Spark block store and accumulators, Hadoop map-output spills); the
  checker replays the event stream and reports unsynchronized conflicting
  accesses — TSan for the simulated concurrency.

* :mod:`repro.analysis.sanitize` — a **communication sanitizer** over the
  same hb traces: MUST-style collective matching (same sequence,
  compatible roots/datatypes/party counts on every rank), lock-order
  analysis (potential ABBA inversions, not just manifested ones) and
  wait-for-graph deadlock diagnosis (the engine side names the actual
  cycle; the MPI p2p layer detects the classic large-payload send/send
  trap before it wedges).

``python -m repro analyze check fig4 --quick`` runs a registered
experiment once, traced, and puts every session's trace through both
dynamic engines (:func:`repro.analysis.scenarios.check_experiment`).
"""

from repro.analysis.lint import (  # noqa: F401
    Finding,
    RULES,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.races import (  # noqa: F401
    Access,
    Race,
    RaceReport,
    check_trace,
)
from repro.analysis.sanitize import (  # noqa: F401
    CollEntry,
    SanitizeReport,
    Violation,
    check_collectives,
    check_lock_order,
    check_traces,
)
from repro.analysis.scenarios import (  # noqa: F401
    PLANTED,
    CheckReport,
    check_experiment,
    checkable,
)
