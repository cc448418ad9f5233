"""The paper's contribution layer: experiments, figures, and analysis.

* :mod:`repro.core.report` — result containers + ASCII rendering;
* :mod:`repro.core.metrics` — the Table III LoC/boilerplate analyser;
* :mod:`repro.core.figures` — one function per paper table/figure that
  builds the cluster, runs every framework and returns the series/rows;
* :mod:`repro.core.experiment` — registry + runner (run one from the
  shell with ``python -m repro run <id>``).
"""

from repro.core.experiment import EXPERIMENTS, get_experiment, run_experiment
from repro.core.report import FigureResult, Series, TableResult

__all__ = [
    "FigureResult",
    "TableResult",
    "Series",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
]
