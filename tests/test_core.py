"""The core layer: report rendering, metrics, experiment registry, figures."""

from __future__ import annotations

import pytest

from repro.core.experiment import EXPERIMENTS, run_experiment, _ensure_registry
from repro.core.metrics import (
    TABLE3_CORPUS,
    measure_module,
    measure_source,
)
from repro.core.report import FigureResult, Series, TableResult
from repro.errors import ConfigurationError
from repro.units import GiB, KiB
from repro.workloads.graphs import GraphSpec
from repro.workloads.stackexchange import StackExchangeSpec


class TestReport:
    def test_series_add_and_lookup(self):
        s = Series("a")
        s.add(1, 0.5)
        s.add(2, None)
        assert s.y_for(1) == 0.5
        assert s.y_for(2) is None
        with pytest.raises(KeyError):
            s.y_for(99)

    def test_figure_render_includes_all_series(self):
        fig = FigureResult("Fig X", "demo", "n", "time (s)")
        fig.series.append(Series("one", [(1, 0.001), (2, 0.002)]))
        fig.series.append(Series("two", [(1, 1.0), (2, None)]))
        text = fig.render()
        assert "Fig X" in text
        assert "one" in text and "two" in text
        assert "--" in text            # the None cell
        assert "1.00 ms" in text       # adaptive units

    def test_figure_xs_union_in_order(self):
        fig = FigureResult("f", "t", "x", "y")
        fig.series.append(Series("a", [(1, 1.0), (3, 1.0)]))
        fig.series.append(Series("b", [(2, 1.0)]))
        assert fig.xs() == [1, 3, 2]

    def test_table_render_and_cell(self):
        t = TableResult("T", "demo", ["k", "v"], [["a", "1"], ["b", "2"]])
        assert t.cell("b", "v") == "2"
        with pytest.raises(KeyError):
            t.cell("zzz", "v")
        text = t.render()
        assert text.splitlines()[1].startswith("k")


class TestMetrics:
    def test_counts_code_not_comments_or_docstrings(self):
        src = '''"""Module docstring
spanning lines."""

# a comment
X = 1


def f():
    """Doc."""
    return X  # trailing comment
'''
        m = measure_source(src)
        assert m.code_lines == 3  # X=1, def f, return X
        assert m.boilerplate_lines == 0

    def test_boilerplate_fences(self):
        src = """X = 1
# <boilerplate>
setup = 2
more = 3
# </boilerplate>
Y = 4
"""
        m = measure_source(src)
        assert m.code_lines == 4
        assert m.boilerplate_lines == 2

    def test_fence_with_suffix_comment(self):
        src = """# <boilerplate> -- decomposition
a = 1
# </boilerplate>
"""
        assert measure_source(src).boilerplate_lines == 1

    def test_corpus_modules_all_measurable(self):
        for module in TABLE3_CORPUS.values():
            m = measure_module(module)
            assert m.code_lines > 5
            assert 0 <= m.boilerplate_lines < m.code_lines


class TestExperimentRegistry:
    def test_all_paper_artifacts_registered(self):
        reg = _ensure_registry()
        for exp_id in ("table1", "fig3", "table2", "fig4", "fig6", "fig7",
                       "table3"):
            assert exp_id in reg

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_table1_runs_instantly(self):
        result = run_experiment("table1")
        assert result.cell("Sockets #", "Value") == "2"

    def test_table3_orderings(self):
        result = run_experiment("table3")

        def loc(bench, model):
            for row in result.rows:
                if row[:2] == [bench, model]:
                    return int(row[2])
            raise KeyError

        assert loc("FileRead", "Spark") < loc("FileRead", "MPI")
        assert loc("AnswersCount", "Spark") < loc("AnswersCount", "Hadoop")


class TestFiguresTiny:
    """Each figure function at the smallest scale that exercises the path."""

    def test_fig3_tiny(self):
        fig = run_experiment("fig3", sizes=[4, 1 * KiB], nodes=2,
                             procs_per_node=2, iterations=2)
        mpi, spark, _rdma = fig.series
        assert spark.y_for(4) > 50 * mpi.y_for(4)

    def test_table2_tiny(self):
        table = run_experiment("table2", logical_sizes=(200 * 10**6,),
                               nodes=2, procs_per_node=2)
        assert len(table.rows) == 1

    def test_fig4_tiny(self):
        fig = run_experiment(
            "fig4", proc_counts=(4,), procs_per_node=4,
            logical_size=12 * GiB, spec=StackExchangeSpec(n_posts=1500))
        omp, mpi, spark, hadoop = fig.series
        assert mpi.y_for(4) is None          # 12 GiB / 4 > INT_MAX
        assert hadoop.y_for(4) > spark.y_for(4)

    def test_fig6_tiny(self):
        fig = run_experiment(
            "fig6", node_counts=(1, 2), procs_per_node=2,
            graph=GraphSpec(n_vertices=600, out_degree=3), iterations=2,
            spark_physical_vertices=600)
        mpi, spark, rdma = fig.series
        assert mpi.y_for(2) < spark.y_for(2)
        assert rdma.y_for(2) <= spark.y_for(2) * 1.05

    def test_fig7_tiny(self):
        fig = run_experiment(
            "fig7", node_counts=(2,), procs_per_node=2,
            graph=GraphSpec(n_vertices=600, out_degree=3), iterations=2,
            spark_physical_vertices=600)
        spark, rdma = fig.series
        assert rdma.y_for(2) <= spark.y_for(2) * 1.05

    @pytest.mark.parametrize("exp_id, series", [
        ("fig4", ("X",)),   # unknown name
        ("fig6", ()),       # empty selection
    ])
    def test_bad_series_selection_is_a_configuration_error(self, exp_id,
                                                           series):
        # the same wording whether the figure or the driver's plan rejects it
        with pytest.raises(ConfigurationError,
                           match="must be a non-empty subset"):
            run_experiment(exp_id, series=series)


class TestAblationsTiny:
    def test_ablation_persist_tiny(self):
        table = run_experiment(
            "ablation-persist", graph=GraphSpec(n_vertices=500, out_degree=3),
            iterations=2, nodes=2, procs_per_node=2)
        factor = float(table.rows[1][2].rstrip("x"))
        assert factor > 1.0

    def test_ablation_replication_tiny(self):
        table = run_experiment(
            "ablation-replication", nodes=2, executor_nodes=1,
            replication_factors=(1, 2), logical_size=10**9,
            executors_per_node=2)
        assert table.rows[-1][2].startswith("0")  # full replication => local

    def test_ablation_faults_tiny(self):
        table = run_experiment("ablation-faults", nodes=2,
                               executors_per_node=2)
        assert len(table.rows) == 3
        for row in table.rows:
            assert float(row[3].rstrip("x")) >= 1.0


class TestExtrasQuick:
    """The related-work extensions at their registered quick size."""

    def test_extra_kmeans_mpi_far_below_spark(self):
        fig = run_experiment("extra-kmeans", quick=True)
        mpi, spark = fig.series
        assert fig.xs() == [1, 2]
        for nodes in fig.xs():
            # compute-light iterative kernel: the HPC profile wins throughout
            assert mpi.y_for(nodes) < spark.y_for(nodes) / 10

    def test_extra_mapreduce_engine_ordering(self):
        table = run_experiment("extra-mapreduce", quick=True)

        def seconds(row):
            value, unit = row[1].split()
            return float(value) * {"s": 1, "ms": 1e-3, "us": 1e-6,
                                   "min": 60}[unit]

        hadoop, mpi, spark = (seconds(r) for r in table.rows)
        assert mpi < spark < hadoop          # the [36]/[37] ordering
        assert hadoop > 20 * mpi             # "more than 100x" territory


class TestValidate:
    def test_validation_matrix_all_ok(self):
        table = run_experiment("validate", n_posts=1200, n_vertices=150,
                               iterations=3)
        assert len(table.rows) == 9
        statuses = {row[2] for row in table.rows}
        assert statuses == {"ok"}
