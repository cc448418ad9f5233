"""Code metrics for the Table III maintainability analysis.

The paper compares "the total number of lines of code and ... the amount of
boilerplate code required to run the distributed code" across its benchmark
implementations.  We recompute both over the :mod:`repro.apps` corpus:

* **code LoC** — physical lines minus blanks, comments and docstrings
  (counted with :mod:`tokenize`, so multi-line strings are handled);
* **boilerplate LoC** — code lines inside ``# <boilerplate>`` /
  ``# </boilerplate>`` fences, which mark distribution/setup scaffolding
  that carries no algorithmic content.

The absolute numbers differ from the paper's (different languages); the
*ordering* — OpenMP least, Spark < Hadoop, MPI most explicit control — is
the reproduced result.
"""

from __future__ import annotations

import ast
import importlib
import io
import tokenize
from dataclasses import dataclass
from pathlib import Path

BOILER_OPEN = "# <boilerplate>"
BOILER_CLOSE = "# </boilerplate>"


@dataclass(frozen=True)
class CodeMetrics:
    """LoC breakdown of one source file."""

    path: str
    total_lines: int
    code_lines: int
    boilerplate_lines: int


def _docstring_lines(source: str) -> set[int]:
    """Line numbers occupied by module/class/function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            body = getattr(node, "body", [])
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0]
                lines.update(range(doc.lineno, (doc.end_lineno or doc.lineno) + 1))
    return lines


def _code_line_numbers(source: str) -> set[int]:
    """Line numbers containing code (not blank/comment/docstring)."""
    lines: set[int] = set()
    skip = _docstring_lines(source)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT,
                        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
                        tokenize.ENCODING):
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in skip:
                lines.add(line)
    return lines


def measure_source(source: str, path: str = "<string>") -> CodeMetrics:
    """Compute metrics for Python source text."""
    raw_lines = source.splitlines()
    code = _code_line_numbers(source)
    in_boiler = False
    boiler = 0
    for i, line in enumerate(raw_lines, start=1):
        stripped = line.strip()
        if stripped.startswith(BOILER_OPEN):
            in_boiler = True
            continue
        if stripped == BOILER_CLOSE:
            in_boiler = False
            continue
        if in_boiler and i in code:
            boiler += 1
    return CodeMetrics(
        path=path,
        total_lines=len(raw_lines),
        code_lines=len(code),
        boilerplate_lines=boiler,
    )


def measure_module(module_name: str) -> CodeMetrics:
    """Metrics for an importable module's source file."""
    mod = importlib.import_module(module_name)
    path = Path(mod.__file__)  # type: ignore[arg-type]
    return measure_source(path.read_text(), str(path))


#: (benchmark, model) -> implementing module, the Table III corpus
TABLE3_CORPUS: dict[tuple[str, str], str] = {
    ("Reduce", "MPI"): "repro.apps.reduce_bench.osu_mpi",
    ("Reduce", "Spark"): "repro.apps.reduce_bench.spark_reduce",
    ("Reduce", "OpenSHMEM"): "repro.apps.reduce_bench.shmem_reduce",
    ("FileRead", "MPI"): "repro.apps.fileread.mpi_read",
    ("FileRead", "Spark"): "repro.apps.fileread.spark_read",
    ("AnswersCount", "OpenMP"): "repro.apps.answerscount.openmp_ac",
    ("AnswersCount", "MPI"): "repro.apps.answerscount.mpi_ac",
    ("AnswersCount", "Spark"): "repro.apps.answerscount.spark_ac",
    ("AnswersCount", "Hadoop"): "repro.apps.answerscount.hadoop_ac",
    ("PageRank", "MPI"): "repro.apps.pagerank.mpi_pr",
    ("PageRank", "Spark"): "repro.apps.pagerank.spark_bigdatabench",
}
