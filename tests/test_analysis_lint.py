"""reprolint: every rule has positive, negative and pragma-suppressed cases.

The fixtures under ``tests/fixtures/lint/`` are linted "as if" they lived
inside the deterministic packages via the ``relpath`` parameter — the same
mechanism that scopes rules inside the real tree.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.errors import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def lint_fixture(name: str, relpath: str = "repro/sim/fixture.py"):
    return lint_source((FIXTURES / name).read_text(), relpath)


def codes(findings) -> list[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# per-rule fixtures: positive + negative + pragma
# ---------------------------------------------------------------------------

FIXTURE_EXPECTATIONS = [
    ("wall_clock.py", "R001", 3),
    ("unseeded_random.py", "R002", 3),
    ("unordered_iter.py", "R003", 4),
    ("id_key.py", "R004", 4),
    ("swallowed_error.py", "R005", 3),
    ("real_sleep.py", "R007", 1),
    ("unstable_hash.py", "R008", 1),
    ("fs_order.py", "R009", 4),
]


@pytest.mark.parametrize("fixture,rule,count", FIXTURE_EXPECTATIONS)
def test_rule_positive_and_pragma(fixture, rule, count):
    """Each fixture yields exactly its marked findings — the 'good' and
    pragma-carrying lines contribute none."""
    findings = lint_fixture(fixture)
    assert codes(findings) == [rule] * count, render_text(findings)


def test_raw_thread_rule():
    """R010 fires outside repro/sim but not inside it — the simulator core
    legitimately builds on host threads."""
    findings = lint_fixture("raw_thread.py", "repro/spark/fixture.py")
    assert codes(findings) == ["R010"] * 2
    assert lint_fixture("raw_thread.py", "repro/sim/process.py") == []


def test_raw_park_rule():
    """R011 fires on direct parks in deterministic packages outside
    repro/sim; the simulator core parks its own processes legitimately,
    and generic .block() methods without the reason= keyword are not the
    simulator primitive."""
    findings = lint_fixture("raw_park.py", "repro/openmp/fixture.py")
    assert codes(findings) == ["R011"] * 2
    assert lint_fixture("raw_park.py", "repro/sim/sync.py") == []


def test_raw_step_request_rule():
    """R011 also fires on a step generator that yields TURN/BLOCK/QUEUED
    itself outside repro/sim; protocol code composes the primitives' step
    forms with ``yield from``, and the sim primitives yield them legitimately."""
    findings = lint_fixture("raw_step.py", "repro/mpi/fixture.py")
    assert codes(findings) == ["R011"] * 3
    assert [f.line for f in findings] == [7, 9, 10]
    assert "yield from" in findings[0].message
    assert lint_fixture("raw_step.py", "repro/sim/sync.py") == []


def test_env_hatch_rule():
    # linted as a spark module: the cache's switch is foreign, REPRO_*
    # must be registered, and host-env reads are flagged in deterministic
    # packages
    findings = lint_fixture("env_hatch.py", "repro/spark/fixture.py")
    assert codes(findings) == ["R006"] * 3
    messages = " ".join(f.message for f in findings)
    assert "repro/cache/store.py" in messages  # points at the home
    assert "unregistered" in messages


def test_env_hatch_home_module_is_allowed():
    src = 'import os\nFLAG = os.environ.get("REPRO_NO_CACHE") == "1"\n'
    assert lint_source(src, "repro/cache/store.py") == []
    assert codes(lint_source(src, "repro/platform/driver.py")) == ["R006"]


def test_clean_fixture_is_clean():
    assert lint_fixture("clean.py") == []


def test_rules_scoped_to_deterministic_packages():
    """The same wall-clock fixture is fine in a host-side layer."""
    for relpath in ("repro/core/metrics.py", "repro/platform/driver.py",
                    "repro/analysis/lint.py", "repro/tools/profiler.py"):
        findings = lint_fixture("wall_clock.py", relpath)
        assert findings == [], relpath


def test_hygiene_rules_apply_everywhere():
    """R005 fires even outside the deterministic packages."""
    findings = lint_fixture("swallowed_error.py", "repro/core/report.py")
    assert codes(findings) == ["R005"] * 3


# ---------------------------------------------------------------------------
# suppression mechanics
# ---------------------------------------------------------------------------


def test_pragma_accepts_rule_code_and_all():
    src = "import time\nt = time.time()  # reprolint: disable=R001\n"
    assert lint_source(src, "repro/sim/x.py") == []
    src = "import time\nt = time.time()  # reprolint: disable=all\n"
    assert lint_source(src, "repro/sim/x.py") == []


def test_pragma_is_line_scoped():
    src = ("import time\n"
           "a = time.time()  # reprolint: disable=wall-clock\n"
           "b = time.time()\n")
    findings = lint_source(src, "repro/sim/x.py")
    assert [(f.rule, f.line) for f in findings] == [("R001", 3)]


def test_pragma_on_multiline_statement_end_line():
    src = ("import time\n"
           "a = (time.time() +\n"
           "     1.0)  # reprolint: disable=wall-clock\n")
    assert lint_source(src, "repro/sim/x.py") == []


def test_pragma_wrong_rule_does_not_suppress():
    src = "import time\nt = time.time()  # reprolint: disable=fs-order\n"
    assert codes(lint_source(src, "repro/sim/x.py")) == ["R001"]


# ---------------------------------------------------------------------------
# reporting + path walking
# ---------------------------------------------------------------------------


def test_findings_carry_location_and_sort_stably():
    findings = lint_fixture("wall_clock.py")
    assert all(f.path == "repro/sim/fixture.py" for f in findings)
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    assert all(f.col >= 1 for f in findings)


def test_render_json_roundtrip():
    findings = lint_fixture("real_sleep.py")
    doc = json.loads(render_json(findings))
    assert doc["count"] == 1
    (entry,) = doc["findings"]
    assert entry["rule"] == "R007"
    assert entry["name"] == RULES["R007"][0]
    assert entry["line"] == 6


def test_render_text_summary_line():
    assert render_text([]).endswith("reprolint: clean")
    out = render_text(lint_fixture("real_sleep.py"))
    assert out.endswith("reprolint: 1 finding")
    assert "R007" in out


def test_lint_paths_walks_directories_sorted():
    # fixtures are outside the repro package root, so determinism rules do
    # not apply — only hygiene findings remain: swallowed_error.py's
    # handlers plus env_hatch.py's foreign/unregistered escape hatches
    findings = lint_paths([FIXTURES])
    assert sorted(codes(findings)) == ["R005"] * 3 + ["R006"] * 2
    assert findings == sorted(findings, key=lambda f: f.sort_key())


def test_lint_paths_rejects_non_python():
    with pytest.raises(AnalysisError):
        lint_paths([FIXTURES / "missing.txt"])


def test_syntax_error_raises_analysis_error():
    with pytest.raises(AnalysisError):
        lint_source("def broken(:\n", "repro/sim/x.py")


def test_linted_source_tree_is_clean():
    """The acceptance gate: the repo's own src/ has zero unsuppressed
    findings (CI enforces the same via ``python -m repro analyze lint``)."""
    src = Path(__file__).parent.parent / "src"
    assert lint_paths([src]) == []
