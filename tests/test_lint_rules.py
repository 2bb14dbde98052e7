"""Fixture-driven tests for every shipped reproducibility rule.

Each rule has at least three fixtures under ``tests/lint_fixtures/``:
``*_bad.py`` (triggers the rule), ``*_ok.py`` (clean), and ``*_noqa.py``
(violations suppressed in place).  The first line of every fixture is a
``# lint-path: <path>`` header giving the synthetic repository path the
snippet is linted *as* — that is what exercises the per-rule path
scoping (RPL002 only fires under ``sim/``/``des/``/..., RPL003 only in
serialization/fingerprint paths, and so on).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint.core import Analyzer
from repro.lint.rules import ALL_RULES, rules_by_id

FIXTURES = Path(__file__).parent / "lint_fixtures"

_ANALYZER = Analyzer(ALL_RULES)

#: fixture stem -> (expected rule id, expected finding count).
EXPECTED_BAD = {
    "rpl001_bad": ("RPL001", 6),
    "rpl002_bad": ("RPL002", 3),
    "rpl003_bad": ("RPL003", 3),
    "rpl003_fingerprint_bad": ("RPL003", 1),
    "rpl004_bad": ("RPL004", 3),
    "rpl005_bad": ("RPL005", 4),
    "rpl006_bad": ("RPL006", 3),
    "rpl007_bad": ("RPL007", 4),
    "rpl008_bad": ("RPL008", 2),
    "rpl009_bad": ("RPL009", 4),
    "rpl105_bad": ("RPL105", 4),
    "rpl106_bad": ("RPL106", 4),
    "rpl107_bad": ("RPL107", 4),
    "rpl108_bad": ("RPL108", 2),
}

CLEAN = sorted(
    p.stem
    for p in FIXTURES.glob("*.py")
    if p.stem.endswith(("_ok", "_noqa"))
)


def lint_fixture(stem: str):
    path = FIXTURES / f"{stem}.py"
    source = path.read_text()
    header = re.match(r"# lint-path: (\S+)", source)
    assert header, f"{path} is missing its '# lint-path:' header"
    return _ANALYZER.lint_source(source, path=header.group(1))


def test_every_rule_has_bad_ok_and_noqa_fixtures():
    ids = sorted(rules_by_id())
    assert len(ids) >= 8
    for rule_id in ids:
        stem = rule_id.lower()
        assert (FIXTURES / f"{stem}_bad.py").is_file(), f"no bad fixture for {rule_id}"
        assert (FIXTURES / f"{stem}_ok.py").is_file(), f"no ok fixture for {rule_id}"
        assert (FIXTURES / f"{stem}_noqa.py").is_file(), f"no noqa fixture for {rule_id}"


@pytest.mark.parametrize("stem", sorted(EXPECTED_BAD))
def test_bad_fixture_triggers_rule(stem):
    rule_id, count = EXPECTED_BAD[stem]
    findings = lint_fixture(stem)
    assert [f.rule for f in findings] == [rule_id] * count, findings


@pytest.mark.parametrize("stem", CLEAN)
def test_clean_fixture_has_no_findings(stem):
    assert lint_fixture(stem) == []


def test_fixture_inventory_is_fully_expected():
    bad = {p.stem for p in FIXTURES.glob("*_bad.py")}
    assert bad == set(EXPECTED_BAD), "update EXPECTED_BAD for new fixtures"


# ----------------------------------------------------------------------
# Targeted behaviours not covered by the fixture sweep.
# ----------------------------------------------------------------------
def test_rpl001_out_of_scope_in_util_rng():
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert _ANALYZER.lint_source(source, path="src/repro/util/rng.py") == []
    assert _ANALYZER.lint_source(source, path="src/repro/des/servers.py")


def test_rpl002_out_of_scope_outside_deterministic_subsystems():
    source = "import time\nstart = time.time()\n"
    assert _ANALYZER.lint_source(source, path="benchmarks/bench_x.py") == []
    assert _ANALYZER.lint_source(source, path="src/repro/cli.py") == []
    assert _ANALYZER.lint_source(source, path="src/repro/des/backend.py")


def test_rpl004_out_of_scope_outside_solver_code():
    source = "def f(x):\n    return x == 0.5\n"
    assert _ANALYZER.lint_source(source, path="src/repro/tpcw/mix.py") == []
    assert _ANALYZER.lint_source(source, path="src/repro/model/mva.py")


def test_seeded_violation_in_des_servers_fails_lint():
    """The acceptance-criterion canary: an np.random.rand call added to
    des/servers.py must produce an RPL001 finding."""
    real = Path(__file__).parents[1] / "src" / "repro" / "des" / "servers.py"
    poisoned = real.read_text() + "\nimport numpy as np\n_x = np.random.rand(3)\n"
    findings = _ANALYZER.lint_source(poisoned, path="src/repro/des/servers.py")
    assert any(f.rule == "RPL001" for f in findings)


def test_syntax_error_reports_parse_finding():
    findings = _ANALYZER.lint_source("def broken(:\n", path="x.py")
    assert [f.rule for f in findings] == ["RPL000"]


def test_blanket_noqa_suppresses_all_rules():
    source = "import numpy as np\n_x = np.random.rand()  # repro: noqa\n"
    assert _ANALYZER.lint_source(source, path="src/repro/des/x.py") == []


def test_noqa_for_other_rule_does_not_suppress():
    source = "import numpy as np\n_x = np.random.rand()  # repro: noqa[RPL008]\n"
    findings = _ANALYZER.lint_source(source, path="src/repro/des/x.py")
    assert [f.rule for f in findings] == ["RPL001"]
