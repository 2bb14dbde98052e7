"""Core analyzer machinery: imports, noqa parsing, config, determinism."""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.lint.config import LintConfig, _minimal_toml, find_root, load_config
from repro.lint.core import Analyzer, ImportMap, LintResult, parse_noqa
from repro.lint.reporters import format_json, format_rules, format_text
from repro.lint.rules import ALL_RULES


# ----------------------------------------------------------------------
# ImportMap
# ----------------------------------------------------------------------
def resolve(source: str, expr: str):
    imports = ImportMap()
    imports.visit(ast.parse(source))
    return imports.resolve(ast.parse(expr, mode="eval").body)


def test_import_map_resolves_aliases():
    assert resolve("import numpy as np", "np.random.rand") == "numpy.random.rand"
    assert resolve("import numpy", "numpy.random.rand") == "numpy.random.rand"
    assert (
        resolve("from numpy.random import default_rng", "default_rng")
        == "numpy.random.default_rng"
    )
    assert (
        resolve("from numpy import random as npr", "npr.shuffle")
        == "numpy.random.shuffle"
    )
    assert (
        resolve("from datetime import datetime", "datetime.now")
        == "datetime.datetime.now"
    )


def test_import_map_leaves_locals_unresolved():
    assert resolve("import numpy as np", "random.random") is None
    assert resolve("x = 1", "np.random.rand") is None
    # Relative imports never resolve (they cannot shadow numpy/stdlib).
    assert resolve("from . import random", "random.random") is None


# ----------------------------------------------------------------------
# noqa parsing
# ----------------------------------------------------------------------
def test_parse_noqa_forms():
    table = parse_noqa(
        "a = 1  # repro: noqa\n"
        "b = 2  # repro: noqa[RPL001]\n"
        "c = 3  # repro: noqa[RPL001, RPL004]\n"
        "d = 4  # REPRO: NOQA[rpl005]\n"
        "e = 5  # unrelated comment\n"
    )
    assert table[1] is None
    assert table[2] == frozenset({"RPL001"})
    assert table[3] == frozenset({"RPL001", "RPL004"})
    assert table[4] == frozenset({"RPL005"})
    assert 5 not in table


# ----------------------------------------------------------------------
# Config layer
# ----------------------------------------------------------------------
def test_lint_config_selection_logic():
    config = LintConfig(
        select=frozenset({"RPL001", "RPL003"}),
        ignore=frozenset({"RPL003"}),
        exclude=("tests/lint_fixtures/*",),
        per_file_ignores=(("src/repro/model/*.py", frozenset({"RPL001"})),),
    )
    assert config.rule_enabled("RPL001")
    assert not config.rule_enabled("RPL003")  # ignore beats select
    assert not config.rule_enabled("RPL002")  # not selected
    assert config.path_excluded("tests/lint_fixtures/rpl001_bad.py")
    assert not config.path_excluded("src/repro/cli.py")
    assert config.rule_ignored_for_path("RPL001", "src/repro/model/mva.py")
    assert not config.rule_ignored_for_path("RPL001", "src/repro/des/x.py")


def test_config_merged_layers_cli_options():
    base = LintConfig(ignore=frozenset({"RPL008"}))
    merged = base.merged(
        select=frozenset({"RPL001"}), ignore=frozenset({"RPL004"})
    )
    assert merged.select == frozenset({"RPL001"})
    assert merged.ignore == frozenset({"RPL004", "RPL008"})


def test_load_config_from_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.lint]\n"
        'ignore = ["RPL004"]\n'
        'exclude = ["generated/*"]\n'
        "\n"
        "[tool.repro.lint.per-file-ignores]\n"
        '"src/legacy.py" = ["RPL001", "RPL005"]\n'
    )
    config = load_config(tmp_path)
    assert config.ignore == frozenset({"RPL004"})
    assert config.exclude == ("generated/*",)
    assert config.rule_ignored_for_path("RPL005", "src/legacy.py")
    assert config.select is None


def test_load_config_missing_pyproject(tmp_path):
    assert load_config(tmp_path) == LintConfig()


def test_find_root_walks_upward(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[tool.repro.lint]\n")
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    assert find_root(nested) == tmp_path


def test_minimal_toml_fallback_parser():
    data = _minimal_toml(
        "# comment\n"
        "[tool.repro.lint]\n"
        'ignore = ["RPL004", "RPL008"]  # trailing comment\n'
        "enabled = true\n"
        "threshold = 3\n"
        'name = "value"\n'
        "\n"
        '[tool.repro.lint."per-file-ignores"]\n'
        '"src/a.py" = ["RPL001"]\n'
    )
    section = data["tool"]["repro"]["lint"]
    assert section["ignore"] == ["RPL004", "RPL008"]
    assert section["enabled"] is True
    assert section["threshold"] == 3
    assert section["name"] == "value"
    assert section["per-file-ignores"]["src/a.py"] == ["RPL001"]


# ----------------------------------------------------------------------
# Analyzer over real trees
# ----------------------------------------------------------------------
def test_lint_paths_respects_exclude_and_sorts(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro.lint]\nexclude = ["skip/*"]\n'
    )
    good = tmp_path / "pkg"
    good.mkdir()
    (good / "b.py").write_text("import numpy as np\n_x = np.random.rand()\n")
    (good / "a.py").write_text("import random\n_y = random.random()\n")
    skipped = tmp_path / "skip"
    skipped.mkdir()
    (skipped / "c.py").write_text("import random\n_z = random.random()\n")

    analyzer = Analyzer(ALL_RULES, load_config(tmp_path))
    result = analyzer.lint_paths([tmp_path], tmp_path)
    assert result.files_checked == 2
    assert [f.path for f in result.findings] == ["pkg/a.py", "pkg/b.py"]
    assert not result.ok


def test_analyzer_rule_selection():
    source = (
        "import numpy as np\n"
        "def f(xs=[]):\n"
        "    return np.random.rand()\n"
    )
    everything = Analyzer(ALL_RULES).lint_source(source, path="src/repro/x.py")
    assert {f.rule for f in everything} == {"RPL001", "RPL005"}
    only_rng = Analyzer(
        ALL_RULES, LintConfig(select=frozenset({"RPL001"}))
    ).lint_source(source, path="src/repro/x.py")
    assert {f.rule for f in only_rng} == {"RPL001"}


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def _demo_result() -> LintResult:
    analyzer = Analyzer(ALL_RULES)
    findings = analyzer.lint_source(
        "import numpy as np\n_x = np.random.rand()\n",
        path="src/repro/des/x.py",
    )
    return LintResult(findings=findings, files_checked=1)


def test_text_reporter_format():
    text = format_text(_demo_result())
    assert "src/repro/des/x.py:2:6: RPL001 [error]" in text
    assert text.endswith("1 finding in 1 file checked")
    clean = format_text(LintResult(findings=[], files_checked=3))
    assert clean == "0 findings in 3 files checked"


def test_json_reporter_schema():
    doc = json.loads(format_json(_demo_result()))
    assert doc["version"] == 1
    assert doc["summary"] == {
        "files_checked": 1,
        "findings": 1,
        "by_rule": {"RPL001": 1},
        "ok": False,
    }
    (finding,) = doc["findings"]
    assert set(finding) == {
        "rule", "severity", "path", "line", "col", "message", "phase",
    }
    assert finding["rule"] == "RPL001"
    assert finding["line"] == 2
    assert finding["phase"] == "static"
    # Byte-stable output for identical input.
    assert format_json(_demo_result()) == format_json(_demo_result())


def test_rules_listing_documents_every_rule():
    from repro.lint.sanitizer import RUNTIME_RULES

    listing = format_rules(ALL_RULES)
    for rule in ALL_RULES:
        assert rule.id in listing
        assert rule.name in listing
    # The runtime sanitizer family is self-documented alongside.
    for rule_id in RUNTIME_RULES:
        assert rule_id in listing


# ----------------------------------------------------------------------
# Family-prefix selection
# ----------------------------------------------------------------------
def test_family_prefix_select_and_ignore():
    config = LintConfig(select=frozenset({"RPL1"}))
    assert config.rule_enabled("RPL105")
    assert config.rule_enabled("RPL108")
    assert not config.rule_enabled("RPL001")
    config = LintConfig(ignore=frozenset({"RPL10"}))
    assert not config.rule_enabled("RPL107")
    assert config.rule_enabled("RPL001")
    # Exact ids still behave as exact ids.
    config = LintConfig(select=frozenset({"RPL105"}))
    assert config.rule_enabled("RPL105")
    assert not config.rule_enabled("RPL106")


def test_family_prefix_per_file_ignores():
    config = LintConfig(
        per_file_ignores=(
            ("src/repro/parallel/*.py", frozenset({"RPL1"})),
        )
    )
    assert config.rule_ignored_for_path("RPL107", "src/repro/parallel/engine.py")
    assert not config.rule_ignored_for_path("RPL003", "src/repro/parallel/engine.py")
    assert not config.rule_ignored_for_path("RPL107", "src/repro/cli.py")
