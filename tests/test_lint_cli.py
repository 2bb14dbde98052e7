"""The ``repro lint`` subcommand, and the repository's own lint gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).parents[1]

BAD_SOURCE = "import numpy as np\n_x = np.random.rand()\n"
CLEAN_SOURCE = "def double(x):\n    return 2 * x\n"


def test_lint_rules_listing(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPL001", "RPL002", "RPL003", "RPL004",
                    "RPL005", "RPL006", "RPL007", "RPL008",
                    "RPL105", "RPL106", "RPL107", "RPL108"):
        assert rule_id in out
    # The runtime sanitizer rule is listed alongside the static rules.
    assert "RPL153" in out


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN_SOURCE)
    assert main(["lint", "--root", str(tmp_path), str(target)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_lint_violation_exits_nonzero(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "des" / "servers.py"
    target.parent.mkdir(parents=True)
    target.write_text(BAD_SOURCE)
    assert main(["lint", "--root", str(tmp_path), str(target)]) == 1
    out = capsys.readouterr().out
    assert "RPL001" in out


def test_lint_json_format(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "des" / "servers.py"
    target.parent.mkdir(parents=True)
    target.write_text(BAD_SOURCE)
    assert main(
        ["lint", "--root", str(tmp_path), "--format", "json", str(target)]
    ) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    assert doc["summary"]["ok"] is False
    assert doc["summary"]["by_rule"] == {"RPL001": 1}
    (finding,) = doc["findings"]
    assert finding["path"] == "src/repro/des/servers.py"


def test_lint_select_and_ignore(tmp_path, capsys):
    target = tmp_path / "mixed.py"
    target.write_text("import numpy as np\ndef f(xs=[]):\n    return np.random.rand()\n")
    assert main(
        ["lint", "--root", str(tmp_path), "--select", "RPL005", str(target)]
    ) == 1
    assert "RPL001" not in capsys.readouterr().out
    assert main(
        ["lint", "--root", str(tmp_path),
         "--ignore", "RPL001,RPL005", str(target)]
    ) == 0


def test_lint_family_prefix_select(tmp_path, capsys):
    # RPL005 (mutable default) plus RPL106 (import-time lock).
    target = tmp_path / "src" / "repro" / "parallel" / "shared.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import threading\n"
        "def f(xs=[]):\n"
        "    return xs\n"
        "_LOCK = threading.Lock()\n"
    )
    # Selecting the fleet-hygiene family alone hides the RPL00x finding.
    assert main(
        ["lint", "--root", str(tmp_path), "--select", "RPL1", str(target)]
    ) == 1
    out = capsys.readouterr().out
    assert "RPL106" in out and "RPL005" not in out
    # Ignoring the whole family by prefix removes it again.
    assert main(
        ["lint", "--root", str(tmp_path),
         "--select", "RPL1", "--ignore", "RPL10", str(target)]
    ) == 0


def test_lint_unknown_rule_id_is_rejected(tmp_path):
    # Exit code 2: usage error, distinct from 1 (findings).
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--root", str(tmp_path), "--select", "RPL999"])
    assert excinfo.value.code == 2


def test_lint_default_path_is_src(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "ok.py").write_text(CLEAN_SOURCE)
    (tmp_path / "unlinted.py").write_text(BAD_SOURCE)  # outside src/
    assert main(["lint", "--root", str(tmp_path)]) == 0
    assert "1 file checked" in capsys.readouterr().out


def test_repository_lints_clean(capsys):
    """The acceptance gate: `repro lint` on this repository exits 0."""
    assert main(["lint", "--root", str(REPO_ROOT)]) == 0
    assert "0 findings" in capsys.readouterr().out
