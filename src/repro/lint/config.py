"""Configuration layer: ``[tool.repro.lint]`` in ``pyproject.toml``.

Recognized keys::

    [tool.repro.lint]
    select = ["RPL001", "RPL003"]   # run only these rules (default: all)
    ignore = ["RPL004"]             # never run these rules
    # ids match by family prefix too: "RPL1" = every RPL1xx rule
    exclude = ["tests/lint_fixtures/*"]  # fnmatch globs, posix relpaths

    [tool.repro.lint.per-file-ignores]
    "src/repro/model/pools.py" = ["RPL004"]   # keys are fnmatch globs

Python 3.11+ parses the file with :mod:`tomllib`; on 3.10 (which the CI
matrix still tests) a minimal single-purpose parser handles the subset
above — string/int/bool scalars and single-line string arrays — so the
linter adds no third-party dependency either way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Optional

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None

__all__ = ["LintConfig", "load_config", "find_root"]

_SECTION = ("tool", "repro", "lint")


def _matches(rule_id: str, selectors: frozenset[str]) -> bool:
    """Whether ``rule_id`` matches any exact id or family prefix.

    Selectors are matched by prefix, so ``RPL1`` selects the whole
    RPL10x fleet-hygiene family and ``RPL107`` selects exactly one rule.
    (Every selector is an id prefix by construction — ``RPL107`` is its
    own prefix — so one rule covers both cases.)
    """
    return any(rule_id.startswith(selector) for selector in selectors)


@dataclass(frozen=True)
class LintConfig:
    """Effective rule/path selection for one analyzer run."""

    #: Rule ids to run; ``None`` means every registered rule.
    select: Optional[frozenset[str]] = None
    #: Rule ids to skip (applied after ``select``).
    ignore: frozenset[str] = frozenset()
    #: fnmatch globs (posix, relative to root) of files never linted.
    exclude: tuple[str, ...] = ()
    #: glob -> rule ids ignored for matching files.
    per_file_ignores: tuple[tuple[str, frozenset[str]], ...] = ()

    def rule_enabled(self, rule_id: str) -> bool:
        """Whether the rule participates in this run at all."""
        if _matches(rule_id, self.ignore):
            return False
        return self.select is None or _matches(rule_id, self.select)

    def path_excluded(self, path: str) -> bool:
        """Whether the file at posix relpath ``path`` is skipped entirely."""
        return any(fnmatch(path, pattern) for pattern in self.exclude)

    def rule_ignored_for_path(self, rule_id: str, path: str) -> bool:
        """Whether ``rule_id`` is switched off for this particular file."""
        return any(
            _matches(rule_id, ids)
            for pattern, ids in self.per_file_ignores
            if fnmatch(path, pattern)
        )

    def merged(
        self,
        select: Optional[frozenset[str]] = None,
        ignore: Optional[frozenset[str]] = None,
    ) -> "LintConfig":
        """A copy with CLI ``--select``/``--ignore`` layered on top."""
        return LintConfig(
            select=select if select is not None else self.select,
            ignore=self.ignore | (ignore or frozenset()),
            exclude=self.exclude,
            per_file_ignores=self.per_file_ignores,
        )


def find_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor of ``start`` (default: cwd) with a pyproject.toml."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return here


def load_config(root: Path) -> LintConfig:
    """Read ``[tool.repro.lint]`` from ``root/pyproject.toml`` (if any)."""
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return LintConfig()
    text = pyproject.read_text()
    if tomllib is not None:
        data = tomllib.loads(text)
    else:  # pragma: no cover - exercised only on 3.10
        data = _minimal_toml(text)
    section = data
    for key in _SECTION:
        section = section.get(key, {})
        if not isinstance(section, dict):
            return LintConfig()
    return _config_from_section(section)


def _config_from_section(section: dict) -> LintConfig:
    select = section.get("select")
    ignore = section.get("ignore", [])
    exclude = section.get("exclude", [])
    per_file = section.get("per-file-ignores", {})
    return LintConfig(
        select=(
            frozenset(str(s).upper() for s in select)
            if select  # an empty/missing select list means "all rules"
            else None
        ),
        ignore=frozenset(str(s).upper() for s in ignore),
        exclude=tuple(str(p) for p in exclude),
        per_file_ignores=tuple(
            sorted(
                (str(pattern), frozenset(str(r).upper() for r in ids))
                for pattern, ids in per_file.items()
            )
        ),
    )


# ----------------------------------------------------------------------
# Minimal TOML subset parser (Python 3.10 fallback).
# ----------------------------------------------------------------------
_TABLE_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KEY_RE = re.compile(
    r"""^(?:"(?P<qkey>[^"]*)"|(?P<key>[\w.-]+))\s*=\s*(?P<value>.+)$"""
)


def _minimal_toml(text: str) -> dict:
    """Parse the tiny TOML subset the lint section uses.

    Supports ``[dotted.tables]``, bare or quoted keys, and values that
    are strings, integers, booleans, or single-line arrays of those.
    Anything fancier (multi-line arrays, inline tables, dates) is out of
    scope; use Python >= 3.11 for full TOML.
    """
    root: dict = {}
    current = root
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        table = _TABLE_RE.match(line)
        if table:
            current = root
            for part in _split_table_name(table.group("name")):
                current = current.setdefault(part, {})
            continue
        entry = _KEY_RE.match(line)
        if entry:
            key = entry.group("qkey")
            if key is None:
                key = entry.group("key")
            current[key] = _parse_value(entry.group("value").strip())
    return root


def _split_table_name(name: str) -> list[str]:
    parts: list[str] = []
    for part in name.split("."):
        part = part.strip()
        if part.startswith('"') and part.endswith('"'):
            part = part[1:-1]
        parts.append(part)
    return parts


def _parse_value(value: str):
    # Strip a trailing comment from unquoted scalars/arrays.
    if value.startswith("["):
        inner = value[value.index("[") + 1 : value.rindex("]")]
        items = [item.strip() for item in _split_array(inner)]
        return [_parse_value(item) for item in items if item]
    if value.startswith('"'):
        return value[1 : value.index('"', 1)]
    value = value.split("#")[0].strip()
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        return value


def _split_array(inner: str) -> list[str]:
    """Split an array body on commas outside quoted strings."""
    items: list[str] = []
    buf: list[str] = []
    quoted = False
    for char in inner:
        if char == '"':
            quoted = not quoted
        if char == "," and not quoted:
            items.append("".join(buf))
            buf = []
        else:
            buf.append(char)
    items.append("".join(buf))
    return items
