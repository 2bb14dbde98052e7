"""Core machinery of the reproducibility linter.

The analyzer parses each Python file once into an :mod:`ast` tree wrapped
in a :class:`ParsedModule` (source, import map, ``noqa`` table), then runs
every enabled :class:`Rule` that applies to the file's path.  Findings are
plain frozen dataclasses collected, de-duplicated and sorted by
``(path, line, col, rule)`` so output is byte-stable across runs — the
linter holds itself to the determinism bar it enforces.

Suppression uses a dedicated pragma so it never collides with flake8/ruff::

    risky_call()  # repro: noqa[RPL001]
    risky_call()  # repro: noqa[RPL001,RPL004]
    risky_call()  # repro: noqa          (suppress every rule on the line)
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.config import LintConfig

__all__ = [
    "Severity",
    "Finding",
    "ParsedModule",
    "Rule",
    "Analyzer",
    "LintResult",
    "PARSE_ERROR_ID",
]


class Severity:
    """Per-rule severity labels (metadata; any finding fails the run)."""

    ERROR = "error"
    WARNING = "warning"


#: Pseudo-rule id attached to findings for files that fail to parse.
PARSE_ERROR_ID = "RPL000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[\w\s,]*)\])?", re.IGNORECASE
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    ``phase`` distinguishes how the finding was produced: ``"static"``
    (AST analysis — every RPL0xx/RPL10x rule) or ``"runtime"`` (the
    coherence sanitizer, rule RPL153, which observes real executions).
    It is reporting metadata, excluded from ordering and de-duplication
    like severity/message.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: str = field(compare=False)
    message: str = field(compare=False)
    phase: str = field(compare=False, default="static")

    def to_dict(self) -> dict:
        """JSON-ready representation (schema documented in docs/api.md)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "phase": self.phase,
        }


class ImportMap(ast.NodeVisitor):
    """Maps local names to the dotted import path they refer to.

    ``import numpy as np`` binds ``np -> numpy``; ``from numpy.random
    import default_rng`` binds ``default_rng -> numpy.random.default_rng``;
    ``from datetime import datetime`` binds ``datetime ->
    datetime.datetime``.  :meth:`resolve` then turns an attribute chain
    such as ``np.random.rand`` into ``numpy.random.rand``.  Only imported
    names resolve — a local variable that happens to be called ``random``
    stays opaque, which keeps the rules free of that false positive.
    """

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                # ``import a.b`` binds the top-level name ``a`` only.
                top = alias.name.split(".")[0]
                self.aliases[top] = top

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or not node.module:
            return  # relative imports never shadow stdlib/numpy modules
        for alias in node.names:
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path of a Name/Attribute chain, or None if not imported."""
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        base = self.aliases.get(cur.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


def parse_noqa(source: str) -> dict[int, Optional[frozenset[str]]]:
    """Per-line suppression table: line -> rule ids, or None for blanket."""
    table: dict[int, Optional[frozenset[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None  # blanket: suppress everything
        else:
            ids = frozenset(
                part.strip().upper()
                for part in rules.split(",")
                if part.strip()
            )
            table[lineno] = ids if ids else None
    return table


@dataclass
class ParsedModule:
    """One parsed source file plus the context rules need."""

    path: str  # posix-style path relative to the lint root
    source: str
    tree: ast.Module
    imports: ImportMap
    noqa: dict[int, Optional[frozenset[str]]]

    @classmethod
    def parse(cls, path: str, source: str) -> "ParsedModule":
        tree = ast.parse(source, filename=path)
        imports = ImportMap()
        imports.visit(tree)
        return cls(
            path=path,
            source=source,
            tree=tree,
            imports=imports,
            noqa=parse_noqa(source),
        )

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True if ``# repro: noqa`` on ``line`` covers ``rule_id``."""
        if line not in self.noqa:
            return False
        ids = self.noqa[line]
        return ids is None or rule_id in ids


class Rule:
    """Base class for one reproducibility rule.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings (the analyzer applies ``noqa`` filtering and
    sorting afterwards).  ``path_markers`` restricts a rule to files
    whose relative posix path contains one of the substrings; an empty
    tuple means the rule applies to every file.  ``path_excludes`` wins
    over ``path_markers``.
    """

    id: str = ""
    name: str = ""
    severity: str = Severity.ERROR
    #: Path substrings the rule is limited to ("" tuple = all files).
    path_markers: tuple[str, ...] = ()
    #: Path substrings the rule never applies to.
    path_excludes: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether the rule runs on the file at relative posix ``path``."""
        if any(marker in path for marker in self.path_excludes):
            return False
        if not self.path_markers:
            return True
        return any(marker in path for marker in self.path_markers)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        """Yield every violation in ``module``."""
        raise NotImplementedError

    def finding(
        self, module: ParsedModule, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
        )

    @classmethod
    def doc(cls) -> str:
        """The rule's rationale (its class docstring, dedented)."""
        import inspect

        return inspect.cleandoc(cls.__doc__ or "")


@dataclass
class LintResult:
    """Findings plus bookkeeping from one analyzer run."""

    findings: list[Finding]
    files_checked: int

    @property
    def ok(self) -> bool:
        """True when the run produced no findings."""
        return not self.findings


class Analyzer:
    """Run a set of rules over files or directory trees."""

    def __init__(
        self,
        rules: Sequence[Rule],
        config: Optional[LintConfig] = None,
    ) -> None:
        self.config = config or LintConfig()
        self.rules = tuple(
            rule
            for rule in sorted(rules, key=lambda r: r.id)
            if self.config.rule_enabled(rule.id)
        )

    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint one in-memory source blob (used by tests and fixtures)."""
        return self._lint_blob(path, source)

    def lint_paths(self, paths: Sequence[Path], root: Path) -> LintResult:
        """Lint files and directory trees, returning sorted findings.

        ``root`` anchors relative paths (for reports, ``noqa`` scoping,
        config excludes) and is normally the directory containing
        ``pyproject.toml``.
        """
        files = sorted(set(self._collect(paths)))
        findings: list[Finding] = []
        checked = 0
        for file in files:
            rel = self._relpath(file, root)
            if self.config.path_excluded(rel):
                continue
            checked += 1
            findings.extend(self._lint_blob(rel, file.read_text()))
        return LintResult(findings=sorted(set(findings)), files_checked=checked)

    # ------------------------------------------------------------------
    @staticmethod
    def _relpath(file: Path, root: Path) -> str:
        try:
            return file.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return file.as_posix()

    @staticmethod
    def _collect(paths: Iterable[Path]) -> Iterator[Path]:
        for path in paths:
            if path.is_dir():
                yield from sorted(path.rglob("*.py"))
            else:
                yield path

    def _lint_blob(self, rel: str, source: str) -> list[Finding]:
        try:
            module = ParsedModule.parse(rel, source)
        except SyntaxError as exc:
            return [
                Finding(
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule=PARSE_ERROR_ID,
                    severity=Severity.ERROR,
                    message=f"syntax error: {exc.msg}",
                )
            ]
        out: list[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(rel):
                continue
            if self.config.rule_ignored_for_path(rule.id, rel):
                continue
            for finding in rule.check(module):
                if not module.suppressed(rule.id, finding.line):
                    out.append(finding)
        return sorted(set(out))
