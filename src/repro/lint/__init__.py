"""``repro.lint`` — static determinism & reproducibility analysis.

A visitor-based :mod:`ast` analyzer (stdlib only) enforcing the
invariants the measurement pipeline depends on: label-derived RNG
streams, no wall-clock reads in modelled code, order-independent
fingerprints, picklable parallel work, Table 3-consistent parameter
ranges.  See docs/static_analysis.md for the rule catalogue and
``python -m repro lint --rules`` for inline documentation.

Typical programmatic use::

    from repro.lint.config import find_root, load_config
    from repro.lint.core import Analyzer
    from repro.lint.reporters import format_text
    from repro.lint.rules import ALL_RULES

    root = find_root()
    analyzer = Analyzer(ALL_RULES, load_config(root))
    result = analyzer.lint_paths([root / "src"], root)
    assert result.ok, format_text(result)
"""
