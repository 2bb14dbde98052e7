"""Rule registry: every shipped reproducibility rule, sorted by id.

Adding a rule: subclass :class:`repro.lint.core.Rule` in a module here,
give it a unique ``RPLnnn`` id, a class docstring explaining *why* the
pattern breaks reproducibility (surfaced by ``repro lint --rules``),
and append an instance to :data:`ALL_RULES`.  docs/static_analysis.md
has a worked example.
"""

from __future__ import annotations

from repro.lint.core import Rule
from repro.lint.rules.clock import WallClockRule
from repro.lint.rules.exceptions import SwallowedExceptionRule
from repro.lint.rules.fleet import (
    ImportTimeConcurrencyRule,
    SwallowedFleetFailureRule,
    UnorderedBatchRule,
    UnpicklablePayloadRule,
)
from repro.lint.rules.functions import MutableDefaultRule, UnpicklableSubmitRule
from repro.lint.rules.io import NonAtomicResultWriteRule
from repro.lint.rules.numerics import FloatEqualityRule
from repro.lint.rules.ordering import UnsortedIterationRule
from repro.lint.rules.parameters import ParameterBoundsRule
from repro.lint.rules.randomness import UnseededRandomRule

__all__ = ["ALL_RULES", "rules_by_id"]

#: Every shipped rule, in id order.  RPL00x: single-threaded determinism;
#: RPL105–RPL108: hygiene for work that crosses into the process fleet.
ALL_RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    UnsortedIterationRule(),
    FloatEqualityRule(),
    MutableDefaultRule(),
    UnpicklableSubmitRule(),
    ParameterBoundsRule(),
    SwallowedExceptionRule(),
    NonAtomicResultWriteRule(),
    UnpicklablePayloadRule(),
    ImportTimeConcurrencyRule(),
    UnorderedBatchRule(),
    SwallowedFleetFailureRule(),
)


def rules_by_id() -> dict[str, Rule]:
    """Mapping of rule id -> rule instance (id-sorted)."""
    return {rule.id: rule for rule in sorted(ALL_RULES, key=lambda r: r.id)}
