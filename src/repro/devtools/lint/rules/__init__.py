"""The replint rule set: REP001, REP003, REP006..REP009, REP011 and
REP012, one invariant per rule, each checked one module at a time.

The registry contracts (an artifact's ``needs``, an intervention's
``LAYERS``) are not lint rules: ``repro.api.registry.artifact`` and
``repro.whatif.spec.Intervention`` reject a bad declaration at import.
"""

from __future__ import annotations

from repro.devtools.lint.engine import Rule
from repro.devtools.lint.rules.determinism import NondeterminismRule
from repro.devtools.lint.rules.errors import SwallowedErrorRule
from repro.devtools.lint.rules.hotpaths import HotPathVectorizationRule
from repro.devtools.lint.rules.ordering import SetOrderingRule
from repro.devtools.lint.rules.profiling import ProfilerConfinementRule
from repro.devtools.lint.rules.retries import AdHocRetryRule
from repro.devtools.lint.rules.serialization import SerializationRule
from repro.devtools.lint.rules.thresholds import ThresholdLocalityRule

RULE_CLASSES: tuple[type[Rule], ...] = (
    NondeterminismRule,
    SerializationRule,
    HotPathVectorizationRule,
    SwallowedErrorRule,
    SetOrderingRule,
    AdHocRetryRule,
    ThresholdLocalityRule,
    ProfilerConfinementRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every rule, in id order."""
    return sorted((cls() for cls in RULE_CLASSES), key=lambda rule: rule.id)


def rule_ids() -> list[str]:
    return sorted(cls.id for cls in RULE_CLASSES)
