"""The shipped invariant rules.

Each rule lives in its own module with its own fixture-testable
visitor; this package is the registry the driver and CLI consume.
``REGISTERED_RULES`` is ordered by rule id -- reports and
``--list-rules`` follow it.

| id | invariant                                  | created by |
|----|--------------------------------------------|------------|
| R1 | zero-materialization residency             | PR 5       |
| R2 | sealed backend kernel surface              | PR 1/4/17  |
| R3 | injectable-clock serving determinism       | PR 6       |
| R4 | exact-length wire discipline               | PR 3/7     |
| R5 | serving exception discipline               | PR 3/6     |
| R6 | the plan is the only door to the evaluator | PR 10/12   |
| R7 | serving keeps no books beside its log      | PR 44      |
"""

from repro.lint.rules.residency import ResidencyRule
from repro.lint.rules.conformance import BackendConformanceRule
from repro.lint.rules.determinism import ServingDeterminismRule
from repro.lint.rules.wire import WireDisciplineRule
from repro.lint.rules.exceptions import ExceptionDisciplineRule
from repro.lint.rules.planner import PlannerDisciplineRule
from repro.lint.rules.accounting import AccountingRule

#: Every rule the default driver runs, in id order.
REGISTERED_RULES = [
    ResidencyRule,
    BackendConformanceRule,
    ServingDeterminismRule,
    WireDisciplineRule,
    ExceptionDisciplineRule,
    PlannerDisciplineRule,
    AccountingRule,
]

__all__ = [
    "REGISTERED_RULES",
    "ResidencyRule",
    "BackendConformanceRule",
    "ServingDeterminismRule",
    "WireDisciplineRule",
    "ExceptionDisciplineRule",
    "PlannerDisciplineRule",
    "AccountingRule",
]
