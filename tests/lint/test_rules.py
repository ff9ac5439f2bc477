"""Per-rule fixture tests for ``repro.lint``.

Every rule ships a violating and a clean fixture under ``fixtures/``.
Each fixture's first line declares the *virtual path* it is analyzed
under (``# lint-fixture-path: src/repro/...``): the analyzer derives
dotted module names from paths, so a snippet loaded under
``src/repro/serving/pump.py`` is subject to exactly the production
rule configuration -- no monkeypatching of rule scopes.
"""

import os

import pytest

from repro.lint import (
    Finding,
    default_rules,
    run_lint,
    source_from_text,
)
from repro.lint.core import collect_sources, module_name_for
from repro.lint.rules import REGISTERED_RULES
from repro.lint.rules.conformance import BackendConformanceRule
from repro.lint.rules.determinism import ServingDeterminismRule
from repro.lint.rules.exceptions import ExceptionDisciplineRule
from repro.lint.rules.planner import PlannerDisciplineRule
from repro.lint.rules.residency import ResidencyRule
from repro.lint.rules.wire import WireDisciplineRule

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
PATH_MARKER = "# lint-fixture-path: "


def load_fixture(name):
    """Parse a fixture under the virtual path its header declares."""
    with open(os.path.join(FIXTURE_DIR, name), "r", encoding="utf-8") as fh:
        text = fh.read()
    header = text.splitlines()[0]
    assert header.startswith(PATH_MARKER), name
    virtual_path = header[len(PATH_MARKER):].strip()
    return source_from_text(virtual_path, text)


def lint_fixture(name, rule):
    return run_lint([load_fixture(name)], rules=[rule])


#: R2 is a cross-module rule: point it at the fixture interface.
def fixture_conformance_rule():
    return BackendConformanceRule(
        base_module="repro.lintfix.base",
        base_class="Base",
        implementations=(("repro.lintfix.wrapper", "Wrapper", "wrap"),),
    )


# ----------------------------------------------------------------------
# module rules: violating fixture fires, clean fixture is silent
# ----------------------------------------------------------------------
MODULE_RULE_CASES = [
    ("R1", ResidencyRule, "r1_violation.py", "r1_clean.py", 2),
    ("R3", ServingDeterminismRule, "r3_violation.py", "r3_clean.py", 4),
    ("R4", WireDisciplineRule, "r4_violation.py", "r4_clean.py", 4),
    ("R5", ExceptionDisciplineRule, "r5_violation.py", "r5_clean.py", 1),
    # R5, recovery-machinery variant: counting the failure into a stat
    # named for failure is accounting; bumping an unrelated counter is not
    ("R5", ExceptionDisciplineRule, "r5_stats_violation.py", "r5_stats_clean.py", 1),
    ("R6", PlannerDisciplineRule, "r6_violation.py", "r6_clean.py", 3),
]


@pytest.mark.parametrize(
    "rule_id,rule_cls,bad,good,expected",
    MODULE_RULE_CASES,
    ids=[case[0] for case in MODULE_RULE_CASES],
)
def test_rule_fires_on_violating_fixture(rule_id, rule_cls, bad, good, expected):
    result = lint_fixture(bad, rule_cls())
    assert len(result.findings) == expected
    assert {f.rule for f in result.findings} == {rule_id}
    # every finding carries a location and an enclosing symbol
    for finding in result.findings:
        assert finding.line >= 1
        assert finding.symbol


@pytest.mark.parametrize(
    "rule_id,rule_cls,bad,good,expected",
    MODULE_RULE_CASES,
    ids=[case[0] for case in MODULE_RULE_CASES],
)
def test_rule_silent_on_clean_fixture(rule_id, rule_cls, bad, good, expected):
    result = lint_fixture(good, rule_cls())
    assert result.ok, [str(f) for f in result.findings]


def test_r1_flags_fresh_matrices_where_results_are_resident():
    """PR 23 clause: in the numpy backend, the base wire kernels and
    ``serialization`` a result or staging matrix is a recycled slab."""
    result = lint_fixture("r1_resident_violation.py", ResidencyRule())
    assert {f.rule for f in result.findings} == {"R1"}
    assert sorted(f.message.split("(")[0] for f in result.findings) == [
        "np.empty", "np.empty_like", "np.zeros",
    ]
    assert {f.symbol for f in result.findings} == {"add_rows", "stage", "gather"}


def test_r1_silent_on_recycled_results_and_suppressed_scratch():
    result = lint_fixture("r1_resident_clean.py", ResidencyRule())
    assert result.ok, [str(f) for f in result.findings]
    assert [f.rule for f in result.suppressed] == ["R1"]


def test_r1_flags_joins_without_out_where_results_are_resident():
    """A staged lane is a join: ``np.concatenate`` / ``np.stack`` allocate
    unless handed ``out=`` a recycled slab."""
    result = lint_fixture("r1_staging_violation.py", ResidencyRule())
    assert sorted(f.message.split("(")[0] for f in result.findings) == [
        "np.concatenate", "np.stack",
    ]
    assert {f.symbol for f in result.findings} == {"stage", "restack"}
    clean = lint_fixture("r1_staging_clean.py", ResidencyRule())
    assert clean.ok and not clean.suppressed, [str(f) for f in clean.findings]


def test_r6_flags_evaluator_imports_in_serving_modules():
    """The plan is the only door: the Evaluator may not be imported
    under repro.serving / repro.system, however spelled (the lane
    container ``CiphertextBatch`` is data and stays importable)."""
    result = lint_fixture("r6_import_violation.py", PlannerDisciplineRule())
    assert {f.rule for f in result.findings} == {"R6"}
    flagged = sorted(f.message.split(":")[0] for f in result.findings)
    assert flagged == [
        "import of repro.ckks.Evaluator",
        "import of repro.ckks.evaluator",
        "import of repro.ckks.evaluator.Evaluator",
        "import of repro.ckks.linear",
        "import of repro.ckks.linear.LinearEvaluator",
    ]
    # the function-local import is attributed to its function
    assert "flush" in {f.symbol for f in result.findings}


def test_r6_silent_on_plan_imports():
    result = lint_fixture("r6_import_clean.py", PlannerDisciplineRule())
    assert result.ok, [str(f) for f in result.findings]


def test_r2_fires_on_violating_wrapper():
    modules = [load_fixture("r2_base.py"), load_fixture("r2_violation.py")]
    result = run_lint(modules, rules=[fixture_conformance_rule()])
    messages = [f.message for f in result.findings]
    assert len(result.findings) == 5
    assert {f.rule for f in result.findings} == {"R2"}
    assert any("does not wrap kernel 'add'" in m for m in messages)
    assert any("signature drift on kernel 'ntt'" in m for m in messages)
    # same names, one default more: a drift too
    assert any(
        "signature drift on kernel 'permute'" in m and "(stack, table=...)" in m
        for m in messages
    )
    assert any("overrides derived kernel 'ntt_one'" in m for m in messages)
    assert any("names no Base primitive" in m for m in messages)


def test_r2_silent_on_clean_wrapper():
    modules = [load_fixture("r2_base.py"), load_fixture("r2_clean.py")]
    result = run_lint(modules, rules=[fixture_conformance_rule()])
    assert result.ok, [str(f) for f in result.findings]


def test_r2_fires_when_the_interface_is_not_partitioned():
    """A public kernel in neither tuple, and a listed name with no
    method, are both findings on the interface itself."""
    base = load_fixture("r2_base.py")
    text = base.text.replace('("ntt", "add", "permute")', '("ntt", "scale", "permute")')
    modules = [source_from_text(base.path, text)]
    result = run_lint(modules, rules=[fixture_conformance_rule()])
    assert sorted(f.symbol for f in result.findings) == ["Base.add", "Base.scale"]


def test_r2_flags_derived_kernel_calls_outside_the_backend_package():
    modules = [load_fixture("r2_base.py"), load_fixture("r2_caller_violation.py")]
    result = run_lint(modules, rules=[fixture_conformance_rule()])
    assert len(result.findings) == 3
    assert {f.rule for f in result.findings} == {"R2"}
    assert {f.symbol for f in result.findings} == {"transform"}
    assert all("derived kernel 'ntt_one'" in f.message for f in result.findings)
    # the interface's own package derives and tests the names: exempt
    text = load_fixture("r2_caller_violation.py").text
    at_home = source_from_text("src/repro/lintfix/derive.py", text)
    assert run_lint(
        [load_fixture("r2_base.py"), at_home], rules=[fixture_conformance_rule()]
    ).ok


def test_r2_silent_on_primitive_callers():
    modules = [load_fixture("r2_base.py"), load_fixture("r2_caller_clean.py")]
    result = run_lint(modules, rules=[fixture_conformance_rule()])
    assert result.ok, [str(f) for f in result.findings]


def test_r2_silent_without_interface_module():
    # a partial run that never loads the interface holds no relation
    result = run_lint([load_fixture("r2_violation.py")],
                      rules=[fixture_conformance_rule()])
    assert result.ok


# ----------------------------------------------------------------------
# scoping: the same code outside the rule's namespace is not flagged
# ----------------------------------------------------------------------
def test_rules_scope_by_module_name():
    with open(os.path.join(FIXTURE_DIR, "r3_violation.py"), encoding="utf-8") as fh:
        text = fh.read()
    elsewhere = source_from_text("src/repro/analysis/offline.py", text)
    result = run_lint([elsewhere], rules=[ServingDeterminismRule()])
    assert result.ok  # wall-clock reads outside repro.serving are legal


def test_module_name_matching_is_not_prefix_sloppy():
    assert module_name_for("src/repro/serving/worker.py") == "repro.serving.worker"
    assert module_name_for("src/repro/serving/__init__.py") == "repro.serving"
    # 'repro.servingx' must NOT fall under the repro.serving rules
    sneaky = source_from_text("src/repro/servingx.py", "import time\nt = time.time()\n")
    assert run_lint([sneaky], rules=[ServingDeterminismRule()]).ok


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_inline_suppression_silences_one_line():
    text = (
        "def snapshot(ct):\n"
        "    return ct.c0.residues  # lint: disable=R1 -- golden dump\n"
    )
    module = source_from_text("src/repro/ckks/evaluator.py", text)
    result = run_lint([module], rules=[ResidencyRule()])
    assert result.ok
    assert len(result.suppressed) == 1
    assert result.suppressed[0].rule == "R1"


def test_inline_suppression_all_token():
    text = "def snapshot(ct):\n    return ct.c0.residues  # lint: disable=all\n"
    module = source_from_text("src/repro/ckks/evaluator.py", text)
    assert run_lint([module], rules=[ResidencyRule()]).ok


def test_inline_suppression_wrong_rule_does_not_silence():
    text = (
        "def snapshot(ct):\n"
        "    return ct.c0.residues  # lint: disable=R4 -- wrong rule\n"
    )
    module = source_from_text("src/repro/ckks/evaluator.py", text)
    result = run_lint([module], rules=[ResidencyRule()])
    assert not result.ok


# ----------------------------------------------------------------------
# infrastructure
# ----------------------------------------------------------------------
def test_unparseable_module_is_a_finding(tmp_path):
    target = tmp_path / "src" / "repro" / "broken.py"
    target.parent.mkdir(parents=True)
    target.write_text("def broken(:\n")
    modules, errors = collect_sources([str(tmp_path)])
    assert modules == []
    assert len(errors) == 1
    assert errors[0].rule == "E0"
    result = run_lint(modules, rules=default_rules(), parse_errors=errors)
    assert not result.ok


def test_registered_rules_have_unique_ids_and_origins():
    ids = [cls.id for cls in REGISTERED_RULES]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 5
    for cls in REGISTERED_RULES:
        assert cls.invariant_origin, cls.id


def test_finding_str_is_grepable():
    finding = Finding(
        rule="R1", path="src/repro/x.py", line=7, symbol="A.b", message="boom"
    )
    assert str(finding) == "src/repro/x.py:7: R1 [A.b] boom"
