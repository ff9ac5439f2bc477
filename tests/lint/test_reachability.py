"""The name pass: every symbol in ``src/`` is reached from outside the tests.

The pass, its rule and the one ``EXEMPT`` table it reads live in
``tools/census.py``, where it is the execution census's static pre-pass.
A symbol that only ``tests/`` names goes one of three ways: an oracle
moves under ``tests/``, a paper model is printed by a
``benchmarks/bench_*`` reproduction beside its paper number (or exempted
with its paper section), and dead API is deleted with the tests that
only checked it.  This file also holds the one stale rule: an ``EXEMPT``
entry that no pass uses is removed.  Run
``python tests/lint/test_reachability.py`` for the report (stdlib only).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
import census  # noqa: E402


def test_every_symbol_is_reached_outside_the_tests():
    offenders = census.unexempted_symbols()
    assert not offenders, (
        "symbols nothing outside tests/ names (move the oracle under tests/, print the "
        "model in a benchmark, or delete the API):\n"
        + "\n".join(f"  {s.ident}  {s.where}" for s in offenders)
    )


def test_every_exemption_is_still_needed():
    """An entry that no pass uses -- the name pass, the options pass, or
    the census as committed in ``census.json`` -- is removed."""
    assert census.stale_exemptions(json.loads(census.CENSUS.read_text())) == []


FIXTURE = Path(__file__).resolve().parent / "fixtures" / "reachability"


def test_census_reports_a_symbol_only_a_test_names():
    """The planted tree: ``only_tested`` and ``Kept.only_tested`` only a test
    names, ``listed`` only ``__all__`` lists, ``recursive`` only calls itself;
    ``by_string`` is reached through ``getattr``'s string."""
    found = sorted(s.ident for s in census.name_pass(FIXTURE)["unreached"])
    assert found == ["Kept.only_tested", "listed", "only_tested", "recursive"]
    assert {"only_tested", "listed", "recursive"} <= set(census.facts(FIXTURE).names["tests"])


def test_census_sorts_visitors_on_the_fixture_tree():
    assert [s.ident for s in census.name_pass(FIXTURE)["visitor"]] == ["Walker.visit_Name"]


if __name__ == "__main__":
    # stdlib only: ``python tests/lint/test_reachability.py`` (CI's lint job)
    sys.exit(1 if census.report_names() else 0)
