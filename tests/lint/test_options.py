"""The options pass: every option ``src/`` offers has a caller that sets it.

An option is a defaulted parameter of a public function or method, or a
defaulted field of a public dataclass (an ``__init__`` argument).  One
that no caller in ``src/``, ``bench/``, ``benchmarks/``, ``tests/`` or
``examples/`` ever sets doubles the configurations nothing covers, so it
is a constant in disguise and must be written as one.  The pass lives in
``tools/census.py`` beside the name pass and reads the same ``EXEMPT``
table (``file:Class(param)``, ``file:Class.method(param)``, and
``file:Class(*)`` for a dataclass of run state).  Run
``python tests/lint/test_options.py`` for the report (stdlib only).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
import census  # noqa: E402


def test_every_option_has_a_caller_that_sets_it():
    offenders = census.unexempted_options()
    assert not offenders, "options no caller sets (make them constants):\n" + "\n".join(
        f"  {o.ident}  {o.where}" for o in offenders
    )


def test_every_exemption_is_still_needed():
    """Every options entry of ``EXEMPT`` -- a ``Class(param)`` or a
    ``Class(*)`` key -- covers an option nothing sets, and each option
    nothing sets is covered by one."""
    keys = {key for key in census.EXEMPT if key.endswith(")")}
    used = {census.option_exemption(o) for o in census.unset_options(census.ROOT)}
    assert sorted(keys - used) == []
    assert None not in used


def test_census_finds_a_planted_option(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def never(a, b=1): pass\n"
        "def positional(a, b=1): pass\n"
        "def _private(a, b=1): pass\n"
        "class C:\n"
        "    def __init__(self, x, y=2, *, z=3): pass\n"
        "    def method(self, a, b=1): pass\n"
        "@dataclass\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    w: int = field(init=False, default=0)\n"
        "    v: int = 5\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "t.py").write_text(
        "positional(1, 2)\nC(1, z=4)\nobj.method(**kw)\nreplace(d, v=6)\n"
    )
    found = sorted(o.ident for o in census.unset_options(tmp_path))
    assert found == ["C(y)", "D(y)", "never(b)"]


if __name__ == "__main__":
    # stdlib only: ``python tests/lint/test_options.py`` (CI's lint job)
    sys.exit(1 if census.report_options() else 0)
