"""End-to-end tests of the ``python -m repro.lint`` entry point.

The acceptance bar of the analyzer: the repo's own ``src/`` tree
lints clean, violations drive a non-zero exit status, and the JSON
report is a well-formed CI artifact.
"""

import json
import os
import subprocess
import sys

from repro.lint import format_human, lint_paths, to_json_dict
from repro.lint.__main__ import main

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
SRC = os.path.join(REPO_ROOT, "src")


def run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_repo_src_lints_clean():
    """The headline acceptance criterion: the analyzer passes on the
    repo's own code."""
    proc = run_cli(SRC)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro.lint: clean" in proc.stdout


def test_repo_src_lints_clean_even_without_baseline():
    """The whole repo holds every rule with no baseline escape hatch
    at all: none ships, and the CLI takes no flag to load one (an
    inline marker is the only way to silence a finding)."""
    assert not os.path.exists(os.path.join(REPO_ROOT, "lint-baseline.json"))
    assert run_cli(SRC, "--baseline", "x.json").returncode == 2


def test_cli_exits_one_on_violation(tmp_path):
    bad = tmp_path / "repro" / "serving" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\n\ndef f():\n    return time.monotonic()\n")
    proc = run_cli(str(bad), cwd=str(tmp_path))
    assert proc.returncode == 1
    assert "R3" in proc.stdout
    assert "1 finding(s)" in proc.stdout


def test_cli_json_report(tmp_path):
    report = tmp_path / "nested" / "LINT_report.json"
    proc = run_cli(SRC, "--json", str(report))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(report.read_text())
    assert payload["schema"] == "repro.lint/1"
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert payload["checked_files"] > 50
    ids = [rule["id"] for rule in payload["rules"]]
    assert ids == sorted(ids) and len(ids) >= 5
    for rule in payload["rules"]:
        assert rule["invariant_origin"]


def test_cli_rule_selection_and_listing():
    proc = run_cli(SRC, "--rules", "R1,R3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 rule(s)" in proc.stdout
    listing = run_cli("--list-rules")
    assert listing.returncode == 0
    for rule_id in ("R1", "R2", "R3", "R4", "R5"):
        assert rule_id + ":" in listing.stdout


def test_cli_usage_errors_exit_two(tmp_path):
    assert run_cli(SRC, "--rules", "R99").returncode == 2
    assert run_cli(str(tmp_path / "nowhere")).returncode == 2


def test_main_in_process_matches_subprocess(tmp_path, capsys):
    """The CLI is importable and exercisable without a subprocess --
    what the fixture tests and future tooling build on."""
    assert main([SRC]) == 0
    out = capsys.readouterr().out
    assert "repro.lint: clean" in out


def test_human_and_json_reports_agree():
    result = lint_paths([SRC])
    human = format_human(result)
    machine = to_json_dict(result)
    assert result.ok
    assert "clean" in human
    assert machine["ok"] is True
    assert machine["checked_files"] == result.checked_files

