"""``BENCH_trajectory.jsonl``: every row ``tools/trajectory.py`` appended
is whole, names the metrics ``BENCHMARK.json`` declares, ran its runs for
``BENCHMARK.json``'s run length, and its medians are the medians of the
runs it carries on both sides; and the tool refuses a dirty parent."""

import importlib.util
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROW_KEYS = {
    "workload", "git_sha", "nproc", "cpu_model", "python", "numpy", "tree_clean",
    "parent_sha", "seed", "seconds", "pairs", "probe_s", "correct",
    "response_digests", "values", "medians",
}


def _side_holds(side: dict, metrics: set) -> None:
    assert set(side["values"]) == set(side["medians"]) == metrics
    for name, values in side["values"].items():
        assert side["medians"][name] == statistics.median(values)


def test_every_row_is_whole():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    rows = [json.loads(line) for line in (ROOT / "BENCH_trajectory.jsonl").open()]
    assert rows
    for row in rows:
        assert ROW_KEYS <= set(row), ROW_KEYS - set(row)
        assert row["workload"] in workloads
        assert re.fullmatch("[0-9a-f]{40}", row["git_sha"])
        assert re.fullmatch("[0-9a-f]{40}", row["parent_sha"])
        assert row["seconds"] == spec["run_seconds"]
        assert row["probe_s"] > 0 and row["pairs"] >= 1
        _side_holds(row, metrics)
        _side_holds(row["parent"], metrics)


def _load_trajectory():
    spec = importlib.util.spec_from_file_location(
        "trajectory", ROOT / "tools" / "trajectory.py"
    )
    trajectory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trajectory)
    return trajectory


def _committed(repo: Path, *names: str) -> None:
    """A git repository at ``repo`` with ``names`` committed."""
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    for name in names:
        (repo / name).write_text("a\n")
    for args in (["init", "-q"], ["add", *names], ["commit", "-qm", "c"]):
        subprocess.run(git + args, check=True, capture_output=True)


def test_the_tools_own_rows_leave_a_tree_clean(tmp_path):
    """A second call in one change appends to a file the first call
    already dirtied: that file alone does not make the tree dirty, any
    other tracked change still does."""
    trajectory = _load_trajectory()
    _committed(tmp_path, "BENCH_trajectory.jsonl", "f")
    with (tmp_path / "BENCH_trajectory.jsonl").open("a") as rows:
        rows.write("{}\n")
    assert trajectory._clean(tmp_path)
    (tmp_path / "f").write_text("b")
    assert not trajectory._clean(tmp_path)


def test_a_parent_with_uncommitted_changes_is_refused(tmp_path, monkeypatch):
    trajectory = _load_trajectory()
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(trajectory, "_run", None)  # nothing may run
    _committed(tmp_path, "f")
    assert trajectory._clean(tmp_path)
    (tmp_path / "f").write_text("b")
    assert not trajectory._clean(tmp_path)
    with pytest.raises(SystemExit, match="uncommitted changes"):
        trajectory.main(["--parent", str(tmp_path)])
