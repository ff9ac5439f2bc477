"""``census.json``: the execution census ``tools/census.py`` wrote is whole,
its buckets add up, and every ``EXEMPT`` entry names a ``file:scope`` (or a
``file:scope:line`` statement) that still exists in ``src/``; and the tool's
fold, tracer and exemption rule hold on a planted tree (a forked child's
lines included).  ``make census`` reruns the census itself; this file only
holds its shape.

Stdlib only: ``python tests/test_census.py`` (CI's lint job).
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUCKETS = ("product", "tier1_only", "neither")
KEYS = {"statements", *BUCKETS, "unexempted_never_run", "unexempted_unentered",
        "modules", "never_run", "unentered"}


def _load_census():
    spec = importlib.util.spec_from_file_location("census_tool", ROOT / "tools" / "census.py")
    tool = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(tool)
    return tool


def test_the_committed_census_is_whole():
    tool = _load_census()
    census = json.loads((ROOT / "census.json").read_text())
    assert set(census) == KEYS
    for path, row in census["modules"].items():
        assert (ROOT / path).is_file() and path.startswith("src/"), path
        assert row["statements"] == sum(row[b] for b in BUCKETS), path
    for key in ("statements",) + BUCKETS:
        assert census[key] == sum(row[key] for row in census["modules"].values())
    assert len(census["never_run"]) == census["neither"]
    for line in census["never_run"]:
        where, scope, kind = line.split(" ")
        assert where.rsplit(":", 1)[0] in census["modules"] and kind.isidentifier(), line
    assert set(census["unentered"].values()) <= {"tier1_only", "neither"}
    never = sum(1 for line in census["never_run"]
                if not tool.statement_exemption(line, census["unentered"]))
    assert census["unexempted_never_run"] == never
    unentered = sum(1 for key in census["unentered"] if not tool.scope_exemption(key))
    assert census["unexempted_unentered"] == unentered


def test_every_exemption_names_a_scope_that_exists():
    tool = _load_census()
    exists = tool.scopes() | {s.key for s in tool.statements()}
    assert sorted(set(tool.EXEMPT) - exists) == []
    assert all(reason.strip() for reason in tool.EXEMPT.values())


PLANTED = '''\
"""a module docstring is not a statement"""
import os

LIMIT = 3


def used(x):
    """nor is a function's"""
    if x > LIMIT:
        raise ValueError("too big")
    try:
        y = x + 1
    finally:
        pass
    return y


def in_child():
    return os.getpid()


def never():
    return 0
'''

SCRIPT = '''\
import multiprocessing as mp
import planted

planted.used(1)
if __name__ == "__main__":
    child = mp.get_context("fork").Process(target=planted.in_child)
    child.start()
    child.join()
'''


def test_the_tracer_and_the_fold_on_a_planted_tree():
    """``used``'s refusal runs nowhere, ``never`` is entered by nothing, and
    ``in_child`` runs only in a forked child, which leaves by ``os._exit``.
    A ``file:scope`` entry covers ``never`` but not the refusal inside
    ``used``, which a run enters: that takes ``used``'s own line entry."""
    tool = _load_census()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src").mkdir()
        (root / "src" / "planted.py").write_text(PLANTED)
        (root / "run.py").write_text(SCRIPT)
        dump = root / "dump"
        dump.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(tool.SITE), str(root / "src")])
        env["REPRO_CENSUS_DIR"] = str(dump)
        env["REPRO_CENSUS_SRC"] = str(root / "src") + os.sep
        subprocess.run([sys.executable, "run.py"], cwd=root, env=env, check=True)
        assert len(list(dump.glob("*.json"))) == 2  # the script and its forked child

        stmts = tool.statements(root)
        assert [s.where.rsplit(":", 1)[1] for s in stmts] == [
            "4", "9", "10", "11", "12", "14", "15", "19", "23"]
        lines = {}
        for file in dump.glob("*.json"):
            for path, hit in json.loads(file.read_text()).items():
                lines.setdefault(Path(path).relative_to(root).as_posix(), set()).update(hit)
        census = tool.fold(stmts, tool.ran(stmts, lines), set())
    assert census["never_run"] == [
        "src/planted.py:10 used Raise", "src/planted.py:23 never Return"]
    assert census["unentered"] == {"src/planted.py:never": "neither"}
    assert census["modules"]["src/planted.py"] == {
        "statements": 9, "product": 7, "tier1_only": 0, "neither": 2}

    saved = dict(tool.EXEMPT)
    try:
        tool.EXEMPT.clear()
        tool.EXEMPT.update({"src/planted.py:used": "r", "src/planted.py:never": "r"})
        covered = [tool.statement_exemption(n, census["unentered"]) for n in census["never_run"]]
        assert covered == [None, "src/planted.py:never"]
        assert tool.stale_exemptions(census) == ["src/planted.py:used"]
        tool.EXEMPT["src/planted.py:used:10"] = tool.EXEMPT.pop("src/planted.py:used")
        covered = [tool.statement_exemption(n, census["unentered"]) for n in census["never_run"]]
        assert covered == ["src/planted.py:used:10", "src/planted.py:never"]
        assert tool.stale_exemptions(census) == []
    finally:
        tool.EXEMPT.clear()
        tool.EXEMPT.update(saved)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("census: shape and exemptions hold")
