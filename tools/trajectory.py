"""Append benchmark rows for this checkout to ``BENCH_trajectory.jsonl``.

For every workload of ``BENCHMARK.json`` (or those named), the unmodified
runner is run in a parent checkout and in this one, pair by pair, the
side that goes first alternating::

    python3 bench/run.py --workload <row> --seed 2020 --seconds 15 --detail <path>

and one JSON line is appended per workload: this commit's SHA and
``bench/run.py``'s machine fingerprint, a ``bench.trace.probe()``
reading taken just before the workload's runs, the seed, every
end-to-end metric of every run with their medians, and the parent's
runs and medians from the same session.  Every run is
``BENCHMARK.json``'s ``run_seconds`` long.  Make the parent checkout
with ``git clone`` (or ``git archive``) and check out the parent commit::

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 tools/trajectory.py --parent ../parent --pairs 3

A row is only as good as the trees it measured: ``tree_clean`` is false
when this checkout had uncommitted changes to tracked files other than
``BENCH_trajectory.jsonl`` itself, and a
parent checkout with such changes is refused before anything runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_trajectory.jsonl"
PROBE_READINGS = 5


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.strip()


def _clean(checkout: Path) -> bool:
    """No uncommitted changes to tracked files in ``checkout``, this
    tool's own output aside: rows it appended earlier in the same change
    do not make the measured tree dirty."""
    return not _git(
        checkout, "status", "--porcelain", "--untracked-files=no",
        "--", ".", f":!{OUT.name}",
    )


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One measured run of the unmodified runner in ``checkout``."""
    with tempfile.TemporaryDirectory() as tmp:
        detail = Path(tmp) / "detail.json"
        subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--detail", str(detail)],
            cwd=checkout, stdout=subprocess.DEVNULL, check=False,
        )
        if not detail.exists():
            raise SystemExit(f"{workload} crashed in {checkout} before reporting")
        return json.loads(detail.read_text())


def _summary(records: list) -> dict:
    names = records[0]["metrics"]
    return {
        "correct": all(r["correct"] for r in records),
        "response_digests": sorted({r["response_digest"] for r in records}),
        "values": {m: [r["metrics"][m] for r in records] for m in names},
        "medians": {m: statistics.median(r["metrics"][m] for r in records) for m in names},
    }


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench.run import _fingerprint
    from bench.spec import declared
    from bench.trace import probe

    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=3, help="runs per checkout")
    parser.add_argument("--workload", action="append", choices=list(spec.workloads))
    parser.add_argument("--seed", type=int, default=2020)
    args = parser.parse_args(argv)
    if not _clean(args.parent):
        raise SystemExit(f"{args.parent} has uncommitted changes to tracked files")

    stamp = {
        **_fingerprint(),
        "tree_clean": _clean(ROOT),
        "parent_sha": _git(args.parent, "rev-parse", "HEAD"),
        "seed": args.seed,
        "seconds": spec.run_seconds,
        "pairs": args.pairs,
    }
    for workload in args.workload or spec.workloads:
        probe_s = statistics.median(probe() for _ in range(PROBE_READINGS))
        ours, theirs = [], []
        for i in range(args.pairs):  # which side runs first alternates
            sides = [(ROOT, ours), (args.parent, theirs)]
            for checkout, records in sides[:: 1 if i % 2 else -1]:
                records.append(_run(checkout, workload, args.seed, spec.run_seconds))
        row = {"workload": workload, **stamp, "probe_s": probe_s, **_summary(ours),
               "parent": _summary(theirs)}
        with OUT.open("a") as out:
            out.write(json.dumps(row, sort_keys=True) + "\n")
        print(workload, json.dumps(row["medians"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
