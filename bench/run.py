"""The one benchmark command.

One measured run (the contract of ``BENCHMARK.json``; the last line of
standard output is the result object)::

    python3 bench/run.py --workload serve_square_A --seed 2020 --seconds 10 --trace 0

Every workload, end-to-end then traced, each run in a fresh process;
prints every metric by name with its unit and writes
``bench/results/BENCH_<workload>.json`` and ``BENCH_summary.json``::

    python3 bench/run.py [--seed 2020] [--seconds 10] [--repeat 2]

``--repeat 2`` is the noise-floor mode: each run is made twice and every
end-to-end metric is printed with both values and their relative
difference against its bound; exact metrics must be equal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
#: a traced run slower than its untraced half by more than this cannot be
#: trusted to attribute time
MAX_TRACE_OVERHEAD = 0.15


def _print_record(record: dict, declared: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    for name, value in record["metrics"].items():
        print(f"{name:42s} {value:16.6f} {declared[name]['unit']}")
    if "table" in record:
        print(f"# traced wall {record['traced_wall_s']:.4f} s over "
              f"{record['traced_requests']} requests")
        print(f"{'layer':42s} {'seconds':>10s} {'share':>8s} {'us/request':>12s}")
        for layer, seconds, share, per_request in record["table"]:
            print(f"{layer:42s} {seconds:10.4f} {share:8.3f} {per_request:12.1f}")
    share = record["failed"] / record["attempted"]
    print(f"failed_share {share:.6f} ratio ({record['failed']} of "
          f"{record['attempted']}), correct={record['correct']}")


def run_one(args, spec) -> int:
    from bench.measure import run_workload

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    declared = spec.per_layer if args.trace else spec.end_to_end
    if set(record["metrics"]) != set(declared):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(record['metrics']) ^ set(declared))}"
        )
    record["metrics"] = {name: record["metrics"][name] for name in declared}
    _print_record(record, declared)
    if args.detail:
        Path(args.detail).write_text(json.dumps(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": declared[name]["unit"]}
            for name, value in record["metrics"].items()
        },
    }))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# every workload
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One measured run in a fresh process (its own peak RSS, cold caches)."""
    detail = RESULTS / f".detail_{workload}_{trace}.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--detail", str(detail)],
        check=False,
    )
    if not detail.exists():
        raise SystemExit(f"{workload} (trace={trace}) crashed before reporting")
    record = json.loads(detail.read_text())
    detail.unlink()
    return record


def _fingerprint() -> dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass  # not Linux: the model stays unknown
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _noise_floor(name: str, runs: list, spec, problems: list) -> list:
    """Compare two runs of one workload, metric by metric.

    Only an exact metric that differs is a problem: two single runs on a
    shared box can sit further apart than a bound meant for medians.
    """
    lines = []
    for mode in ("end_to_end", "per_layer"):
        a, b = (run[mode]["metrics"] for run in runs)
        for metric in a:
            if metric in spec.exact and a[metric] != b[metric]:
                problems.append(
                    f"{name}: exact metric {metric} differs: {a[metric]} vs {b[metric]}"
                )
            if metric not in spec.end_to_end:
                continue
            diff = abs(a[metric] - b[metric]) / abs(a[metric])
            bound = spec.end_to_end[metric]["bound"]
            lines.append({"metric": metric, "first": a[metric], "second": b[metric],
                          "relative_difference": diff, "bound": bound})
            print(f"{name:22s} {metric:20s} {a[metric]:14.4f} {b[metric]:14.4f} "
                  f"diff {diff:7.4f} bound {bound:5.3f} "
                  f"{'ok' if diff <= bound else 'OVER'}")
    return lines


def run_all(args, spec) -> int:
    RESULTS.mkdir(exist_ok=True)
    problems: list = []
    stamp = {**_fingerprint(), "seed": args.seed, "seconds": args.seconds}
    summary = {**stamp, "workloads": {}}
    digests = {}
    for name, why in spec.workloads.items():
        runs = [
            {
                "end_to_end": _child(name, args.seed, args.seconds, 0),
                "per_layer": _child(name, args.seed, args.seconds, 1),
            }
            for _ in range(args.repeat)
        ]
        for run in runs:
            for mode, record in run.items():
                if not record["correct"]:
                    problems.append(
                        f"{name} ({mode}): {record['failed']} of "
                        f"{record['attempted']} failed or a check did not hold"
                    )
            overhead = run["per_layer"]["metrics"]["driver.trace_overhead_share"]
            if overhead > MAX_TRACE_OVERHEAD:
                problems.append(
                    f"{name}: trace_overhead_share {overhead:.3f} > "
                    f"{MAX_TRACE_OVERHEAD}: the timing backend is too heavy to trust"
                )
        record = {"workload": name, "why": why, **stamp, **runs[0]}
        if args.repeat > 1:
            print(f"# noise floor: {name}")
            record["noise_floor"] = _noise_floor(name, runs, spec, problems)
        (RESULTS / f"BENCH_{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        first = runs[0]["end_to_end"]
        digests[name] = first["response_digest"]
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs[0].values()),
            "failed_share": first["failed"] / first["attempted"],
            **first["metrics"],
        }
    identical = digests["serve_square_A"] == digests["serve_square_A_proc"]
    summary["square_responses_identical_across_transports"] = identical
    if not identical:
        problems.append("serve_square_A and serve_square_A_proc responses differ")
    summary["problems"] = problems
    (RESULTS / "BENCH_summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    # the driver runs this file from a bare checkout: no PYTHONPATH
    sys.path[:0] = [str(HERE.parent), str(HERE.parent / "src")]
    from bench.spec import declared

    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.workloads),
                        help="one measured run of this workload (default: all)")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=spec.run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, choices=(1, 2), default=1,
                        help="every-workload mode: runs per workload (2 = noise floor)")
    parser.add_argument("--detail", help="also write the full record of one run here")
    args = parser.parse_args(argv)
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
