"""Shared helpers for the benchmark harness.

Every ``bench_*`` module reproduces one table or figure of the paper:
it regenerates the numbers from the models/simulators, renders a
paper-vs-measured comparison, writes it to ``benchmarks/results/`` and
asserts the reproduction criteria (exact for deterministic quantities,
shape/tolerance for modelled ones).

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
rendered tables inline, or read them from the results directory.

Machine-readable results: every bench module additionally gets a
``results/BENCH_<name>.json`` written at session end -- per-test
outcomes plus any structured records a test registered through the
``emit_json`` fixture (op, ring size, backend, measured speedup, gate
threshold, ...) -- so the perf trajectory is trackable across PRs
without parsing rendered tables.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, List

import pytest

from repro.ckks.context import CkksContext, toy_parameters

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# bench_keyswitch_hoisting measures against the pre-hoisting baselines,
# which live with the tests (tests/ckks/differential.py, which draws on
# tests/oracles.py), one copy
for _tests in ("tests", "tests/ckks"):
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / _tests))

#: module basename (e.g. ``bench_batch_throughput``) -> structured records.
_BENCH_RECORDS: Dict[str, List[dict]] = {}

#: module basename -> {test nodeid: outcome}.
_BENCH_OUTCOMES: Dict[str, Dict[str, str]] = {}


def _module_of(nodeid: str) -> str:
    return pathlib.Path(nodeid.split("::", 1)[0]).stem


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a rendered table and persist it under results/<name>.txt."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit


@pytest.fixture()
def emit_json(request):
    """Register one structured result record for this bench module.

    Records land in ``results/BENCH_<module>.json`` at session end.
    Gate-bearing benches should record at least ``op``, ``n``,
    ``backend``, the measured ``speedup`` and the ``gate`` threshold.
    """
    module = _module_of(request.node.nodeid)

    def _emit(**record) -> None:
        _BENCH_RECORDS.setdefault(module, []).append(record)

    return _emit


def pytest_runtest_logreport(report):
    module = _module_of(report.nodeid)
    if not module.startswith("bench_"):
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        _BENCH_OUTCOMES.setdefault(module, {})[report.nodeid] = report.outcome


def pytest_sessionfinish(session, exitstatus):
    modules = set(_BENCH_OUTCOMES) | set(_BENCH_RECORDS)
    if not modules:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    for module in modules:
        outcomes = _BENCH_OUTCOMES.get(module, {})
        payload = {
            "bench": module,
            "passed": all(o in ("passed", "skipped") for o in outcomes.values()),
            "tests": outcomes,
            "records": _BENCH_RECORDS.get(module, []),
        }
        name = module[len("bench_"):] if module.startswith("bench_") else module
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


@pytest.fixture(scope="session")
def bench_context() -> CkksContext:
    """Small functional context used by simulator benchmarks."""
    return CkksContext(toy_parameters(n=256, k=4, prime_bits=30))


@pytest.fixture(scope="session")
def paper_scale_context() -> CkksContext:
    """Set-A-sized ring (n = 4096, k = 2) with reduced prime bits so the
    pure-Python software baseline stays measurable."""
    return CkksContext(toy_parameters(n=4096, k=2, prime_bits=30))
