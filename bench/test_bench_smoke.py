"""Self-test of the benchmark: every workload on the n = 64 toy ring.

Checks the plumbing, not the speed: each workload runs two blocks end to
end and two traced, and must emit exactly the metric names declared in
``BENCHMARK.json`` with every applicable layer reporting something.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro.ckks.backend import PolynomialBackend

from bench.measure import run_workload
from bench.spec import declared
from bench.trace import KERNELS

NAMES = list(declared().workloads)
END_TO_END = declared().end_to_end
PER_LAYER = declared().per_layer
LAYERS = {name.split(".")[0] for name in PER_LAYER}

#: layers whose metrics a workload cannot observe (reported as 0)
_SERVING_ONLY = {"cluster", "worker", "framing", "serialization", "batcher", "server"}
NOT_OBSERVED = {
    "serve_square_A": {"plan"},
    # kernels run in the children, out of the timing backend's reach
    "serve_square_A_proc": {"plan", "evaluator", "backend"},
    "serve_light_A": {"plan"},
    "serve_sweep_open_A": {"plan"},
    "plan_matvec16_B": _SERVING_ONLY,
}


@pytest.fixture(scope="module")
def records():
    return {
        (name, trace): run_workload(name, seed=7, seconds=0.0, trace=trace, smoke=True)
        for name in NAMES
        for trace in (False, True)
    }


def test_declared_names_are_well_formed():
    names = NAMES + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert set(NOT_OBSERVED) == set(NAMES)
    assert set(declared().exact) <= set(END_TO_END) | set(PER_LAYER)


def test_timing_backend_wraps_every_kernel():
    public = {
        name
        for name, _ in inspect.getmembers(PolynomialBackend, inspect.isfunction)
        if not name.startswith("_")
    }
    assert set(KERNELS) == public


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_run(records, name):
    record = records[name, False]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert set(record["metrics"]) == set(END_TO_END)
    # the driver's contract: an end-to-end metric is never 0
    assert all(value > 0 for value in record["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer(records, name):
    record = records[name, True]
    assert record["correct"] and record["failed"] == 0
    assert set(record["metrics"]) == set(PER_LAYER)
    for layer in LAYERS:
        values = [v for k, v in record["metrics"].items() if k.startswith(layer + ".")]
        if layer in NOT_OBSERVED[name]:
            assert not any(values), layer
        else:
            assert any(values), layer
    # the table accounts for the whole traced wall, by construction
    assert sum(row[1] for row in record["table"]) == pytest.approx(
        record["traced_wall_s"]
    )


def test_transports_answer_with_identical_bytes(records):
    assert (
        records["serve_square_A", False]["response_digest"]
        == records["serve_square_A_proc", False]["response_digest"]
    )
