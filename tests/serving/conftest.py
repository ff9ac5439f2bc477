"""Serving-layer fixtures: a toy context plus one synthetic tenant."""

from __future__ import annotations

import pytest
from conservation import conserved

from repro.ckks.context import CkksContext, toy_parameters
from repro.serving.clock import ManualClock
from repro.serving.cluster import ServingCluster
from repro.serving.traffic import SyntheticClient, SyntheticTenant
from repro.serving.worker import LocalWorkerHandle, WorkerSpec


@pytest.fixture()
def manual_clock() -> ManualClock:
    return ManualClock()


@pytest.fixture(scope="session")
def serving_context() -> CkksContext:
    return CkksContext(toy_parameters(n=64, k=3, prime_bits=30))


@pytest.fixture()
def make_cluster(serving_context, manual_clock):
    """Factory for deterministic local-worker clusters on a manual clock."""

    built = []

    def _make(worker_count: int = 4, **kwargs) -> ServingCluster:
        spec = WorkerSpec(params=serving_context.params)
        cluster = ServingCluster(
            lambda wid: LocalWorkerHandle(wid, spec, clock=manual_clock),
            worker_count=worker_count,
            clock=manual_clock,
            **kwargs,
        )
        built.append(cluster)
        return cluster

    yield _make
    for cluster in built:
        cluster.stop()
        if cluster.inflight_count == 0:
            # every scenario that settles ends with its books balanced
            conserved(cluster.log)


@pytest.fixture(scope="session")
def tenant(serving_context) -> SyntheticTenant:
    return SyntheticTenant(serving_context, seed=404)


@pytest.fixture()
def make_client(tenant):
    """Factory for clients with unique ids per test."""
    counter = {"n": 0}

    def _make() -> SyntheticClient:
        counter["n"] += 1
        return SyntheticClient(tenant, f"c{counter['n']}-{id(counter)}", seed=counter["n"])

    return _make
