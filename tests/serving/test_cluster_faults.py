"""Fault injection for the sharded front-door: crashes, drains, rejoins.

Every scenario runs on deterministic in-process workers under a manual
clock (``make_cluster``), so "kill a worker mid-flight" is exactly
reproducible: the same requests are in the same lanes on every run.
The properties under test:

* a crash never hangs a client and never fabricates a response -- each
  in-flight request at the dead worker surfaces as exactly one ERROR
  frame, everything else completes normally;
* a graceful drain loses nothing: every request admitted anywhere
  completes as a RESPONSE, even requests whose batch deadline had not
  arrived when the drain started;
* a restarted worker rejoins the hash ring and consistent hashing puts
  its tenants back exactly where they were;
* the conservation law ``completed + shed + failed_over == submitted``
  holds through arbitrary seeded interleavings of traffic and faults,
  with every request getting exactly one terminal frame.
"""

from __future__ import annotations

import random

import pytest

from repro.serving import framing
from repro.serving.cluster import NoWorkersError
from repro.serving.traffic import multi_tenant_traffic
from repro.serving.worker import WorkerDeadError


def connect_traffic(context, cluster, tenants=3, clients_per=2, requests=4):
    """Register seeded multi-tenant traffic with a cluster."""
    tenants_, clients_, trace = multi_tenant_traffic(
        context, tenants, clients_per, requests
    )
    for t in tenants_:
        t.register_with(cluster)
    for c in clients_:
        c.connect_cluster(cluster)
    return tenants_, clients_, trace


def submitted_ids(trace):
    """``client_id -> {request_id}`` for a traffic trace."""
    ids = {}
    for client_id, frame_bytes in trace:
        _, request_id = framing.peek_frame_ids(frame_bytes)
        ids.setdefault(client_id, set()).add(request_id)
    return ids


def take_all(cluster, clients):
    """Drain every client outbox into ``client_id -> [Frame]``."""
    out = {}
    for c in clients:
        frames = [framing.decode_frame(b) for b in cluster.take_outbox(c.client_id)]
        if frames:
            out[c.client_id] = frames
    return out


def merge_terminals(into, frames_by_client):
    """Accumulate terminal frames, asserting one-per-request on the way."""
    for client_id, frames in frames_by_client.items():
        per = into.setdefault(client_id, {})
        for f in frames:
            assert f.request_id not in per, (
                f"client {client_id} got a second terminal frame for "
                f"request {f.request_id}"
            )
            per[f.request_id] = f


def loaded_worker(cluster):
    """The worker id holding the most in-flight requests."""
    counts = {}
    for (_, _), (wid, _) in cluster._inflight.items():
        counts[wid] = counts.get(wid, 0) + 1
    assert counts, "no requests in flight"
    return max(counts, key=counts.get)


class TestKillMidFlight:
    def test_inflight_surface_as_errors_rest_complete(
        self, serving_context, make_cluster
    ):
        cluster = make_cluster(worker_count=4)
        tenants, clients, trace = connect_traffic(serving_context, cluster)
        for cid, fr in trace:
            cluster.receive(cid, fr)
        assert cluster.inflight_count == len(trace)

        victim = loaded_worker(cluster)
        at_victim = sum(
            1 for (_, _), (wid, _) in cluster._inflight.items() if wid == victim
        )
        failed = cluster.kill_worker(victim)
        assert failed == at_victim
        assert cluster.report.failed_over_requests == failed
        assert victim not in cluster.ring

        cluster.drain()
        terminals = {}
        merge_terminals(terminals, take_all(cluster, clients))
        # exactly one terminal frame per submitted request
        assert {
            cid: set(per) for cid, per in terminals.items()
        } == submitted_ids(trace)
        errors = [
            f for per in terminals.values() for f in per.values()
            if f.kind == framing.ERROR
        ]
        assert len(errors) == failed
        assert all("died" in f.error_message for f in errors)
        # the survivors' responses are real ciphertexts, not junk
        by_tenant = {c.client_id: c.tenant for c in clients}
        for cid, per in terminals.items():
            for f in per.values():
                if f.kind == framing.RESPONSE:
                    by_tenant[cid].decrypt_response(
                        framing.encode_frame(
                            f.kind, f.request_id, f.client_id,
                            f.op, f.op_arg, f.payload,
                        )
                    )

    def test_responses_collected_before_the_crash_survive(
        self, serving_context, make_cluster, manual_clock
    ):
        cluster = make_cluster(worker_count=2)
        tenants, clients, trace = connect_traffic(serving_context, cluster)
        for cid, fr in trace:
            cluster.receive(cid, fr)
        # admit into lanes, then let every deadline pass and collect:
        # all responses are out
        cluster.pump()
        manual_clock.advance(1.0)
        cluster.pump()
        assert cluster.inflight_count == 0
        victim = cluster.ring.worker_ids[0]
        assert cluster.kill_worker(victim) == 0  # nothing left to lose

        terminals = {}
        merge_terminals(terminals, take_all(cluster, clients))
        kinds = {f.kind for per in terminals.values() for f in per.values()}
        assert kinds == {framing.RESPONSE}
        assert {
            cid: set(per) for cid, per in terminals.items()
        } == submitted_ids(trace)

    def test_sessions_leave_the_dead_worker(self, serving_context, make_cluster):
        cluster = make_cluster(worker_count=4)
        tenants, clients, trace = connect_traffic(serving_context, cluster)
        victim = cluster.client_worker(clients[0].client_id)
        cluster.kill_worker(victim)
        for c in clients:
            assert cluster.client_worker(c.client_id) != victim
        # traffic still completes on the survivors
        for cid, fr in trace:
            cluster.receive(cid, fr)
        cluster.drain()
        terminals = {}
        merge_terminals(terminals, take_all(cluster, clients))
        kinds = {f.kind for per in terminals.values() for f in per.values()}
        assert kinds == {framing.RESPONSE}

    def test_killing_the_last_worker_raises(self, serving_context, make_cluster):
        cluster = make_cluster(worker_count=1)
        connect_traffic(serving_context, cluster, tenants=1, clients_per=1, requests=1)
        with pytest.raises(NoWorkersError):
            cluster.kill_worker("w0")


class TestRestart:
    def test_restart_rejoins_ring_and_restores_placement(
        self, serving_context, make_cluster
    ):
        cluster = make_cluster(worker_count=4)
        tenants, clients, trace = connect_traffic(serving_context, cluster)
        before = {c.client_id: cluster.client_worker(c.client_id) for c in clients}
        victim = before[clients[0].client_id]

        cluster.kill_worker(victim)
        cluster.restart_worker(victim)
        assert victim in cluster.ring
        # consistent hashing puts every tenant back where it was
        after = {c.client_id: cluster.client_worker(c.client_id) for c in clients}
        assert after == before

        # the fresh worker has an empty key cache: key material must
        # have re-uploaded, or these keyed requests would all ERROR
        for cid, fr in trace:
            cluster.receive(cid, fr)
        cluster.drain()
        terminals = {}
        merge_terminals(terminals, take_all(cluster, clients))
        kinds = {f.kind for per in terminals.values() for f in per.values()}
        assert kinds == {framing.RESPONSE}

    def test_restarting_a_live_worker_fails_its_inflight_over(
        self, serving_context, make_cluster
    ):
        """``restart_worker`` stops a live worker, so what it held in
        flight is gone with it: each such request gets one retryable
        ERROR (it used to stay in the in-flight table forever -- a hang
        and a broken conservation law), the rest complete."""
        cluster = make_cluster(worker_count=2)
        tenants, clients, trace = connect_traffic(serving_context, cluster)
        for cid, fr in trace:
            cluster.receive(cid, fr)
        victim = loaded_worker(cluster)
        at_victim = sum(
            1 for (_, _), (wid, _) in cluster._inflight.items() if wid == victim
        )
        cluster.restart_worker(victim)
        assert cluster.report.failed_over_requests == at_victim
        assert cluster.inflight_count == len(trace) - at_victim
        cluster.pump()
        cluster.drain()
        assert cluster.inflight_count == 0

        terminals = {}
        merge_terminals(terminals, take_all(cluster, clients))
        assert {
            cid: set(per) for cid, per in terminals.items()
        } == submitted_ids(trace)
        errors = [
            f for per in terminals.values() for f in per.values()
            if f.kind == framing.ERROR
        ]
        assert len(errors) == at_victim
        assert all(framing.is_retryable_error(f) for f in errors)
        report = cluster.report
        assert (
            report.completed + report.shed_requests
            + report.failed_over_requests + report.expired_requests
        ) == report.submitted == len(trace)
        # the fresh worker serves the retries: its key cache was refilled
        for cid, fr in trace:
            cluster.receive(cid, fr)
        cluster.drain()
        assert cluster.inflight_count == 0
        assert report.completed == len(trace)

    def test_rejoining_a_dead_worker_is_refused(self, serving_context, make_cluster):
        cluster = make_cluster(worker_count=2)
        connect_traffic(serving_context, cluster, tenants=1, clients_per=1, requests=1)
        cluster.kill_worker("w0")
        with pytest.raises(WorkerDeadError, match="restart_worker"):
            cluster.rejoin_worker("w0")


class TestDrainUnderLoad:
    def test_drain_loses_zero_responses(self, serving_context, make_cluster):
        cluster = make_cluster(worker_count=4)
        tenants, clients, trace = connect_traffic(
            serving_context, cluster, requests=6
        )
        for cid, fr in trace:
            cluster.receive(cid, fr)
        victim = loaded_worker(cluster)
        at_victim = sum(
            1 for (_, _), (wid, _) in cluster._inflight.items() if wid == victim
        )
        assert at_victim > 0
        cluster.drain_worker(victim)
        # everything in flight at the drained worker completed
        assert not any(
            wid == victim for (_, _), (wid, _) in cluster._inflight.items()
        )
        assert victim not in cluster.ring
        cluster.drain()

        terminals = {}
        merge_terminals(terminals, take_all(cluster, clients))
        assert {
            cid: set(per) for cid, per in terminals.items()
        } == submitted_ids(trace)
        kinds = {f.kind for per in terminals.values() for f in per.values()}
        assert kinds == {framing.RESPONSE}
        assert cluster.report.failed_over_requests == 0
        assert cluster.report.shed_requests == 0

    def test_deadline_straddling_admissions_flush_on_drain(
        self, serving_context, make_cluster, manual_clock
    ):
        """Requests whose lane deadline is still in the future when the
        drain starts must flush anyway -- a drain waits for no deadline.
        The manual clock never advances, so any wall-clock dependence
        in the drain path would leave these requests pending forever
        (this is the regression test for the drain-ignores-``now`` fix)."""
        cluster = make_cluster(worker_count=2)
        tenants, clients, trace = connect_traffic(
            serving_context, cluster, tenants=2, clients_per=1, requests=2
        )
        for cid, fr in trace:
            cluster.receive(cid, fr)
        assert cluster.inflight_count == len(trace)
        for wid in list(cluster.ring.worker_ids):
            cluster.drain_worker(wid, now=manual_clock())
        assert cluster.inflight_count == 0
        terminals = {}
        merge_terminals(terminals, take_all(cluster, clients))
        kinds = {f.kind for per in terminals.values() for f in per.values()}
        assert kinds == {framing.RESPONSE}

    def test_admission_during_drain_errors_at_the_worker(
        self, serving_context, make_cluster
    ):
        """A frame that reaches a draining worker anyway (router race) is
        answered with an ERROR, never silently dropped."""
        cluster = make_cluster(worker_count=2)
        tenants, clients, trace = connect_traffic(
            serving_context, cluster, tenants=1, clients_per=1, requests=2
        )
        client = clients[0]
        wid = cluster.client_worker(client.client_id)
        handle = cluster.workers[wid]
        handle.begin_drain()
        handle.submit(client.client_id, framing.decode_frame(trace[0][1]))
        responses = handle.poll_responses()
        (frame_bytes,) = responses[client.client_id]
        frame = framing.decode_frame(frame_bytes)
        assert frame.kind == framing.ERROR
        assert "draining" in frame.error_message

    def test_rejoin_after_drain_restores_placement(
        self, serving_context, make_cluster
    ):
        cluster = make_cluster(worker_count=4)
        tenants, clients, trace = connect_traffic(serving_context, cluster)
        before = {c.client_id: cluster.client_worker(c.client_id) for c in clients}
        victim = before[clients[0].client_id]
        cluster.drain_worker(victim)
        assert all(
            cluster.client_worker(c.client_id) != victim for c in clients
        )
        cluster.rejoin_worker(victim)
        after = {c.client_id: cluster.client_worker(c.client_id) for c in clients}
        assert after == before
        # and it serves again
        for cid, fr in trace:
            cluster.receive(cid, fr)
        cluster.drain()
        terminals = {}
        merge_terminals(terminals, take_all(cluster, clients))
        kinds = {f.kind for per in terminals.values() for f in per.values()}
        assert kinds == {framing.RESPONSE}


class TestConservation:
    """completed + shed + failed_over == submitted, through chaos."""

    def test_shedding_is_explicit_and_counted(self, serving_context, make_cluster):
        cluster = make_cluster(worker_count=2, max_inflight=4)
        tenants, clients, trace = connect_traffic(
            serving_context, cluster, tenants=2, clients_per=2, requests=3
        )
        for cid, fr in trace:
            cluster.receive(cid, fr)
        shed = cluster.report.shed_requests
        assert shed == len(trace) - 4  # everything over the cap
        cluster.drain()
        terminals = {}
        merge_terminals(terminals, take_all(cluster, clients))
        # shed requests still got their terminal (ERROR) frame
        assert {
            cid: set(per) for cid, per in terminals.items()
        } == submitted_ids(trace)
        errors = [
            f for per in terminals.values() for f in per.values()
            if f.kind == framing.ERROR
        ]
        assert len(errors) == shed
        assert all("capacity" in f.error_message for f in errors)
        r = cluster.report
        assert r.completed + r.shed_requests + r.failed_over_requests == r.submitted

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_chaos_every_request_gets_one_terminal(
        self, serving_context, make_cluster, manual_clock, seed
    ):
        rng = random.Random(7000 + seed)
        cluster = make_cluster(worker_count=4)
        tenants, clients, trace = connect_traffic(
            serving_context, cluster, tenants=3, clients_per=2, requests=6
        )
        expected = submitted_ids(trace)
        terminals = {}

        i = 0
        while i < len(trace):
            roll = rng.random()
            if roll < 0.55:
                for _ in range(rng.randrange(1, 6)):
                    if i >= len(trace):
                        break
                    cid, fr = trace[i]
                    i += 1
                    cluster.receive(cid, fr)
            elif roll < 0.75:
                manual_clock.advance(rng.choice((0.0005, 0.002, 0.05)))
                cluster.pump()
            elif roll < 0.87 and len(cluster.ring) > 1:
                wid = rng.choice(cluster.ring.worker_ids)
                cluster.kill_worker(wid)
                if rng.random() < 0.5:
                    cluster.restart_worker(wid)
            elif len(cluster.ring) > 1:
                wid = rng.choice(cluster.ring.worker_ids)
                cluster.drain_worker(wid)
                cluster.rejoin_worker(wid)
            merge_terminals(terminals, take_all(cluster, clients))

        cluster.drain()
        merge_terminals(terminals, take_all(cluster, clients))
        assert {cid: set(per) for cid, per in terminals.items()} == expected
        r = cluster.report
        assert r.completed + r.shed_requests + r.failed_over_requests == r.submitted
        assert cluster.inflight_count == 0
