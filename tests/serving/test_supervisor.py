"""Heartbeat supervisor: probes, restarts, backoff, circuit breaker.

Every scenario runs on deterministic in-process workers under a manual
clock, so each probe instant, backoff delay and breaker transition is
an exact, reproducible point on the timeline -- including the classic
races: a probe straddling a drain, a worker dying *during* its
probation window, and the half-open probe of a quarantined worker.
"""

from __future__ import annotations

import pytest
from conservation import conserved

from repro.serving import framing
from repro.serving.cluster import (
    DEAD,
    DRAINED,
    HALF_OPEN,
    PROBATION,
    QUARANTINED,
    SERVING,
    UnknownWorkerError,
)
from repro.serving.supervisor import HeartbeatSupervisor
from repro.serving.traffic import multi_tenant_traffic


def connect_traffic(context, cluster, tenants=2, clients_per=2, requests=2):
    tenants_, clients_, trace = multi_tenant_traffic(
        context, tenants, clients_per, requests
    )
    for t in tenants_:
        t.register_with(cluster)
    for c in clients_:
        c.connect_cluster(cluster)
    return tenants_, clients_, trace


def make_supervisor(cluster, **kwargs):
    """Supervisor with tight, jitter-free timing (delays exact)."""
    defaults = dict(
        probe_interval=1.0,
        miss_threshold=3,
        probation_window=5.0,
        quarantine_window=10.0,
        flap_threshold=2,
        backoff_base=4.0,
        backoff_factor=2.0,
        backoff_jitter=0.0,
        seed=7,
    )
    defaults.update(kwargs)
    return HeartbeatSupervisor(cluster, **defaults)


def placements(cluster, clients):
    return {c.client_id: cluster._placement[c.client_id] for c in clients}


class TestHeartbeat:
    def test_healthy_workers_stay_serving(self, make_cluster, manual_clock):
        cluster = make_cluster(worker_count=3)
        sup = make_supervisor(cluster)
        sup.run(until=10.0)
        assert sup.log.count("died") == 0
        assert sup.log.count("missed") == 0
        assert sup.log.count("probe") > 0
        health = sup.worker_health()
        assert set(health) == set(cluster.workers)
        for view in health.values():
            assert view.state == SERVING
            assert view.flaps == 0  # the breaker is closed
            assert view.heartbeat_age == 0.0  # probed this very tick

    def test_death_needs_n_consecutive_misses(self, make_cluster, manual_clock):
        cluster = make_cluster(worker_count=2)
        sup = make_supervisor(cluster, miss_threshold=3)
        sup.tick()
        victim = cluster.ring.worker_ids[0]
        cluster.workers[victim].kill()  # silent crash: no traffic notices
        manual_clock.advance(1.0)
        sup.tick()
        manual_clock.advance(1.0)
        sup.tick()
        # two misses: still only suspected, no failover yet
        assert sup.log.count("died") == 0
        assert sup.worker_health()[victim].missed_probes == 2
        manual_clock.advance(1.0)
        sup.tick()
        # third consecutive miss: declared dead, restart scheduled
        assert sup.log.count("died") == 1
        assert sup.worker_health()[victim].state == DEAD

    def test_probe_error_counts_as_miss(self, make_cluster, manual_clock):
        cluster = make_cluster(worker_count=2)
        victim = cluster.ring.worker_ids[0]

        def exploding_ping():
            raise RuntimeError("transport wedged")

        cluster.workers[victim].ping = exploding_ping
        sup = make_supervisor(cluster, miss_threshold=2)
        sup.tick()
        manual_clock.advance(1.0)
        sup.tick()
        assert sup.log.count("probe_error") == 2
        assert sup.log.count("missed") == 2
        assert sup.log.count("died") == 1  # 2 misses at threshold 2


class TestRestartAndPlacement:
    def test_death_fails_over_inflight_and_restores_placement(
        self, serving_context, make_cluster, manual_clock
    ):
        cluster = make_cluster(worker_count=4)
        tenants, clients, trace = connect_traffic(serving_context, cluster)
        before = placements(cluster, clients)
        for cid, fr in trace:
            cluster.receive(cid, fr)

        sup = make_supervisor(cluster)
        sup.tick()
        victim = max(
            cluster.ring.worker_ids,
            key=lambda w: sum(
                1 for wid in cluster._inflight.values() if wid == w
            ),
        )
        at_victim = sum(
            1 for wid in cluster._inflight.values() if wid == victim
        )
        assert at_victim > 0
        cluster.workers[victim].kill()

        # three missed probes at t=1,2,3 declare death at t=3
        sup.run(until=3.0)
        assert sup.log.count("died") == 1
        assert cluster.report.failed_over_requests == at_victim
        assert victim not in cluster.ring
        # the failover errors are classified retryable
        errs = [
            framing.decode_frame(b)
            for c in clients
            for b in cluster.take_outbox(c.client_id)
        ]
        assert errs
        assert all(framing.is_retryable_error(f) for f in errs)

        # backoff: first restart delay is base=4s after the t=3 death
        sup.run(until=6.9)
        assert sup.worker_health()[victim].state == DEAD
        assert victim not in cluster.ring
        sup.run(until=7.1)
        assert sup.worker_health()[victim].state == PROBATION
        assert victim in cluster.ring
        assert sup.log.count("restarted") == 1

        # probation passes -> serving, and consistent hashing has put
        # every tenant back exactly where it was before the crash
        sup.run(until=13.0)
        assert sup.worker_health()[victim].state == SERVING
        assert placements(cluster, clients) == before

        # the recovered cluster still serves (conservation intact)
        for c in clients:
            cluster.receive(c.client_id, c.request_bytes("double", [1.0, 2.0]))
        cluster.pump()  # queue -> lanes
        manual_clock.advance(0.01)
        cluster.drain()  # flush everything pending anywhere
        assert conserved(cluster.log)

    def test_backoff_schedule_is_deterministic(self, make_cluster, manual_clock):
        """Same seed => the same jittered restart schedule, run to run."""

        def collect_schedule():
            cluster = make_cluster(worker_count=2)
            sup = make_supervisor(
                cluster,
                backoff_jitter=0.5,
                seed=99,
                probation_window=2.0,
                backoff_max=100.0,  # uncapped: expose the exponential
            )
            start = manual_clock.now
            sup.tick()
            victim = cluster.ring.worker_ids[0]
            delays = []
            # kill it three times; record each scheduled restart delay
            for _ in range(3):
                cluster.workers[victim].kill()
                while sup.worker_health()[victim].state != DEAD:
                    manual_clock.advance(0.5)
                    sup.tick()
                death_at = manual_clock.now
                while sup.worker_health()[victim].state == DEAD:
                    manual_clock.advance(0.125)
                    sup.tick()
                delays.append(manual_clock.now - death_at)
            return [round(d, 6) for d in delays]

        first = collect_schedule()
        second = collect_schedule()
        assert first == second
        # exponential growth must survive the jitter: attempt 1 is drawn
        # from [4, 6), attempt 2 from [8, 12) -- disjoint intervals
        assert first[0] < first[1] < first[2]


class TestCircuitBreaker:
    def kill_until_dead(self, sup, cluster, manual_clock, victim):
        cluster.workers[victim].kill()
        deaths = sup.log.count("died")
        while sup.log.count("died") == deaths:
            manual_clock.advance(1.0)
            sup.tick()

    def wait_state(self, sup, manual_clock, victim, state, step=0.25, limit=400):
        for _ in range(limit):
            if sup.worker_health()[victim].state == state:
                return
            manual_clock.advance(step)
            sup.tick()
        raise AssertionError(
            f"{victim} never reached {state}; "
            f"now {sup.worker_health()[victim]}"
        )

    def test_flapping_worker_is_quarantined_then_rehabilitated(
        self, serving_context, make_cluster, manual_clock
    ):
        cluster = make_cluster(worker_count=3)
        tenants, clients, _ = connect_traffic(serving_context, cluster)
        before = placements(cluster, clients)
        sup = make_supervisor(cluster, flap_threshold=2)
        sup.tick()
        victim = cluster.ring.worker_ids[0]

        # death 1 (serving): restart to probation, breaker stays closed
        self.kill_until_dead(sup, cluster, manual_clock, victim)
        self.wait_state(sup, manual_clock, victim, PROBATION)
        assert sup.worker_health()[victim].flaps == 0  # a serving death is no flap

        # death 2 (during probation): flap 1 of 2 -- still no breaker
        self.kill_until_dead(sup, cluster, manual_clock, victim)
        assert sup.log.count("quarantined") == 0
        self.wait_state(sup, manual_clock, victim, PROBATION)

        # death 3 (during probation): flap 2 trips the breaker -- the
        # worker restarts OFF the ring and its tenants stay re-placed
        self.kill_until_dead(sup, cluster, manual_clock, victim)
        assert sup.log.count("quarantined") == 1
        self.wait_state(sup, manual_clock, victim, QUARANTINED)
        assert cluster.workers[victim].alive
        assert victim not in cluster.ring
        assert all(w != victim for w in placements(cluster, clients).values())

        # quarantine window passes -> breaker half-opens (still off ring)
        health = sup.worker_health()[victim]
        assert health.flaps == 2  # the breaker is open: flaps at the threshold
        while sup.worker_health()[victim].state == QUARANTINED:
            manual_clock.advance(1.0)
            sup.tick()
        assert sup.worker_health()[victim].state == HALF_OPEN
        assert victim not in cluster.ring

        # it survives the half-open probe window -> rejoins, counters
        # reset, and placement returns to exactly the original map
        self.wait_state(sup, manual_clock, victim, SERVING)
        view = sup.worker_health()[victim]
        assert view.flaps == 0  # the breaker is closed again
        assert victim in cluster.ring
        assert placements(cluster, clients) == before
        assert sup.log.count("rejoined") == 1

    def test_death_during_half_open_requarantines(
        self, make_cluster, manual_clock
    ):
        cluster = make_cluster(worker_count=2)
        sup = make_supervisor(cluster, flap_threshold=1)
        sup.tick()
        victim = cluster.ring.worker_ids[0]

        # flap_threshold=1: the first probation death opens the breaker
        self.kill_until_dead(sup, cluster, manual_clock, victim)
        self.wait_state(sup, manual_clock, victim, PROBATION)
        self.kill_until_dead(sup, cluster, manual_clock, victim)
        self.wait_state(sup, manual_clock, victim, QUARANTINED)
        while sup.worker_health()[victim].state != HALF_OPEN:
            manual_clock.advance(1.0)
            sup.tick()

        # dying during the half-open probe window slams the breaker shut
        quarantines = sup.log.count("quarantined")
        self.kill_until_dead(sup, cluster, manual_clock, victim)
        self.wait_state(sup, manual_clock, victim, QUARANTINED)
        assert sup.worker_health()[victim].flaps == 1  # open: flaps at the threshold
        assert sup.log.count("quarantined") == quarantines + 1
        assert victim not in cluster.ring
        assert sup.log.count("rejoined") == 0


class TestRingEmptyFailover:
    def test_last_worker_going_silent_is_logged_and_restarted(
        self, serving_context, make_cluster, manual_clock
    ):
        """A one-worker cluster whose worker stops answering probes:
        failover has no ring to re-place its tenants on, so the
        supervisor logs one ``failover_error``, schedules the restart
        all the same, and the restarted worker serves again."""
        cluster = make_cluster(worker_count=1)
        tenants, clients, trace = connect_traffic(
            serving_context, cluster, tenants=1, clients_per=1, requests=2
        )
        for cid, fr in trace:
            cluster.receive(cid, fr)
        sup = make_supervisor(cluster, miss_threshold=2)
        sup.tick()
        cluster.workers["w0"].ping = lambda: False  # alive, but silent

        sup.run(until=2.0)  # misses at t=1 and t=2: declared dead at t=2
        assert sup.log.count("died") == 1
        assert sup.log.count("failover_error") == 1
        assert sup.worker_health()["w0"].state == DEAD
        assert len(cluster.ring) == 0
        # what the worker held was answered, retryably
        assert cluster.report.failed_over_requests == len(trace)
        (client,) = clients
        errors = [framing.decode_frame(b) for b in cluster.take_outbox(client.client_id)]
        assert len(errors) == len(trace)
        assert all(framing.is_retryable_error(f) for f in errors)

        sup.run(until=6.5)  # backoff_base=4 s after the death, no jitter
        assert sup.log.count("restarted") == 1
        assert sup.log.payloads_of("restarted") == [PROBATION]
        assert "w0" in cluster.ring
        cluster.receive(client.client_id, client.request_bytes("double", [1.5]))
        cluster.drain()
        (blob,) = cluster.take_outbox(client.client_id)
        _, values = tenants[0].decrypt_response(blob)
        assert values[0] == pytest.approx(3.0, rel=1e-3, abs=1e-3)
        assert sup.log.count("failover_error") == 1
        assert conserved(cluster.log)


class TestDrainInteraction:
    def test_probe_straddling_a_drain(
        self, serving_context, make_cluster, manual_clock
    ):
        """A drained worker is alive and off the ring: probes during and
        after the drain must not declare it dead or restart it."""
        cluster = make_cluster(worker_count=3)
        tenants, clients, trace = connect_traffic(serving_context, cluster)
        for cid, fr in trace:
            cluster.receive(cid, fr)
        sup = make_supervisor(cluster)
        sup.tick()

        victim = cluster.ring.worker_ids[0]
        cluster.drain_worker(victim)
        assert victim not in cluster.ring
        # probes keep landing across the whole drain window
        sup.run(until=10.0)
        assert sup.log.count("died") == 0
        assert sup.log.count("restarted") == 0
        view = sup.worker_health()[victim]
        assert view.state == DRAINED and view.missed_probes == 0
        # and the drained worker can still rejoin normally
        cluster.rejoin_worker(victim)
        assert victim in cluster.ring

    def test_double_drain_is_a_clear_error(self, make_cluster):
        cluster = make_cluster(worker_count=2)
        victim = cluster.ring.worker_ids[0]
        cluster.drain_worker(victim)
        with pytest.raises(UnknownWorkerError):
            cluster.drain_worker(victim)

    def test_a_drained_worker_that_dies_stays_off_the_ring(
        self, serving_context, make_cluster, manual_clock
    ):
        """A drain is the operator's: a drained worker that dies is
        restarted drained, off the ring, its tenants where the drain put
        them -- not put back on the ring by the supervisor."""
        cluster = make_cluster(worker_count=3)
        tenants, clients, _ = connect_traffic(serving_context, cluster)
        sup = make_supervisor(cluster)
        victim = cluster.ring.worker_ids[0]
        cluster.drain_worker(victim)
        drained = placements(cluster, clients)
        assert victim not in drained.values()
        cluster.workers[victim].kill()

        sup.run(until=30.0)
        assert [sup.log.count(k) for k in ("died", "restarted", "recovered")] == [1, 1, 0]
        assert sup.log.payloads_of("restarted") == [DRAINED]
        assert cluster.workers[victim].alive
        assert victim not in cluster.ring
        assert sup.worker_health()[victim].state == cluster.states[victim] == DRAINED
        assert placements(cluster, clients) == drained
        cluster.rejoin_worker(victim)
        assert victim in cluster.ring
        assert victim in placements(cluster, clients).values()

    def test_a_rejoined_worker_dies_as_a_serving_one(
        self, serving_context, make_cluster, manual_clock
    ):
        """Restarted drained, then rejoined by the operator, a worker's
        next death is an ordinary one: no flap, no quarantine, and its
        restart lands on the ring."""
        cluster = make_cluster(worker_count=3)
        connect_traffic(serving_context, cluster)
        sup = make_supervisor(cluster, flap_threshold=1)
        victim = cluster.ring.worker_ids[0]
        cluster.drain_worker(victim)
        cluster.workers[victim].kill()
        sup.run(until=30.0)
        assert cluster.states[victim] == DRAINED
        cluster.rejoin_worker(victim)
        sup.run(until=31.0)
        cluster.workers[victim].kill()

        sup.run(until=60.0)
        assert sup.log.payloads_of("restarted") == [DRAINED, PROBATION]
        assert sup.log.count("quarantined") == 0
        assert sup.worker_health()[victim].flaps == 0
        assert cluster.states[victim] == SERVING and victim in cluster.ring


class TestHandMoves:
    """An operator's move between ticks sets the supervisor's timers as
    its own would."""

    def test_a_hand_restart_serves_a_full_probation(self, make_cluster, manual_clock):
        cluster = make_cluster(worker_count=2)
        sup = make_supervisor(cluster)  # a 5 s probation
        sup.run(until=10.0)
        victim = cluster.ring.worker_ids[0]
        cluster.restart_worker(victim)
        sup.run(until=14.5)
        assert cluster.states[victim] == PROBATION and sup.log.count("recovered") == 0
        sup.run(until=15.0)
        assert cluster.states[victim] == SERVING and sup.log.count("recovered") == 1
        # a fresh worker's probation is its own, though the state stays put
        cluster.restart_worker(victim)
        sup.run(until=18.0)
        cluster.restart_worker(victim)
        sup.run(until=22.5)
        assert cluster.states[victim] == PROBATION and sup.log.count("recovered") == 1
        sup.run(until=23.0)
        assert cluster.states[victim] == SERVING and sup.log.count("recovered") == 2

    def test_a_hand_restart_of_a_declared_death_probes_afresh(
        self, make_cluster, manual_clock
    ):
        cluster = make_cluster(worker_count=2)
        sup = make_supervisor(cluster)
        victim = cluster.ring.worker_ids[0]
        cluster.workers[victim].kill()
        sup.run(until=3.0)
        assert cluster.states[victim] == DEAD and sup.log.count("died") == 1
        cluster.restart_worker(victim)
        cluster.workers[victim].ping = lambda: False
        sup.tick()
        # one miss of a fresh worker is one miss, not a second death
        assert sup.log.count("died") == 1
        view = sup.worker_health()[victim]
        assert view.state == PROBATION and view.missed_probes == 1
