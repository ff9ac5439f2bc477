"""The worker lifecycle as a state machine, checked against its table.

``ServingCluster.transition`` is the one code path that moves a worker:
operator calls (drain, rejoin, kill, restart) and the heartbeat
supervisor's verdicts both go through it.  A Hypothesis
``RuleBasedStateMachine`` drives local workers on a ``ManualClock`` with
every kind of move -- the operator's four, supervisor ticks with forced
probe misses, clock jumps, traffic, and a worker process dying with
nobody told -- and holds, after every step:

* each move the model table below allows lands where the model says, and
  each it refuses raises ``WorkerStateError`` and changes nothing (no
  state, no ring point, no event); so does a drain or rejoin of a worker
  that died unnoticed, with ``WorkerDeadError``;
* the ring is exactly the workers in an on-ring state;
* a worker's handle is alive exactly when its state says so, but for one
  that died unnoticed, whose state is still an alive one;
* conservation: once nothing is in flight, every admitted request was
  answered once;
* folding each worker's lifecycle events off ``cluster.log`` through the
  model table gives ``cluster.states``.

The model is a plain dict written out by hand, a second writing of
``cluster.TRANSITIONS``.  One seeded sequence is replayed on worker
processes too: the same final states, and byte-identical answers.
"""

from __future__ import annotations

import contextlib

from conservation import conserved
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ckks.context import CkksContext, toy_parameters
from repro.serving import (
    HeartbeatSupervisor,
    LocalWorkerHandle,
    ManualClock,
    NoWorkersError,
    ProcessWorkerHandle,
    ServingCluster,
    SyntheticClient,
    SyntheticTenant,
    WorkerDeadError,
    WorkerSpec,
    WorkerStateError,
)

S, P, D, Q, H, X, XD = (
    "serving", "probation", "drained", "quarantined", "half_open", "dead", "dead_drained",
)
ON_RING = {S, P}
ALIVE = {S, P, D, Q, H}

#: (state, move) -> next state, written out by hand
MODEL = {
    (S, "drain"): D, (P, "drain"): D,
    (D, "rejoin"): S, (H, "rejoin"): S,
    (P, "recover"): S,
    (Q, "half_open"): H,
    (X, "quarantine"): Q, (XD, "quarantine"): D,
    (S, "kill"): X, (P, "kill"): X, (Q, "kill"): X, (H, "kill"): X, (X, "kill"): X,
    (D, "kill"): XD, (XD, "kill"): XD,
    (S, "die"): X, (P, "die"): X, (Q, "die"): X, (H, "die"): X, (X, "die"): X,
    (D, "die"): XD, (XD, "die"): XD,
    (S, "restart"): P, (P, "restart"): P, (X, "restart"): P,
    (D, "restart"): D, (XD, "restart"): D,
    (Q, "restart"): Q, (H, "restart"): Q,
}

#: the event each move logs ("restarted" is both restarts: its payload
#: names where the worker landed)
MOVE_OF = {
    "drained": "drain", "rejoined": "rejoin", "recovered": "recover",
    "half_open": "half_open", "killed": "kill", "died": "die",
}

WORKERS = ("w0", "w1", "w2")
CONTEXT = CkksContext(toy_parameters(n=64, k=3, prime_bits=30))
TENANT = SyntheticTenant(CONTEXT, seed=4646, key_id="lifecycle")


def fold(log) -> dict:
    """Each worker's state, replayed from its lifecycle events."""
    states = dict.fromkeys(WORKERS, S)
    for event in log:
        if event.kind == "restarted":
            state = states[event.key]
            assert event.payload in (MODEL.get((state, "restart")), MODEL.get((state, "quarantine")))
            states[event.key] = event.payload
        elif event.kind in MOVE_OF:
            states[event.key] = MODEL[states[event.key], MOVE_OF[event.kind]]
    return states


def build(factory, clock):
    cluster = ServingCluster(factory, worker_ids=list(WORKERS), clock=clock)
    TENANT.register_with(cluster)
    clients = [SyntheticClient(TENANT, f"c{i}", seed=i) for i in range(3)]
    for client in clients:
        client.connect_cluster(cluster)
    supervisor = HeartbeatSupervisor(
        cluster, probe_interval=1.0, miss_threshold=2, probation_window=3.0,
        quarantine_window=4.0, flap_threshold=1, backoff_base=2.0, backoff_jitter=0.0,
        seed=46,
    )
    return cluster, clients, supervisor


def operate(cluster, worker_id: str, move: str):
    """One operator move, the way an operator makes it."""
    call = {
        "drain": cluster.drain_worker, "rejoin": cluster.rejoin_worker,
        "kill": cluster.kill_worker, "restart": cluster.restart_worker,
    }[move]
    try:
        call(worker_id)
    except NoWorkersError:
        assert len(cluster.ring) == 0  # a kill that emptied the ring, done all the same


class Lifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = ManualClock()
        #: workers that miss every probe, across their restarts too
        self.silent = set()
        #: handles killed behind the router's back
        self.crashed = []
        spec = WorkerSpec(params=CONTEXT.params, max_delay_seconds=0.5)

        def factory(worker_id):
            handle = LocalWorkerHandle(worker_id, spec, clock=self.clock)
            handle.ping = lambda: handle.alive and worker_id not in self.silent
            return handle

        self.cluster, self.clients, self.sup = build(factory, self.clock)
        self.sent = 0

    def _move(self, worker_id: str, move: str) -> None:
        cluster = self.cluster
        before = (dict(cluster.states), cluster.ring.worker_ids, len(list(cluster.log)))
        target = MODEL.get((before[0][worker_id], move))
        dead = target in ALIVE and move != "restart" and not cluster.workers[worker_id].alive
        if target is None or dead:
            with contextlib.suppress(WorkerDeadError if dead else WorkerStateError):
                operate(cluster, worker_id, move)
                raise AssertionError(f"{move} of a {before[0][worker_id]} worker was allowed")
            assert (dict(cluster.states), cluster.ring.worker_ids, len(list(cluster.log))) == before
        else:
            operate(cluster, worker_id, move)
            assert cluster.states[worker_id] == target

    @rule(worker_id=st.sampled_from(WORKERS),
          move=st.sampled_from(("drain", "rejoin", "kill", "restart")))
    def operator(self, worker_id, move):
        self._move(worker_id, move)

    @rule(worker_id=st.sampled_from(WORKERS))
    def crash(self, worker_id):
        """The worker's process dies, and nobody tells the router."""
        handle = self.cluster.workers[worker_id]
        if handle.alive:
            handle.kill()
            self.crashed.append(handle)

    @rule(client=st.integers(0, 2), value=st.floats(0.25, 2.0))
    def request(self, client, value):
        self.sent += 1
        client = self.clients[client]
        self.cluster.receive(client.client_id, client.request_bytes("double", [value]))

    @rule(worker_id=st.sampled_from(WORKERS), silent=st.booleans())
    def silence(self, worker_id, silent):
        """Force a worker's probes to miss, or stop forcing them."""
        (self.silent.add if silent else self.silent.discard)(worker_id)

    @rule(ticks=st.integers(1, 4))
    def supervise(self, ticks):
        for _ in range(ticks):
            self.clock.advance(1.0)
            self.cluster.pump()
            self.sup.tick()

    @rule(seconds=st.sampled_from((0.25, 2.0, 5.0, 30.0)))
    def jump(self, seconds):
        self.clock.advance(seconds)
        self.sup.tick()

    @rule()
    def settle(self):
        self.cluster.drain()

    @invariant()
    def ring_is_the_on_ring_states(self):
        cluster = self.cluster
        assert cluster.ring.worker_ids == sorted(w for w, s in cluster.states.items() if s in ON_RING)

    @invariant()
    def alive_matches_the_state(self):
        for worker_id, state in self.cluster.states.items():
            handle = self.cluster.workers[worker_id]
            crashed = any(handle is h for h in self.crashed)
            assert handle.alive == (state in ALIVE and not crashed), (worker_id, state)

    @invariant()
    def the_log_folds_to_the_states(self):
        assert fold(self.cluster.log) == self.cluster.states

    @invariant()
    def conservation(self):
        if self.cluster.inflight_count == 0:
            assert conserved(self.cluster.log)
            assert self.cluster.report.submitted == self.sent


Lifecycle.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLifecycle = Lifecycle.TestCase


# ----------------------------------------------------------------------
# one seeded sequence, on both transports
# ----------------------------------------------------------------------
def replay(factory) -> tuple:
    """Drain, kill, restart, rejoin and a supervised death under traffic;
    returns the final states and every client's answers by request."""
    clock = ManualClock()
    cluster, clients, sup = build(factory, clock)
    try:
        def traffic(value):
            for client in clients:
                cluster.receive(client.client_id, client.request_bytes("square", [value]))

        traffic(0.5)
        operate(cluster, "w0", "drain")
        traffic(0.75)
        operate(cluster, "w1", "kill")
        operate(cluster, "w0", "kill")
        operate(cluster, "w1", "restart")
        operate(cluster, "w0", "restart")
        traffic(1.25)
        cluster.workers["w2"].ping = lambda: False
        sup.run(until=5.0)  # w2 dies at 1 s and restarts at 3 s, in probation until 6 s
        traffic(1.5)
        operate(cluster, "w0", "rejoin")
        traffic(1.75)
        cluster.drain()
        answers = {
            client.client_id: cluster.take_outbox(client.client_id) for client in clients
        }
        assert cluster.inflight_count == 0 and conserved(cluster.log)
        assert fold(cluster.log) == cluster.states
        return dict(cluster.states), cluster.ring.worker_ids, answers
    finally:
        cluster.stop()


def test_a_seeded_sequence_ends_alike_on_both_transports():
    spec = WorkerSpec(params=CONTEXT.params, max_delay_seconds=60.0)
    local = replay(lambda wid: LocalWorkerHandle(wid, spec))
    process = replay(lambda wid: ProcessWorkerHandle(wid, spec))
    assert local[0] == {"w0": S, "w1": S, "w2": P}
    assert process == local
