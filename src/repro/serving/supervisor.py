"""Heartbeat supervision and auto-restart for the serving cluster.

The cluster router (:mod:`repro.serving.cluster`) can *react* to a dead
worker -- ``kill_worker`` fails its in-flight requests over and
re-places its tenants -- but only when a request happens to route
there.  A worker that dies while its tenants are quiet stays dead, and
nothing ever restarts it.  :class:`HeartbeatSupervisor` closes that
loop:

* **Heartbeats** -- every ``probe_interval`` seconds (on the cluster's
  injectable clock, so a :class:`~repro.serving.clock.ManualClock` test
  owns every probe instant) each worker is probed via
  :meth:`WorkerHandle.ping`.  ``miss_threshold`` consecutive failed
  probes declare the worker dead -- one flaky probe is noise, N in a
  row is a corpse.
* **Failover** -- a declared death is the router's ``die`` move
  (:meth:`~repro.serving.cluster.ServingCluster.transition`): in-flight
  requests surface as retryable ERRORs, tenants re-place onto the
  surviving ring.  The conservation law is untouched because the
  supervisor only ever drives the router's own accounting paths.
* **Auto-restart with backoff** -- the dead worker is rebuilt after a
  seeded exponential backoff (:class:`~repro.serving.clock.ExponentialBackoff`);
  each consecutive death stretches the delay, so a crash-looping worker
  cannot burn the host rebuilding CKKS contexts in a tight loop.  The
  jitter stream is seeded per worker id, so a chaos run's restart
  schedule is reproducible to the tick.
* **Circuit breaker** -- a restarted worker serves a *probation*
  window; dying before it recovers is a *flap*.  The breaker is open
  exactly while ``flap_threshold`` flaps stand outside half-open: the
  worker is then rebuilt *off* the ring (the router's ``quarantine``
  move), its tenants staying where failover re-placed them, until the
  breaker half-opens and the worker proves it can stay alive through a
  full probe window, at which point it rejoins the ring and the counters
  reset.

Each worker's state is the router's (``cluster.states``): the supervisor
keeps only its timers, and moves a worker only through the router.  A
move by anyone else (an operator, the router's own kill) sets them at the
next tick as the supervisor's own would: a hand restart gets a fresh
window, and a worker back in service a fresh backoff.  It never swallows
a recovery failure silently: every probe, miss and transition -- and
every exception caught in the probe/failover machinery -- is an event of
the cluster's :class:`repro.obs.EventLog`, keyed by worker id, beside
the router's request events (the static analyzer's rule R5 checks
exactly this discipline in ``repro.serving``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.serving.clock import ExponentialBackoff
from repro.serving.cluster import (
    ALIVE, HALF_OPEN, PROBATION, QUARANTINED, SERVING, NoWorkersError, ServingCluster,
)


@dataclass
class WorkerHealth:
    """One worker's supervision timers (its state is the router's; see
    :meth:`worker_health` for the read-only reporting view)."""

    known: tuple              # (state, handle) when the supervisor last looked
    last_seen: float = 0.0    # clock time of the last successful probe
    last_probe: float = 0.0   # clock time of the last probe attempt
    probed: bool = False      # has any probe run yet?
    #: consecutive failed probes; held at the threshold once the worker
    #: is declared dead, until its restart
    missed: int = 0
    attempt: int = 0          # backoff attempt index (resets back in service)
    flaps: int = 0            # deaths before recovering since the last one
    #: when the state waits out its window: the restart of a declared
    #: death, the end of probation, quarantine or the half-open probe
    deadline: float = 0.0


@dataclass(frozen=True)
class WorkerHealthView:
    """One worker's reliability state as reported to operators/benchmarks."""

    worker_id: str
    state: str
    heartbeat_age: float
    missed_probes: int
    flaps: int


class HeartbeatSupervisor:
    """Probe, fail over, restart and circuit-break a cluster's workers.

    Drive it by calling :meth:`tick` from the serve loop (the async
    front-door's pump loop, or a test advancing a manual clock); each
    tick probes whatever is due and advances every worker's recovery
    state machine.  All timing reads the cluster's clock, and every
    event goes to the cluster's log.
    """

    def __init__(
        self,
        cluster: ServingCluster,
        probe_interval: float = 0.05,
        miss_threshold: int = 3,
        probation_window: float = 1.0,
        quarantine_window: float = 2.0,
        flap_threshold: int = 3,
        backoff_base: float = 0.1,
        backoff_factor: float = 2.0,
        backoff_max: float = 5.0,
        backoff_jitter: float = 0.1,
        seed: int = 0,
    ):
        if probe_interval <= 0:
            raise ValueError("probe_interval must be > 0")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if flap_threshold < 1:
            raise ValueError("flap_threshold must be >= 1")
        self.cluster = cluster
        self.clock = cluster.clock
        self.log = cluster.log
        self.probe_interval = probe_interval
        self.miss_threshold = miss_threshold
        self.probation_window = probation_window
        self.quarantine_window = quarantine_window
        self.flap_threshold = flap_threshold
        self._backoff_params = (
            backoff_base, backoff_factor, backoff_max, backoff_jitter,
        )
        self.seed = seed
        self._backoffs: Dict[str, ExponentialBackoff] = {}
        self._health: Dict[str, WorkerHealth] = {}

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _backoff_for(self, worker_id: str) -> ExponentialBackoff:
        """One deterministic jitter stream per worker id.

        Seeded from the supervisor seed and a *stable* digest of the id
        (crc32, not ``hash()`` -- the latter is salted per process and
        would desync the schedule across runs), so restart timings are
        identical run to run *and* de-correlated across workers.
        """
        backoff = self._backoffs.get(worker_id)
        if backoff is None:
            base, factor, max_delay, jitter = self._backoff_params
            backoff = self._backoffs[worker_id] = ExponentialBackoff(
                base=base,
                factor=factor,
                max_delay=max_delay,
                jitter=jitter,
                seed=self.seed ^ zlib.crc32(worker_id.encode("utf-8")),
            )
        return backoff

    def _declare_dead(self, worker_id: str, health: WorkerHealth, now: float) -> None:
        """N missed probes: fail over, then schedule a restart."""
        state = self.cluster.states[worker_id]
        try:
            self._move(worker_id, health, "die", now)
        except NoWorkersError:
            # the ring emptied: nowhere to re-place the tenants.  Recorded;
            # the restart below is the only path back to capacity
            self.log.emit(now, "failover_error", worker_id)
        # a death since a restart, before recovery, is a flap while the
        # breaker is closed; a half-open death opens it again
        flapped = health.attempt > 0 and health.flaps < self.flap_threshold
        health.flaps += flapped
        if health.flaps >= self.flap_threshold and (flapped or state == HALF_OPEN):
            self.log.emit(now, "quarantined", worker_id)
        delay = self._backoff_for(worker_id).delay(health.attempt)
        health.attempt += 1
        health.deadline = now + delay
        self.log.emit(now, "restart_scheduled", worker_id, payload=delay)

    def _move(self, worker_id: str, health: WorkerHealth, move: str, now: float) -> None:
        try:
            self.cluster.transition(worker_id, move, now)
        finally:
            self._arm(health, worker_id, now)

    def _arm(self, health: WorkerHealth, worker_id: str, now: float) -> None:
        """Set the timers for the state a worker entered: by the
        supervisor's own move, or by anyone else's, noticed at a tick."""
        state, handle = known = self.cluster.states[worker_id], self.cluster.workers[worker_id]
        if state == SERVING:
            health.attempt = health.flaps = 0
        if handle is not health.known[1]:  # a restart: a fresh worker
            health.missed = 0
            health.last_seen = now
        window = {PROBATION: self.probation_window, HALF_OPEN: self.probation_window,
                  QUARANTINED: self.quarantine_window}.get(state)
        if window is not None:
            health.deadline = now + window
        health.known = known

    def _probe(self, worker_id: str, health: WorkerHealth, now: float) -> None:
        handle = self.cluster.workers[worker_id]
        self.log.emit(now, "probe", worker_id)
        health.last_probe = now
        health.probed = True
        try:
            ok = bool(handle.ping())
        except Exception:
            # a probe that blows up is indistinguishable from a dead
            # worker; count it as a miss and record the anomaly
            self.log.emit(now, "probe_error", worker_id)
            ok = False
        if ok:
            health.last_seen = now
            health.missed = 0
            return
        health.missed += 1
        self.log.emit(now, "missed", worker_id)
        if health.missed >= self.miss_threshold:
            self._declare_dead(worker_id, health, now)

    # ------------------------------------------------------------------
    # the supervision turn
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One supervision turn at ``clock()``."""
        now = self.clock()
        for worker_id, state in list(self.cluster.states.items()):
            health = self._health.get(worker_id)
            known = (state, self.cluster.workers[worker_id])
            if health is None:
                health = self._health[worker_id] = WorkerHealth(known, last_seen=now, last_probe=now)
            elif known != health.known:
                self._arm(health, worker_id, now)  # an operator's move, or the router's kill
            if state not in ALIVE and health.missed >= self.miss_threshold:
                # declared dead: the restart waits out the backoff, and an
                # open breaker restarts the worker *off* the ring
                if now >= health.deadline:
                    opened = health.flaps >= self.flap_threshold
                    self._move(worker_id, health, "quarantine" if opened else "restart", now)
                continue
            if not health.probed or now - health.last_probe >= self.probe_interval:
                self._probe(worker_id, health, now)
            move = {PROBATION: "recover", QUARANTINED: "half_open", HALF_OPEN: "rejoin"}.get(
                self.cluster.states[worker_id]
            )
            # a worker mid-miss-streak must not graduate: it may be about
            # to be declared dead, and graduating would reset the backoff
            # schedule its next restart needs; a dead one waits for its
            # probes to declare it
            if (move is None or now < health.deadline or not self.cluster.workers[worker_id].alive
                    or (health.missed and move != "half_open")):
                continue
            self._move(worker_id, health, move, now)

    def run(self, until: float, step: Optional[float] = None) -> None:
        """Tick on a manual clock until ``until`` (test convenience).

        Requires the supervisor clock to be a
        :class:`~repro.serving.clock.ManualClock`; ``step`` defaults to
        the probe interval.
        """
        clock = self.clock
        advance = getattr(clock, "advance", None)
        if advance is None:
            raise TypeError("run() needs a ManualClock-style clock")
        if step is None:
            step = self.probe_interval
        self.tick()
        while clock() < until:
            advance(min(step, until - clock()))
            self.tick()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def worker_health(self) -> Dict[str, WorkerHealthView]:
        """Read-only reliability state per supervised worker at ``clock()``."""
        now = self.clock()
        return {
            worker_id: WorkerHealthView(
                worker_id=worker_id,
                state=self.cluster.states[worker_id],
                heartbeat_age=now - h.last_seen,
                missed_probes=h.missed,
                flaps=h.flaps,
            )
            for worker_id, h in sorted(self._health.items())
        }
