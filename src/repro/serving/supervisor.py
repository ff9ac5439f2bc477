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
* **Failover** -- a declared death triggers the router's existing
  :meth:`~repro.serving.cluster.ServingCluster.kill_worker` failover:
  in-flight requests surface as retryable ERRORs, tenants re-place onto
  the surviving ring.  The conservation law is untouched because the
  supervisor only ever drives the router's own accounting paths.
* **Auto-restart with backoff** -- the dead worker is rebuilt after a
  seeded exponential backoff (:class:`~repro.serving.clock.ExponentialBackoff`);
  each consecutive death stretches the delay, so a crash-looping worker
  cannot burn the host rebuilding CKKS contexts in a tight loop.  The
  jitter stream is seeded per worker id, so a chaos run's restart
  schedule is reproducible to the tick.
* **Circuit breaker** -- a restarted worker serves a *probation*
  window; dying during probation is a *flap*.  ``flap_threshold`` flaps
  open the breaker: the worker is quarantined -- rebuilt *off* the ring
  (``restart_worker(rejoin=False)``), its tenants staying where
  failover re-placed them -- until the breaker half-opens and the
  worker proves it can stay alive through a full probe window, at which
  point it rejoins the ring and the counters reset.

The supervisor never swallows a recovery failure silently: every probe,
miss and transition -- and every exception caught in the probe/failover
machinery -- is an event of the cluster's :class:`repro.obs.EventLog`,
keyed by worker id, beside the router's request events (the static
analyzer's rule R5 checks exactly this discipline in ``repro.serving``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.serving.clock import ExponentialBackoff
from repro.serving.cluster import NoWorkersError, ServingCluster

# worker phases
SERVING = "serving"          # on the ring, probed, healthy
BACKOFF = "backoff"          # dead; restart scheduled at restart_at
PROBATION = "probation"      # restarted onto the ring; flaps are counted
QUARANTINED = "quarantined"  # alive but off the ring (breaker open/half-open)

# circuit-breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class WorkerHealth:
    """Mutable per-worker supervision state (see :meth:`worker_health`
    for the read-only reporting view)."""

    phase: str = SERVING
    breaker: str = CLOSED
    last_seen: float = 0.0    # clock time of the last successful probe
    last_probe: float = 0.0   # clock time of the last probe attempt
    probed: bool = False      # has any probe run yet?
    missed: int = 0           # consecutive failed probes
    attempt: int = 0          # backoff attempt index (resets on recovery)
    restarts: int = 0
    flaps: int = 0            # deaths during probation since last recovery
    restart_at: float = 0.0
    probation_until: float = 0.0
    quarantine_until: float = 0.0


@dataclass(frozen=True)
class WorkerHealthView:
    """One worker's reliability state as reported to operators/benchmarks."""

    worker_id: str
    phase: str
    breaker: str
    heartbeat_age: float
    missed_probes: int
    restarts: int
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
        self.log.emit(now, "died", worker_id, payload=health.missed)
        try:
            self.cluster.kill_worker(worker_id, now)
        except NoWorkersError:
            # the ring emptied: failover had nowhere to re-place the
            # tenants.  Recorded -- the restart below is now the only
            # path back to capacity, so the supervisor must keep going.
            self.log.emit(now, "failover_error", worker_id)
        flapped = health.phase == PROBATION
        died_half_open = (
            health.phase == QUARANTINED and health.breaker == HALF_OPEN
        )
        if flapped:
            health.flaps += 1
        if died_half_open or (flapped and health.flaps >= self.flap_threshold):
            if health.breaker != OPEN:
                self.log.emit(now, "quarantined", worker_id)
            health.breaker = OPEN
        health.phase = BACKOFF
        health.missed = 0
        delay = self._backoff_for(worker_id).delay(health.attempt)
        health.attempt += 1
        health.restart_at = now + delay
        self.log.emit(now, "restart_scheduled", worker_id, payload=delay)

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

    def _maybe_restart(self, worker_id: str, health: WorkerHealth, now: float) -> None:
        if now < health.restart_at:
            return
        quarantined = health.breaker == OPEN
        # a quarantined worker restarts *off* the ring: its tenants stay
        # where failover re-placed them until the breaker half-opens and
        # the worker survives a probe window
        self.cluster.restart_worker(worker_id, rejoin=not quarantined)
        health.restarts += 1
        health.missed = 0
        health.last_seen = now
        if quarantined:
            health.phase = QUARANTINED
            health.quarantine_until = now + self.quarantine_window
        else:
            health.phase = PROBATION
            health.probation_until = now + self.probation_window
        self.log.emit(now, "restarted", worker_id, payload=health.phase)

    # ------------------------------------------------------------------
    # the supervision turn
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One supervision turn at ``clock()``."""
        now = self.clock()
        for worker_id in list(self.cluster.workers):
            health = self._health.get(worker_id)
            if health is None:
                health = self._health[worker_id] = WorkerHealth(
                    last_seen=now, last_probe=now,
                )
            if health.phase == BACKOFF:
                self._maybe_restart(worker_id, health, now)
                continue
            if health.probed and now - health.last_probe < self.probe_interval:
                # between heartbeats; window transitions below still run
                pass
            else:
                self._probe(worker_id, health, now)
            if (
                health.phase == PROBATION
                and now >= health.probation_until
                and health.missed == 0
                # a worker mid-miss-streak must not graduate probation:
                # it may be about to be declared dead, and graduating
                # would reset the backoff schedule its next restart needs
            ):
                health.phase = SERVING
                health.breaker = CLOSED
                health.attempt = 0
                health.flaps = 0
                self.log.emit(now, "recovered", worker_id)
            elif health.phase == QUARANTINED:
                if health.breaker == OPEN and now >= health.quarantine_until:
                    health.breaker = HALF_OPEN
                    health.probation_until = now + self.probation_window
                    self.log.emit(now, "half_open", worker_id)
                elif (
                    health.breaker == HALF_OPEN
                    and now >= health.probation_until
                    and health.missed == 0  # same guard as probation
                ):
                    self.cluster.rejoin_worker(worker_id)
                    health.phase = SERVING
                    health.breaker = CLOSED
                    health.attempt = 0
                    health.flaps = 0
                    self.log.emit(now, "rejoined", worker_id)

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
                phase=h.phase,
                breaker=h.breaker,
                heartbeat_age=now - h.last_seen,
                missed_probes=h.missed,
                restarts=h.restarts,
                flaps=h.flaps,
            )
            for worker_id, h in sorted(self._health.items())
        }
