"""Deterministic time sources for the serving layer.

Every deadline in the serving stack -- batch-lane flushes, drain
decisions, pipe-transport poll/drain timeouts, latency accounting --
reads an injectable ``clock`` callable rather than wall time directly.
:class:`ManualClock` is the hand-cranked implementation the
fault-injection and differential test layers (and the scale benchmark's
deterministic mode) install: the test owns time, so "a lane straddling
its deadline during a drain" is a reproducible state, not a race.

This module is the **single whitelisted wall-clock site** in
``repro.serving``: :data:`SYSTEM_CLOCK` is the production default every
``clock=`` parameter points at, and the static analyzer
(:mod:`repro.lint`, rule R3) bans any other ``time.time`` /
``time.monotonic`` use in the package -- one raw call site would
re-open the wall-clock hole for every manual-clock test above it.
"""

from __future__ import annotations

import random
import time
from typing import Callable

#: The shape of every injectable time source: a nullary monotonic read.
Clock = Callable[[], float]

#: The production time source (monotonic wall clock).  Use this as the
#: default for ``clock=`` parameters instead of naming ``time.monotonic``
#: directly, so the lint rule can pin all wall-clock access to this file.
SYSTEM_CLOCK: Clock = time.monotonic


class ExponentialBackoff:
    """Seeded exponential backoff with jitter -- a *schedule*, not a timer.

    Both halves of the reliability layer consult one of these: the
    heartbeat supervisor to space worker restarts (so a crash-looping
    worker does not burn the host rebuilding contexts in a tight loop)
    and the resilient client to space request retries (so a shed fleet
    does not stampede back in lockstep).  ``delay(attempt)`` is
    ``min(max_delay, base * factor**attempt)`` stretched by up to
    ``jitter`` of itself; the jitter stream is seeded, so a given seed
    yields the same schedule on every run -- the chaos suite's restart
    timings are reproducible to the tick.
    """

    def __init__(
        self,
        base: float = 0.1,
        factor: float = 2.0,
        max_delay: float = 5.0,
        jitter: float = 0.1,
        seed: int = 0,
    ):
        if base <= 0:
            raise ValueError("base delay must be > 0")
        if factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        raw = min(self.max_delay, self.base * self.factor ** attempt)
        return raw * (1.0 + self.jitter * self._rng.random())


class ManualClock:
    """A monotonic clock advanced only by its owner."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self.now += seconds
        return self.now
