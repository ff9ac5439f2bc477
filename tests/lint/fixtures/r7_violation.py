# lint-fixture-path: src/repro/serving/router.py
# R7 violating fixture, four findings expected: a router that keeps its
# own books again -- a counter and a list beside the event log, and a
# second timing pair.

import time


class Router:
    def receive(self, frame):
        self.report.submitted += 1
        self.stats.latencies.append(0.0)

    def pump(self):
        t0 = time.perf_counter()
        self.flush()
        return time.perf_counter() - t0
