"""A router that keeps its own books again: every line the accounting
ratchet must refuse (``test_accounting.py`` plants this tree)."""

import time


class Router:
    def receive(self, frame):
        self.report.submitted += 1  # a counter beside the event log
        self.stats.latencies.append(0.0)  # a report list grown in place
        self.moved += 1  # not a report: allowed

    def pump(self):
        t0 = time.perf_counter()  # a second timing pair
        self.flush()
        return time.perf_counter() - t0
