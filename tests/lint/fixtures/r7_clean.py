# lint-fixture-path: src/repro/serving/router.py
# R7 clean fixture: what happened goes to the event log, and a counter
# that is no report's or stats object's is allowed.


class Router:
    def receive(self, frame):
        self.log.append(self.clock(), "admitted", frame.request_id)
        self.moved += 1
