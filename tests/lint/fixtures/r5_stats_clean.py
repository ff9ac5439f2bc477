# lint-fixture-path: src/repro/serving/supervisor.py
# R5 clean fixture (event recording): recovery machinery may absorb a
# broad failure by *logging* it -- a probe that raises is a missed
# probe, and the event drives the restart path that answers clients.


class Probe:
    def probe(self, handle, now):
        try:
            ok = handle.ping()
        except Exception:
            self.log.emit(now, "probe_error", handle.worker_id)
            ok = False
        return ok

    def retry(self, send, data, now):
        try:
            send(data)
        except Exception:
            self.log.emit(now, "failed_over", data.client_id, data.request_id)
