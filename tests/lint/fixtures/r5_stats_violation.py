# lint-fixture-path: src/repro/serving/supervisor.py
# R5 violating fixture (event recording): logging an event whose kind
# does not name a failure is bookkeeping, not accounting -- the request
# still disappears silently.


class Probe:
    def probe(self, handle, now):
        try:
            ok = handle.ping()
        except Exception:
            self.log.emit(now, "probe", handle.worker_id)
            ok = False
        return ok
