# lint-fixture-path: src/repro/serving/fixture.py
# R6 violating fixture: per-step rotation loops in a serving module
# (three findings expected: for-loop rotate, while-loop rotate,
# method-body sweep loop).


def rotate_sweep(ev, ct, steps, keys):
    out = []
    for step in steps:
        out.append(ev.rotate(ct, step, keys))
    return out


def drain_rotations(ev, ct, keys):
    step = 1
    while step < 8:
        ct = ev.rotate(ct, step, keys)
        step *= 2
    return ct


class SweepWorker:
    def run(self, requests):
        for request in requests:
            request.result = self.evaluator.rotate(
                request.ciphertext, request.step, self.galois_keys
            )
