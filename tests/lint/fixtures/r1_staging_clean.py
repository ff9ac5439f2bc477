# lint-fixture-path: src/repro/ckks/serialization.py
# R1 clean fixture (staging joins): the same joins land in recycled
# slabs through out=.
import numpy as np

from repro.ckks.backend import resident


def stage(bodies, step):
    staged = resident.new((len(bodies) * step,), np.dtype(np.uint8))
    np.concatenate([np.frombuffer(b, np.uint8) for b in bodies], out=staged)
    return staged


def restack(rows):
    out = resident.new((len(rows), len(rows[0])))
    np.stack(rows, out=out)
    return out
