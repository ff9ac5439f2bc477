# lint-fixture-path: src/repro/ckks/serialization.py
# R1 violating fixture (staging joins): a lane's bodies concatenated and
# its rows stacked without out= each allocate a fresh result (two
# findings expected).
import numpy as np


def stage(bodies):
    return np.concatenate([np.frombuffer(b, np.uint8) for b in bodies])


def restack(rows):
    return np.stack(rows)
