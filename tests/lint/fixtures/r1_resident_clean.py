# lint-fixture-path: src/repro/ckks/backend/numpy_backend.py
# R1 clean fixture (resident results): results and staging come from the
# recycler; scratch kept for the thread's life says so on its line.
import numpy as np

from repro.ckks.backend.resident import new as _new


def add_rows(x, y):
    out = _new(x.shape)
    np.add(x, y, out=out)
    return out


def scratch(words):
    return np.empty(words, dtype=np.uint64)  # lint: disable=R1 -- kept per thread, never returned
