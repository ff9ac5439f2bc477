# lint-fixture-path: src/repro/ckks/backend/numpy_backend.py
# R1 violating fixture (resident results): a kernel result, a zeroed
# staging buffer and a like-shaped output each ask the allocator for
# fresh pages (three findings expected).
import numpy as np


def add_rows(x, y):
    out = np.empty(x.shape, dtype=np.uint64)
    np.add(x, y, out=out)
    return out


def stage(rows, width):
    return np.zeros((rows, width), dtype=np.uint8)


def gather(vals, dest):
    out = np.empty_like(vals)
    out[:, dest] = vals
    return out
