"""End-to-end data-residency speedup: backend-native residue storage
vs the seed's list-interchange path (ISSUE 5).

HEAX's data-distribution contribution is keeping operands resident in
on-chip memories across pipeline stages (Section 4, Figure 2) instead
of round-tripping through DRAM.  The software analogue: since PR 5,
``RnsPolynomial`` stores an opaque backend-native residue matrix, so a
multiply -> relinearize -> rescale -> rotate chain never lowers rows to
Python lists between kernels.  The seed representation -- canonical
list-of-int rows re-lifted to ``uint64`` and lowered back on **every**
kernel call -- survives here as :class:`ListInterchangeBackend`, a
wrapper that forces the canonical boundary around every (vectorized)
kernel, i.e. exactly the pre-PR-5 storage contract.

Acceptance gate (ISSUE 5): on the numpy backend at n = 4096 (Set-A
ring), the resident chain is >= 2x the list-interchange chain, results
are bit-identical on both backends, and the hot chain performs zero
lift/lower conversions (counted by ``CountingBackend``).  Under
``REPRO_BACKEND=reference`` only the bit-equality and zero-conversion
gates run -- the speed gate is a numpy-representation property.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_residency.py -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis.report import render_table
from repro.ckks.backend import (
    CountingBackend,
    available_backends,
    default_backend_name,
    resolve_backend,
)
from repro.ckks.backend.base import PRIMITIVES, canonical_stack
from repro.ckks.backend.reference import ReferenceBackend
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator

#: Gate ring: Set-A degree with the bench-standard 30-bit primes.
RING_DEGREE = 4096
LEVELS = 2
ROTATE_STEP = 3

#: Required end-to-end chain speedup, resident vs list-interchange.
MIN_CHAIN_SPEEDUP = 2.0


#: The primitives that only hold, move or serialize rows; every other
#: primitive computes.
STORAGE_KERNELS = {
    "from_rows", "to_rows", "copy_rows", "set_row", "select_rows", "native_stack",
    "pack_rows", "unpack_rows", "pack_rows_bits", "unpack_rows_bits",
}


def _list_boundary(name):
    """Kernel ``name`` of the inner backend, its result lowered to lists."""

    def kernel(self, *args):
        return self.inner.to_rows(getattr(self.inner, name)(*args))

    kernel.__name__ = name
    return kernel


class ListInterchangeBackend(ReferenceBackend):
    """The seed storage contract as a backend: canonical lists at every
    kernel boundary.

    Storage is the reference backend's -- the residue-matrix handles are
    Python lists -- while every computing primitive delegates to a real
    (vectorized) inner backend, handing inputs over in whatever form the
    caller holds and lowering every output to canonical lists.  Chained
    operations therefore pay the per-call lift/lower tax the resident
    representation removes -- nothing else differs, so the measured gap
    is purely the data-residency win.
    """

    name = "list-interchange"

    def __init__(self, inner="numpy"):
        self.inner = resolve_backend(inner)

    @property
    def cache_token(self) -> str:
        return f"list-interchange:{self.inner.cache_token}"

    def native_stack(self, stack):
        return canonical_stack(stack)

    for _name in set(PRIMITIVES) - STORAGE_KERNELS:
        vars()[_name] = _list_boundary(_name)
    del _name


def _fixture(backend):
    ctx = CkksContext(
        toy_parameters(n=RING_DEGREE, k=LEVELS, prime_bits=30), backend=backend
    )
    keygen = KeyGenerator(ctx, seed=501)
    encryptor = Encryptor(ctx, keygen.public_key(), seed=502)
    encoder = CkksEncoder(ctx)
    ev = Evaluator(ctx)
    relin = keygen.relin_key()
    galois = keygen.galois_keys([ROTATE_STEP])
    slots = ctx.params.slot_count
    ct0 = encryptor.encrypt(encoder.encode(np.linspace(-1.0, 1.0, slots)))
    ct1 = encryptor.encrypt(encoder.encode(np.linspace(1.0, -1.0, slots)))
    return ev, relin, galois, ct0, ct1


def _chain(ev, relin, galois, ct0, ct1):
    """The gate composite: MULT -> Relin -> Rescale -> Rotate."""
    ct = ev.relinearize(ev.multiply(ct0, ct1), relin)
    ct = ev.rescale(ct)
    return ev.rotate(ct, ROTATE_STEP, galois)


def _time_chain(backend, repeats: int = 3):
    ev, relin, galois, ct0, ct1 = _fixture(backend)
    out = _chain(ev, relin, galois, ct0, ct1)  # warm caches outside timing
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = _chain(ev, relin, galois, ct0, ct1)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _rows_of(ct):
    return [p.residues for p in ct.polys]


@pytest.mark.skipif(
    "numpy" not in available_backends()
    or default_backend_name() != "numpy",
    reason="the residency speed gate measures the numpy representation",
)
def test_residency_chain_speedup(benchmark, emit, emit_json):
    def measure():
        t_seed, out_seed = _time_chain(ListInterchangeBackend("numpy"))
        t_res, out_res = _time_chain("numpy")
        return t_seed, t_res, _rows_of(out_seed) == _rows_of(out_res)

    t_seed, t_res, exact = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = t_seed / t_res
    emit(
        "residency_speedup",
        render_table(
            "Data residency: resident chain vs seed list-interchange path "
            f"(mult->relin->rescale->rotate, n = {RING_DEGREE}, numpy)",
            ["n", "list-interchange (ms)", "resident (ms)", "speedup", "bit-exact"],
            [[
                RING_DEGREE,
                f"{t_seed * 1e3:.1f}",
                f"{t_res * 1e3:.1f}",
                f"{speedup:.1f}x",
                "yes" if exact else "NO",
            ]],
            note="best-of-3 wall times for the full chain; the gate is "
            f">= {MIN_CHAIN_SPEEDUP}x with bit-identical outputs.",
        ),
    )
    emit_json(
        op="mult_relin_rescale_rotate",
        n=RING_DEGREE,
        backend="numpy",
        speedup=round(speedup, 2),
        gate=MIN_CHAIN_SPEEDUP,
        bit_exact=exact,
    )
    assert exact, "resident chain diverged from the list-interchange chain"
    assert speedup >= MIN_CHAIN_SPEEDUP, (
        f"residency speedup {speedup:.2f}x below the {MIN_CHAIN_SPEEDUP}x "
        f"gate at n={RING_DEGREE}"
    )


def test_residency_bit_equality_across_backends(emit_json):
    """Every storage representation computes the same bits (both-backend
    gate; the only one the reference backend runs)."""
    runs = {}
    for name in available_backends():
        _, out = _time_chain(name, repeats=1)
        runs[name] = _rows_of(out)
    if "numpy" in available_backends():
        _, out = _time_chain(ListInterchangeBackend("numpy"), repeats=1)
        runs["list-interchange"] = _rows_of(out)
    baseline = runs["reference"]
    mismatched = [k for k, rows in runs.items() if rows != baseline]
    emit_json(
        op="chain_bit_equality",
        n=RING_DEGREE,
        backend=default_backend_name(),
        representations=sorted(runs),
        bit_exact=not mismatched,
    )
    assert not mismatched, f"representations diverged: {mismatched}"


def test_residency_zero_conversions(emit_json):
    """The warmed hot chain performs zero lift/lower conversions."""
    be = CountingBackend(default_backend_name())
    ev, relin, galois, ct0, ct1 = _fixture(be)
    _chain(ev, relin, galois, ct0, ct1)
    be.reset()
    _chain(ev, relin, galois, ct0, ct1)
    emit_json(
        op="chain_conversion_rows",
        n=RING_DEGREE,
        backend=default_backend_name(),
        lift_rows=be.counts["lift_rows"],
        lower_rows=be.counts["lower_rows"],
        gate=0,
    )
    assert be.counts["lift_rows"] == 0, dict(be.counts)
    assert be.counts["lower_rows"] == 0, dict(be.counts)
