"""Hoisted rotations / NTT-domain key-switching fast path (ISSUE 4 gate).

Key switching dominates CKKS runtime -- it is why HEAX's largest module
is KeySwitch (Figure 5 / Algorithm 7) -- and composite workloads pay it
once per rotation of the *same* ciphertext (the diagonal matvec:
``dim - 1`` rotations).  The fast path splits Algorithm 7 into the
decomposition (the per-digit INTT + stacked NTT fan-out) and the key
switch proper (dyadic MACs + Modulus Switch), keeps the Galois
automorphism in the NTT domain (a sign-free gather permutation), and
hoists one decomposition across every rotation step.

Acceptance gates (numpy backend, ``n = 1024``, ``k = 3``, ``dim = 16``
-- the matvec shape of the issue):

* per-rotation speedup of the hoisted path over the pre-hoisting
  baseline (coefficient-domain automorphism + single-row key-switch
  loop) >= 3x across the ``dim - 1`` rotation sweep;
* end-to-end ``matvec_planned`` (``matvec_graph``, compiled and run on
  one executor per call: one ``linear_sweep``, the Modulus
  Switch hoisted too) >= 1.5x the baseline ``matvec_unhoisted`` (the
  matvec also spends time in encoding/MACs shared by both paths);
* hoisted results bit-identical to the scalar ``rotate`` path on
  **both** backends.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_keyswitch_hoisting.py -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis.report import render_table
from repro.ckks.backend import CountingBackend, available_backends, use_backend
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator

# the pre-hoisting baselines live with the tests; benchmarks/conftest.py
# puts tests/ckks on sys.path
from differential import matvec_planned, matvec_unhoisted, rotate_unhoisted

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="numpy backend not available on this host",
)

#: The gated shape: the issue's matvec workload.
GATED_N, GATED_K, DIM = 1024, 3, 16

#: Required per-rotation speedup, hoisted vs the pre-hoisting baseline.
MIN_PER_ROTATION_SPEEDUP = 3.0

#: Sanity floor for the full matvec (encode/MAC/rescale time is shared).
MIN_MATVEC_SPEEDUP = 1.5

STEPS = list(range(1, DIM))


def _fixture(n: int, k: int, seed: int = 13):
    ctx = CkksContext(toy_parameters(n=n, k=k, prime_bits=30))
    keygen = KeyGenerator(ctx, seed=seed)
    encryptor = Encryptor(ctx, keygen.public_key(), seed=seed + 1)
    encoder = CkksEncoder(ctx)
    galois = keygen.galois_keys(STEPS)
    vals = np.linspace(-1.0, 1.0, min(DIM, ctx.params.slot_count))
    ct = encryptor.encrypt(encoder.encode(vals))
    return ctx, keygen, galois, ct


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _matrix(dim: int) -> np.ndarray:
    rng = np.random.default_rng(17)
    return rng.uniform(0.1, 1.0, (dim, dim)) / np.sqrt(dim)


def _measure():
    """One full measurement pass at the gated shape (numpy backend)."""
    with use_backend("numpy"):
        ctx, keygen, galois, ct = _fixture(GATED_N, GATED_K)
        ev = Evaluator(ctx)
        matrix = _matrix(DIM)

        # warm caches (twiddles, stacked key operands) out of the timings
        ev.rotate_hoisted(ct, STEPS[:1], galois)
        rotate_unhoisted(ev, ct, STEPS[0], galois)

        t_unhoisted = _best_seconds(
            lambda: [rotate_unhoisted(ev, ct, s, galois) for s in STEPS]
        ) / len(STEPS)
        t_hoisted = _best_seconds(
            lambda: ev.rotate_hoisted(ct, STEPS, galois)
        ) / len(STEPS)
        t_scalar = _best_seconds(
            lambda: [ev.rotate(ct, s, galois) for s in STEPS]
        ) / len(STEPS)

        t_matvec_legacy = _best_seconds(
            lambda: matvec_unhoisted(ctx, matrix, ct, galois)
        )
        t_matvec_hoisted = _best_seconds(
            lambda: matvec_planned(ctx, matrix, ct, galois)
        )
    return {
        "per_rotation_unhoisted": t_unhoisted,
        "per_rotation_hoisted": t_hoisted,
        "per_rotation_scalar": t_scalar,
        "matvec_legacy": t_matvec_legacy,
        "matvec_hoisted": t_matvec_hoisted,
    }


def _gates_hold(m) -> bool:
    return (
        m["per_rotation_unhoisted"] / m["per_rotation_hoisted"]
        >= MIN_PER_ROTATION_SPEEDUP
        and m["matvec_legacy"] / m["matvec_hoisted"] >= MIN_MATVEC_SPEEDUP
    )


def _transform_counts():
    """Exact NTT-row budgets of both paths (CountingBackend, tiny ring)."""
    counts = {}
    for mode in ("hoisted", "unhoisted"):
        be = CountingBackend("numpy")
        ctx = CkksContext(
            toy_parameters(n=64, k=GATED_K, prime_bits=30), backend=be
        )
        keygen = KeyGenerator(ctx, seed=13)
        encryptor = Encryptor(ctx, keygen.public_key(), seed=14)
        galois = keygen.galois_keys(STEPS)
        ct = encryptor.encrypt(CkksEncoder(ctx).encode([1.0, -1.0]))
        ev = Evaluator(ctx)
        be.reset()
        if mode == "hoisted":
            ev.rotate_hoisted(ct, STEPS, galois)
        else:
            for s in STEPS:
                rotate_unhoisted(ev, ct, s, galois)
        counts[mode] = be.transform_rows
    return counts


def test_hoisting_speedup_gate(benchmark, emit, emit_json):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    if not _gates_hold(measured):  # timing-noise mitigation: best of two
        retry = _measure()
        measured = {k: min(measured[k], retry[k]) for k in measured}

    per_rotation = (
        measured["per_rotation_unhoisted"] / measured["per_rotation_hoisted"]
    )
    scalar_vs_legacy = (
        measured["per_rotation_unhoisted"] / measured["per_rotation_scalar"]
    )
    matvec = measured["matvec_legacy"] / measured["matvec_hoisted"]
    counts = _transform_counts()

    emit(
        "keyswitch_hoisting",
        render_table(
            f"Hoisted rotations vs pre-hoisting baseline "
            f"(numpy backend, n = {GATED_N}, k = {GATED_K}, dim = {DIM})",
            ["path", "ms/rotation", "speedup", "NTT rows (n=64 sweep)"],
            [
                [
                    "unhoisted (coeff-domain + per-digit loop)",
                    f"{measured['per_rotation_unhoisted'] * 1e3:.2f}",
                    "1.00x",
                    counts["unhoisted"],
                ],
                [
                    "scalar rotate (NTT-domain, stacked)",
                    f"{measured['per_rotation_scalar'] * 1e3:.2f}",
                    f"{scalar_vs_legacy:.2f}x",
                    "-",
                ],
                [
                    "hoisted sweep (decompose once)",
                    f"{measured['per_rotation_hoisted'] * 1e3:.2f}",
                    f"{per_rotation:.2f}x",
                    counts["hoisted"],
                ],
                [
                    f"matvec dim={DIM} (hoisted vs unhoisted)",
                    f"{measured['matvec_hoisted'] * 1e3:.2f}",
                    f"{matvec:.2f}x",
                    "-",
                ],
            ],
            note=f"gates: per-rotation >= {MIN_PER_ROTATION_SPEEDUP}x, "
            f"matvec >= {MIN_MATVEC_SPEEDUP}x; hoisted bits == scalar "
            "rotate bits on both backends (asserted below).",
        ),
    )
    emit_json(
        op="rotate_hoisted",
        n=GATED_N,
        k=GATED_K,
        dim=DIM,
        backend="numpy",
        speedup=round(per_rotation, 3),
        gate=MIN_PER_ROTATION_SPEEDUP,
        per_rotation_ms_unhoisted=round(
            measured["per_rotation_unhoisted"] * 1e3, 4
        ),
        per_rotation_ms_hoisted=round(
            measured["per_rotation_hoisted"] * 1e3, 4
        ),
        transform_rows_hoisted=counts["hoisted"],
        transform_rows_unhoisted=counts["unhoisted"],
    )
    emit_json(
        op="matvec_diagonal",
        n=GATED_N,
        k=GATED_K,
        dim=DIM,
        backend="numpy",
        speedup=round(matvec, 3),
        gate=MIN_MATVEC_SPEEDUP,
    )

    assert per_rotation >= MIN_PER_ROTATION_SPEEDUP, (
        f"hoisted rotation only {per_rotation:.2f}x the unhoisted path "
        f"per rotation (gate: {MIN_PER_ROTATION_SPEEDUP}x)"
    )
    assert matvec >= MIN_MATVEC_SPEEDUP, (
        f"hoisted matvec only {matvec:.2f}x the unhoisted matvec "
        f"(floor: {MIN_MATVEC_SPEEDUP}x)"
    )
    # the transform-budget claim behind the speedup: fan-out once
    assert counts["hoisted"] < counts["unhoisted"] / 2


@pytest.mark.parametrize("backend", ["reference", "numpy"])
def test_hoisted_bits_equal_scalar_rotate_path(backend, emit_json):
    """The speedup is only admissible because the bits are identical."""
    if backend not in available_backends():
        pytest.skip(f"{backend} unavailable")
    with use_backend(backend):
        ctx, keygen, galois, ct = _fixture(64, GATED_K)
        ev = Evaluator(ctx)
        hoisted = ev.rotate_hoisted(ct, STEPS, galois)
        scalar = [ev.rotate(ct, s, galois) for s in STEPS]
        identical = all(
            [p.residues for p in h.polys] == [p.residues for p in s.polys]
            for h, s in zip(hoisted, scalar)
        )
    emit_json(
        op="rotate_hoisted_bit_identity",
        n=64,
        k=GATED_K,
        backend=backend,
        identical=identical,
    )
    assert identical


def test_gated_shape_bit_identity_on_numpy():
    """Bit-identity at the gated ring itself, not just the tiny one."""
    with use_backend("numpy"):
        ctx, keygen, galois, ct = _fixture(GATED_N, GATED_K)
        ev = Evaluator(ctx)
        hoisted = ev.rotate_hoisted(ct, STEPS[:3], galois)
        scalar = [ev.rotate(ct, s, galois) for s in STEPS[:3]]
    for h, s in zip(hoisted, scalar):
        assert [p.residues for p in h.polys] == [p.residues for p in s.polys]
