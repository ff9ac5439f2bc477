"""Golden known-answer tests against the frozen vectors in tests/vectors/.

Unlike the backend-equivalence and differential suites, these do *not*
put the reference backend in the loop at test time: every available
backend is checked against byte-frozen fixtures, so a regression that
changes both backends identically (twiddle tables, encoder, sampler
order) is still caught, and the checks run even on hosts with a single
backend.  Regenerate with ``python tests/vectors/regenerate.py`` only
when a change intentionally invalidates the vectors.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.ckks.backend import available_backends, use_backend

VECTORS_DIR = pathlib.Path(__file__).resolve().parent.parent / "vectors"

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", VECTORS_DIR / "regenerate.py"
)
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


@pytest.fixture(scope="module")
def ntt_vectors():
    return json.loads((VECTORS_DIR / "ntt_n64.json").read_text())


@pytest.fixture(scope="module")
def trace_vectors():
    return json.loads((VECTORS_DIR / "trace_n1024.json").read_text())


@pytest.fixture(scope="module")
def serving_vectors():
    return json.loads((VECTORS_DIR / "serving_trace.json").read_text())


@pytest.fixture(scope="module")
def wire_v2_vectors():
    return json.loads((VECTORS_DIR / "wire_v2_n64.json").read_text())


@pytest.mark.parametrize("backend", available_backends())
def test_ntt_known_answers(backend, ntt_vectors):
    """Forward/inverse NTT and dyadic product reproduce the frozen rows."""
    with use_backend(backend):
        got = regenerate.compute_ntt_vectors()
    assert got == ntt_vectors, (
        f"backend {backend!r} diverged from the frozen NTT vectors"
    )


@pytest.mark.parametrize("backend", available_backends())
def test_pipeline_trace_digests(backend, trace_vectors):
    """Every stage digest of the n = 1024 golden trace matches."""
    with use_backend(backend):
        got = regenerate.compute_trace()
    assert got["digests"] == trace_vectors["digests"], (
        f"backend {backend!r} diverged from the frozen n=1024 trace"
    )


@pytest.mark.parametrize("backend", available_backends())
def test_serving_trace_frames(backend, serving_vectors):
    """Every outbox frame of the seeded serving trace is byte-frozen.

    The digests were generated on the commit *before* serving flushes
    moved onto the plan executor, so this is the cross-commit oracle
    that the execution route changed and the served bytes did not.
    """
    with use_backend(backend):
        got = regenerate.compute_serving_trace()
    assert got["flushes"] == serving_vectors["flushes"]
    for scenario, digests in serving_vectors["frames"].items():
        assert got["frames"][scenario] == digests, (
            f"backend {backend!r} diverged from the frozen serving trace "
            f"at {scenario}"
        )
    assert got["frames"].keys() == serving_vectors["frames"].keys()


@pytest.mark.parametrize("backend", available_backends())
def test_wire_v2_blob_is_frozen(backend, wire_v2_vectors):
    """Wire v2 bytes are pinned: every backend serializes the seeded
    ciphertext to the blob the big-int oracle packed, and decodes the
    frozen blob to the frozen rows."""
    from repro.ckks.serialization import (
        deserialize_ciphertext,
        serialize_ciphertext,
    )

    frozen = bytes.fromhex(wire_v2_vectors["blob_hex"])
    with use_backend(backend):
        assert regenerate.compute_wire_v2_vector() == wire_v2_vectors
        ctx, ct = regenerate.wire_v2_ciphertext()
        assert serialize_ciphertext(ct, version=2) == frozen
        decoded = deserialize_ciphertext(frozen, ctx)
        assert [p.residues for p in decoded.polys] == wire_v2_vectors["residues"]
        assert decoded.scale == ct.scale and decoded.is_ntt == ct.is_ntt


def test_trace_decodes_to_frozen_values(trace_vectors):
    """The decoded head matches the frozen slot values within tolerance.

    This is the end-to-end sanity anchor: even if someone regenerates
    digests to paper over a change, the decode must still approximate
    square of the original message -- checked against values stored at
    freeze time.
    """
    with use_backend(available_backends()[-1]):
        got = regenerate.compute_trace()
    atol = trace_vectors["decode_atol"]
    expected = [
        complex((i % 7) / 7.0, (i % 11) / 11.0 - 0.5) ** 2
        for i in range(regenerate.TRACE_HEAD_SLOTS)
    ]
    for i, ((re, im), want) in enumerate(
        zip(got["decoded_head"], expected)
    ):
        assert abs(complex(re, im) - want) < 10 * atol, (
            f"slot {i}: decoded {complex(re, im)} vs expected square {want}"
        )
    # and the frozen copy itself agrees with what we just computed
    for (re, im), (fre, fim) in zip(
        got["decoded_head"], trace_vectors["decoded_head"]
    ):
        assert abs(complex(re, im) - complex(fre, fim)) < atol
