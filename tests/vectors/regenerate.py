"""Regenerate the golden test vectors under ``tests/vectors/``.

Four fixture families are frozen here:

* ``ntt_n64.json`` -- full known-answer rows for the negacyclic
  NTT/INTT at ``n = 64`` in both numpy prime regimes (30-bit native
  multiply, 50-bit float-assisted Barrett), plus a dyadic product row.
* ``trace_n1024.json`` -- SHA-256 digests of every stage of one
  deterministic encrypt -> multiply -> relinearize -> rescale -> decrypt
  trace at ``n = 1024`` (Set-A-shaped, ``k = 2``), with the head of the
  decoded slot vector stored verbatim.
* ``serving_trace.json`` -- SHA-256 of every outbox frame of one seeded
  pass through :class:`repro.serving.server.EncryptedComputeServer`:
  all seven ops at flush widths 1, 3 and 8 (a bare rescale of a fresh
  ciphertext is refused at admission: under 1 bit of precision), a
  six-member rotation sweep (one duplicate step, one step without a
  Galois key, refused at admission), a sweep that refusal shrinks to a
  single rotation, and a lane with one deadline-expired member.  It pins the served *bytes* across commits,
  so a change to how a flush executes cannot silently change responses.

* ``wire_v2_n64.json`` -- one seeded ciphertext at ``n = 64`` over
  primes of the Set-A widths (36 / 28 / 45 bits), both components: its
  residue rows and its wire-v2 blob, the bit-packed payload produced by
  the big-int oracle (``pack_row_bits`` of ``tests/oracles.py``) rather
  than by any backend's packing kernel.

The point of freezing (rather than comparing against the reference
backend at test time) is that a regression that hits *both* backends --
a twiddle-table change, an encoder tweak, a sampler reordering -- is
still caught, and the known-answer tests keep working on hosts where
only one backend is importable.

Regenerate (only when an intentional change invalidates the vectors)::

    PYTHONPATH=src python tests/vectors/regenerate.py

Vectors are always produced by the **reference** backend -- the ground
truth -- regardless of the environment's backend selection.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

VECTORS_DIR = pathlib.Path(__file__).resolve().parent
# the oracles and test traffic of tests/oracles.py
sys.path.insert(0, str(VECTORS_DIR.parent))

NTT_N = 64
NTT_PRIME_BITS = (30, 50)

TRACE_PARAMS = dict(n=1024, k=2, prime_bits=30, scale=2.0**28)
TRACE_KEYGEN_SEED = 2024
TRACE_ENCRYPTOR_SEED = 2025
TRACE_DECODE_ATOL = 1e-3
TRACE_HEAD_SLOTS = 8

SERVING_PARAMS = dict(n=64, k=3, prime_bits=30)
SERVING_TENANT_SEED = 3030
SERVING_WIDTHS = (1, 3, 8)
SERVING_OPS = (
    ("square", 0),
    ("double", 0),
    ("negate", 0),
    ("rescale", 0),
    ("rotate", 1),
    ("conjugate", 0),
    ("program", 5),
)
SERVING_PROGRAM = (("rotate", 1), "square", "rescale")
SERVING_KEYED_STEPS = (1, 2, 3, 4)
#: step 2 repeats and step 7 has no Galois key
SERVING_SWEEP_STEPS = (1, 2, 3, 2, 7, 4)


#: data primes of the Set-A widths (the special prime never travels in a
#: ciphertext, so 45 bits is a data prime here and the special is wider)
WIRE_V2_PARAMS = dict(n=64, modulus_bits=(36, 28, 45, 50), scale=2.0**28)
WIRE_V2_KEYGEN_SEED = 4040
WIRE_V2_ENCRYPTOR_SEED = 4041


def rows_digest(rows) -> str:
    """Canonical SHA-256 of a nested list-of-ints structure."""
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def compute_ntt_vectors() -> dict:
    """Known-answer NTT/INTT/dyadic rows, computed on the active backend."""
    from repro.ckks.backend import get_backend
    from repro.ckks.ntt import NTTTables
    from repro.ckks.primes import make_modulus_chain

    be = get_backend()
    out = {"n": NTT_N, "cases": []}
    for bits in NTT_PRIME_BITS:
        modulus = make_modulus_chain(NTT_N, [bits], 54)[0]
        tables = NTTTables(NTT_N, modulus)
        rng = random.Random(bits)
        row = [rng.randrange(modulus.value) for _ in range(NTT_N)]
        other = [rng.randrange(modulus.value) for _ in range(NTT_N)]
        forward = be.ntt_forward(tables, row)
        out["cases"].append(
            {
                "prime_bits": bits,
                "modulus": modulus.value,
                "input": row,
                "forward": forward,
                "inverse_of_forward": be.ntt_inverse(tables, forward),
                "dyadic_other": other,
                "dyadic_product": be.dyadic_mul(modulus, row, other),
            }
        )
    return out


def trace_values(slot_count: int):
    """The deterministic slot vector encrypted by the golden trace."""
    return [
        complex((i % 7) / 7.0, (i % 11) / 11.0 - 0.5) for i in range(slot_count)
    ]


def compute_trace() -> dict:
    """One full pipeline at n = 1024, digested stage by stage."""
    from repro.ckks.context import CkksContext, toy_parameters
    from repro.ckks.decryptor import Decryptor
    from repro.ckks.encoder import CkksEncoder
    from repro.ckks.encryptor import Encryptor
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keys import KeyGenerator

    ctx = CkksContext(toy_parameters(**TRACE_PARAMS))
    keygen = KeyGenerator(ctx, seed=TRACE_KEYGEN_SEED)
    encryptor = Encryptor(ctx, keygen.public_key(), seed=TRACE_ENCRYPTOR_SEED)
    encoder = CkksEncoder(ctx)
    evaluator = Evaluator(ctx)
    decryptor = Decryptor(ctx, keygen.secret_key)

    pt = encoder.encode(trace_values(ctx.params.slot_count))
    ct = encryptor.encrypt(pt)
    prod = evaluator.multiply(ct, ct)
    relin = evaluator.relinearize(prod, keygen.relin_key())
    rescaled = evaluator.rescale(relin)
    plain = decryptor.decrypt(rescaled)
    decoded = encoder.decode(plain)

    def ct_rows(c):
        return [p.residues for p in c.polys]

    return {
        "params": dict(TRACE_PARAMS),
        "keygen_seed": TRACE_KEYGEN_SEED,
        "encryptor_seed": TRACE_ENCRYPTOR_SEED,
        "digests": {
            "plaintext": rows_digest(pt.poly.residues),
            "ciphertext": rows_digest(ct_rows(ct)),
            "product": rows_digest(ct_rows(prod)),
            "relinearized": rows_digest(ct_rows(relin)),
            "rescaled": rows_digest(ct_rows(rescaled)),
            "decrypted": rows_digest(plain.poly.residues),
        },
        "decoded_head": [
            [v.real, v.imag] for v in decoded[:TRACE_HEAD_SLOTS]
        ],
        "decode_atol": TRACE_DECODE_ATOL,
    }


def compute_serving_trace() -> dict:
    """Digest every frame a seeded multi-client session is answered with."""
    from repro.ckks.context import CkksContext, toy_parameters
    from repro.serving.clock import ManualClock
    from repro.serving.server import EncryptedComputeServer
    from oracles import rotation_sweep_bytes
    from repro.serving.traffic import SyntheticClient, SyntheticTenant

    ctx = CkksContext(toy_parameters(**SERVING_PARAMS))
    tenant = SyntheticTenant(ctx, seed=SERVING_TENANT_SEED, key_id="trace")
    tenant.galois_keys = tenant.keygen.galois_keys(
        SERVING_KEYED_STEPS, conjugation=True
    )
    clock = ManualClock()
    server = EncryptedComputeServer(
        ctx, max_batch_size=8, max_delay_seconds=1.0, clock=clock
    )
    server.register_program(SERVING_OPS[-1][1], SERVING_PROGRAM)
    # odd clients negotiate wire v2, so one flush serializes both layouts
    clients = [
        SyntheticClient(
            tenant, f"trace-{i}", seed=700 + i, wire_version=1 + i % 2
        )
        for i in range(max(SERVING_WIDTHS))
    ]
    for client in clients:
        client.connect(server)

    def collect() -> list:
        server.drain()
        return [
            hashlib.sha256(blob).hexdigest()
            for client in clients
            for blob in server.sessions.get(client.client_id).take_outbox()
        ]

    def values(i: int, width: int) -> list:
        return [(i + 1) / (width + j + 2) for j in range(4)]

    frames = {}
    for op, arg in SERVING_OPS:
        for width in SERVING_WIDTHS:
            for i, client in enumerate(clients[:width]):
                server.receive(
                    client.client_id,
                    client.request_bytes(op, values(i, width), op_arg=arg),
                )
            frames[f"{op}/w{width}"] = collect()
    for blob in rotation_sweep_bytes(
        clients[0], [0.5, -0.25, 0.125], SERVING_SWEEP_STEPS
    ):
        server.receive(clients[0].client_id, blob)
    frames["hoist/6"] = collect()
    # the step without a Galois key is refused at admission, so the
    # other rotation is served alone
    for blob in rotation_sweep_bytes(clients[1], [0.75, 0.5], (3, 7)):
        server.receive(clients[1].client_id, blob)
    frames["hoist/shrunk"] = collect()
    # three lane-mates, the middle one stamped to expire before the flush
    for i, client in enumerate(clients[:3]):
        server.receive(
            client.client_id,
            client.request_bytes(
                "double", values(i, 3), deadline=clock() + 0.5 if i == 1 else 0.0
            ),
        )
    clock.advance(0.75)
    frames["double/expired"] = collect()
    return {
        "params": dict(SERVING_PARAMS),
        "tenant_seed": SERVING_TENANT_SEED,
        "flushes": len(server.report.flushes),
        "frames": frames,
    }


def wire_v2_ciphertext():
    """``(context, ciphertext)`` of the frozen wire-v2 vector."""
    from repro.ckks.context import CkksContext, CkksParameters
    from repro.ckks.encoder import CkksEncoder
    from repro.ckks.encryptor import Encryptor
    from repro.ckks.keys import KeyGenerator

    ctx = CkksContext(
        CkksParameters(allow_insecure=True, name="wire-v2-n64", **WIRE_V2_PARAMS)
    )
    keygen = KeyGenerator(ctx, seed=WIRE_V2_KEYGEN_SEED)
    encryptor = Encryptor(ctx, keygen.public_key(), seed=WIRE_V2_ENCRYPTOR_SEED)
    pt = CkksEncoder(ctx).encode(trace_values(ctx.params.slot_count))
    return ctx, encryptor.encrypt(pt)


def compute_wire_v2_vector() -> dict:
    """The seeded ciphertext's rows, and its v2 blob packed by the oracle."""
    from oracles import pack_row_bits
    from repro.ckks.serialization import HEADER_BYTES, serialize_ciphertext

    _, ct = wire_v2_ciphertext()
    header = serialize_ciphertext(ct, version=2)[:HEADER_BYTES]
    payload = b"".join(
        pack_row_bits(row, m.value, m.value.bit_length())
        for poly in ct.polys
        for row, m in zip(poly.residues, poly.moduli)
    )
    return {
        "params": {**WIRE_V2_PARAMS, "modulus_bits": list(WIRE_V2_PARAMS["modulus_bits"])},
        "keygen_seed": WIRE_V2_KEYGEN_SEED,
        "encryptor_seed": WIRE_V2_ENCRYPTOR_SEED,
        "moduli": [m.value for m in ct.polys[0].moduli],
        "residues": [poly.residues for poly in ct.polys],
        "blob_hex": (header + payload).hex(),
    }


def main() -> None:
    from repro.ckks.backend import use_backend

    with use_backend("reference"):
        ntt = compute_ntt_vectors()
        trace = compute_trace()
        serving = compute_serving_trace()
        wire_v2 = compute_wire_v2_vector()
    (VECTORS_DIR / "ntt_n64.json").write_text(json.dumps(ntt, indent=1) + "\n")
    (VECTORS_DIR / "trace_n1024.json").write_text(
        json.dumps(trace, indent=1) + "\n"
    )
    (VECTORS_DIR / "serving_trace.json").write_text(
        json.dumps(serving, indent=1) + "\n"
    )
    (VECTORS_DIR / "wire_v2_n64.json").write_text(
        json.dumps(wire_v2, indent=1) + "\n"
    )
    for name in (
        "ntt_n64.json", "trace_n1024.json", "serving_trace.json",
        "wire_v2_n64.json",
    ):
        print(f"wrote {VECTORS_DIR / name}")


if __name__ == "__main__":
    main()
