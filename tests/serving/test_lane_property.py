"""The lane rule's invariant: a lane is its members served alone.

A lane is a key pair and a shape; the op is per-request data, so one
tenant's squares, rotations, conjugates and programs flush together, and
keyless ops of any tenant do.  What a request is answered with must not
depend on who it shared a flush with -- not on the order of arrival,
not on the lane width, not on where a ``pump`` fell, not on a lane-mate
that is refused.  The property, over a mixed-op stream (two client-side
sweeps, same-step and other-step strangers, squares, a conjugate, a
program and a program that fails ``check_plan``, a step without a Galois
key, an identity step, one member that expires while batching, keyless
doubles and negates from two tenants, and a rescale at the last level
beside a double of the same shape):

* every request's answer -- RESPONSE or ERROR, byte for byte -- equals
  the frame it gets when it is the only request the server ever sees;
* ``pump`` / ``drain`` count every admitted member exactly once, and
  every request is answered exactly once;
* admission refuses every member a flush could not serve -- the
  identity step, the keyless step, the failing program and the
  last-level rescale -- so no lane fails.

Seeded ``random.Random`` cases replay identically on every run; the
Hypothesis case searches the same space for a counterexample.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks.evaluator import Evaluator
from repro.ckks.serialization import serialize_ciphertext
from repro.serving import framing
from repro.serving.clock import ManualClock
from repro.serving.server import EncryptedComputeServer
from repro.serving.traffic import SyntheticClient, SyntheticTenant

from oracles import rotation_sweep_bytes

KEYED_STEPS = (1, 2, 3, 4)
#: program id -> chain; 6 fails the plan checker (no rescale between
#: squares) at admission, 5 is servable
PROGRAMS = {5: (("rotate", 1), "square", "rescale"), 6: ("square", "square")}
#: the instant the expiring member is stamped with, and how far the clock
#: jumps once it is admitted: it expires while it batches, whoever with
DEADLINE, JUMP = 0.5, 0.75
#: requests in the stream (Hypothesis needs it at decoration time)
STREAM_LENGTH = 21
#: members answered with an ERROR: the keyless step, the identity step,
#: the expiring member, program 6 and the rescale at the last level
ERRORS = 5
#: of them, refused at admission: all but the expiring member
REFUSED = ERRORS - 1


def last_level(client, op, request_id):
    """A request frame whose ciphertext sits at the last level."""
    tenant = client.tenant
    ev = Evaluator(tenant.context)
    ct = client.encryptor.encrypt(tenant.encoder.encode([0.5, 0.25]))
    while ct.level_count > 1:
        one = tenant.encoder.encode(1.0, level_count=ct.level_count)
        ct = ev.rescale(ev.multiply_plain(ct, one))
    return framing.encode_frame(
        framing.REQUEST, request_id, client.client_id, op=op,
        payload=serialize_ciphertext(ct),
    )


@pytest.fixture(scope="module")
def stream(serving_context):
    """``(clients, requests)``: the mixed stream as ``(client_id, bytes)``."""
    tenant = SyntheticTenant(serving_context, seed=1207, key_id="tenant-p")
    tenant.galois_keys = tenant.keygen.galois_keys(KEYED_STEPS, conjugation=True)
    other = SyntheticTenant(serving_context, seed=1211, key_id="tenant-q")
    a, b, c = tenant_p = [
        SyntheticClient(tenant, f"prop-{i}", seed=1208 + i) for i in range(3)
    ]
    d = SyntheticClient(other, "prop-q", seed=1212)
    requests = []

    def send(client, blobs):
        requests.extend((client.client_id, blob) for blob in blobs)

    # served in stream order by one drain, the tenant's lane is due
    # first (for its expiring member), then the keyless lane, then the
    # last-level double's
    send(a, [a.request_bytes("double", [0.6])])  # keyless, tenant p
    send(a, rotation_sweep_bytes(a, [0.5, -0.25, 0.125], (1, 2, 3)))  # a sweep
    send(b, rotation_sweep_bytes(b, [0.75], (2, 4)))  # another client's sweep
    send(c, [c.request_bytes("rotate", [1.0, 2.0], op_arg=1)])  # strangers:
    send(c, [c.request_bytes("rotate", [3.0], op_arg=1)])  # ... same step
    send(a, [a.request_bytes("rotate", [0.3], op_arg=4)])  # ... another step
    send(b, [b.request_bytes("rotate", [0.1], op_arg=7)])  # no Galois key
    send(c, [c.request_bytes("rotate", [0.2], op_arg=0)])  # the identity
    send(a, [a.request_bytes("rotate", [0.4], op_arg=2, deadline=DEADLINE)])
    send(b, [b.request_bytes("square", [0.9])])
    send(c, [c.request_bytes("conjugate", [0.7, 0.1])])
    send(b, [b.request_bytes("program", [0.2], op_arg=5)])
    send(c, [c.request_bytes("program", [0.3], op_arg=6)])  # check_plan fails
    send(d, [d.request_bytes("double", [0.5])])  # keyless, tenant q
    send(d, [d.request_bytes("negate", [0.4])])
    send(c, [c.request_bytes("negate", [0.8])])  # keyless, tenant p
    send(d, [last_level(d, "rescale", 100)])  # no level left to drop
    send(a, [last_level(a, "double", 100)])  # its servable lane-mate
    assert len(requests) == STREAM_LENGTH
    return [*tenant_p, d], requests


def serve(context, clients, arrivals, max_batch_size=8, pump_after=()):
    """Serve ``arrivals`` in order; ``{(client_id, request_id): frame
    bytes}``, with the pump/drain and admission counts and the flush
    records."""
    clock = ManualClock()
    server = EncryptedComputeServer(
        context, max_batch_size=max_batch_size, max_delay_seconds=10.0, clock=clock
    )
    for program_id, steps in PROGRAMS.items():
        server.register_program(program_id, steps)
    for client in clients:
        client.connect(server)
    completed = 0
    for position, (client_id, blob) in enumerate(arrivals):
        server.receive(client_id, blob)
        if framing.decode_frame(blob).deadline:
            clock.advance(JUMP)
        if position in pump_after:
            completed += server.pump()
    completed += server.drain()
    answers = {}
    for client in clients:
        for blob in server.sessions.get(client.client_id).take_outbox():
            key = (client.client_id, framing.decode_frame(blob).request_id)
            assert key not in answers, f"{key} answered twice"
            answers[key] = blob
    admitted = server.log.count("admitted")
    return answers, completed, admitted, server.report.flushes


@pytest.fixture(scope="module")
def alone(serving_context, stream):
    """Each request's answer when it is the only request ever served."""
    clients, requests = stream
    answers = {}
    for request in requests:
        answer, completed, admitted, _ = serve(serving_context, clients, [request])
        assert len(answer) == 1 and completed == admitted
        answers.update(answer)
    kinds = [framing.decode_frame(blob).kind for blob in answers.values()]
    # the stream is what the docstring says
    assert kinds.count(framing.ERROR) == ERRORS and len(kinds) == STREAM_LENGTH
    return answers


def check(context, stream, alone, order, max_batch_size, pump_after):
    clients, requests = stream
    answers, completed, admitted, flushes = serve(
        context, clients, [requests[i] for i in order], max_batch_size, pump_after
    )
    assert answers == alone
    # every refused member is refused at admission; everything else is
    # a lane member, counted once by whichever pump or drain flushed it
    assert completed == admitted == len(requests) - REFUSED
    return flushes


def test_every_lane_flushes_whole_in_one_wave(serving_context, stream, alone):
    """Stream order, one drain: the tenant's lane is due first (its
    expiring member) and flushes whole, its sweeps fused; the keyless
    lane follows, then the last-level double alone.  No lane fails, so
    none re-runs member by member."""
    flushes = check(
        serving_context, stream, alone, range(STREAM_LENGTH), STREAM_LENGTH, ()
    )
    # the tenant's 12 admitted lane members less the expired one
    assert [(f.op, f.batch_size) for f in flushes] == [
        ("rotate_hoisted", 11), ("mixed", 4), ("double", 1),
    ]


@pytest.mark.parametrize("seed", range(12))
def test_seeded_interleavings_answer_as_if_alone(
    serving_context, stream, alone, seed
):
    rng = random.Random(seed)
    order = list(range(len(stream[1])))
    rng.shuffle(order)
    pumps = {p for p in range(len(order)) if rng.random() < 0.25}
    check(serving_context, stream, alone, order, rng.choice((1, 2, 3, 8, 16)), pumps)


@settings(max_examples=30, deadline=None)
@given(
    order=st.permutations(range(STREAM_LENGTH)),
    max_batch_size=st.integers(min_value=1, max_value=STREAM_LENGTH + 1),
    pump_after=st.sets(st.integers(min_value=0, max_value=STREAM_LENGTH - 1)),
)
def test_any_interleaving_answers_as_if_alone(
    serving_context, stream, alone, order, max_batch_size, pump_after
):
    check(serving_context, stream, alone, order, max_batch_size, pump_after)
