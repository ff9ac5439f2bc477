"""The lane rule's invariant: a lane is its members served alone.

One kind of lane means rotations of one tenant flush together whatever
their steps and inputs, so what a request is answered with must not
depend on who it shared a flush with -- not on the order of arrival, not
on the lane width, not on where a ``pump`` fell.  The property, over a
mixed rotate stream (two client-side sweeps, same-step and other-step
strangers, a step without a Galois key, an identity step, one member
that expires while batching):

* every request's answer -- RESPONSE or ERROR, byte for byte -- equals
  the frame it gets when it is the only request the server ever sees;
* ``pump`` / ``drain`` count every admitted member exactly once, and
  every request is answered exactly once.

Seeded ``random.Random`` cases replay identically on every run; the
Hypothesis case searches the same space for a counterexample.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import framing
from repro.serving.clock import ManualClock
from repro.serving.server import EncryptedComputeServer
from repro.serving.traffic import SyntheticClient, SyntheticTenant

KEYED_STEPS = (1, 2, 3, 4)
#: the instant the expiring member is stamped with, and how far the clock
#: jumps once it is admitted: it expires while it batches, whoever with
DEADLINE, JUMP = 0.5, 0.75
#: requests in the stream (Hypothesis needs it at decoration time)
STREAM_LENGTH = 11


@pytest.fixture(scope="module")
def stream(serving_context):
    """``(clients, requests)``: the mixed stream as ``(client_id, bytes)``."""
    tenant = SyntheticTenant(serving_context, seed=1207, key_id="tenant-p")
    tenant.galois_keys = tenant.keygen.galois_keys(KEYED_STEPS)
    a, b, c = clients = [
        SyntheticClient(tenant, f"prop-{i}", seed=1208 + i) for i in range(3)
    ]
    requests = []

    def send(client, blobs):
        requests.extend((client.client_id, blob) for blob in blobs)

    send(a, a.rotation_sweep_bytes([0.5, -0.25, 0.125], (1, 2, 3)))  # a sweep
    send(b, b.rotation_sweep_bytes([0.75], (2, 4)))  # another client's sweep
    send(c, [c.request_bytes("rotate", [1.0, 2.0], op_arg=1)])  # strangers:
    send(c, [c.request_bytes("rotate", [3.0], op_arg=1)])  # ... same step
    send(a, [a.request_bytes("rotate", [0.3], op_arg=4)])  # ... another step
    send(b, [b.request_bytes("rotate", [0.1], op_arg=7)])  # no Galois key
    send(c, [c.request_bytes("rotate", [0.2], op_arg=0)])  # the identity
    send(a, [a.request_bytes("rotate", [0.4], op_arg=2, deadline=DEADLINE)])
    assert len(requests) == STREAM_LENGTH
    return clients, requests


def serve(context, clients, arrivals, max_batch_size=8, pump_after=()):
    """Serve ``arrivals`` in order; ``{(client_id, request_id): frame
    bytes}``, with the pump/drain and admission counts."""
    clock = ManualClock()
    server = EncryptedComputeServer(
        context, max_batch_size=max_batch_size, max_delay_seconds=10.0, clock=clock
    )
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
    admitted = sum(s.requests_accepted for s in server.sessions.all_sessions())
    return answers, completed, admitted


@pytest.fixture(scope="module")
def alone(serving_context, stream):
    """Each request's answer when it is the only request ever served."""
    clients, requests = stream
    answers = {}
    for request in requests:
        answer, completed, admitted = serve(serving_context, clients, [request])
        assert len(answer) == 1 and completed == admitted
        answers.update(answer)
    kinds = [framing.decode_frame(blob).kind for blob in answers.values()]
    # the stream is what the docstring says: three members are refused
    assert kinds.count(framing.ERROR) == 3 and len(kinds) == STREAM_LENGTH
    return answers


def check(context, stream, alone, order, max_batch_size, pump_after):
    clients, requests = stream
    answers, completed, admitted = serve(
        context, clients, [requests[i] for i in order], max_batch_size, pump_after
    )
    assert answers == alone
    # the identity step is refused at admission; everything else is a
    # lane member, counted once by whichever pump or drain flushed it
    assert completed == admitted == len(requests) - 1


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
