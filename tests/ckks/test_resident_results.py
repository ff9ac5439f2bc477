"""Resident results: a flush's result matrices are recycled slabs.

``repro.ckks.backend.resident`` hands every result and staging matrix of
the numpy backend out as a view of a slab the thread keeps, and reissues
a slab exactly when nothing else references it.  Two things are held
here, on the numpy backend whatever ``REPRO_BACKEND`` says:

* **the fault count is a number.**  Warmed Set-A ``relinearize(square)``
  flushes of a lane of 8 and a served closed round allocate *zero* fresh
  slabs (the recycler's own counter, exact) and, on Linux, take a
  handful of minor faults a request (about 200 before); what a thread
  holds is a function of its last two epochs of traffic, not of history.
* **aliasing is impossible, shown not argued.**  Random kernel and
  evaluator programs whose results are held or dropped in random order
  give the same bits with the recycler and with plain ``np.empty``; a
  held result never changes under later operations; another thread's
  reference, a view, a row, a ``split()`` element, a ``memoryview`` and
  an out-of-band pickle buffer each pin the slab they read.  Loosening
  the idle test in ``resident.new`` by one reference fails the
  Hypothesis programs, the thread hand-over and every pin below.
"""

from __future__ import annotations

import contextlib
import hashlib
import pickle
import queue
import random
import resource
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.backend import resident
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import SET_A, CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.serving.server import EncryptedComputeServer
from repro.serving.traffic import SyntheticClient, SyntheticTenant

pytestmark = pytest.mark.skipif(
    resident._IDLE is None, reason="this interpreter does not count references"
)


def fresh_slabs() -> int:
    """Slabs the calling thread has ever allocated: flat across a warmed
    workload exactly when every result it makes is a recycled one."""
    return resident.recycler().fresh


def resident_bytes() -> int:
    """Bytes of the slabs the calling thread's recycler holds."""
    return sum(8 * size * len(entry[1]) for size, entry in resident.recycler().classes.items())


@contextlib.contextmanager
def plain_allocation():
    """Every result a fresh ``np.empty``: the recycler's degraded mode."""
    idle, resident._IDLE = resident._IDLE, None
    try:
        yield
    finally:
        resident._IDLE = idle


class Stack:
    """A numpy-backend context, its keys, and eight fresh ciphertexts."""

    def __init__(self, params, seed: int):
        self.ctx = CkksContext(params, backend="numpy")
        self.be = self.ctx.backend
        self.keygen = KeyGenerator(self.ctx, seed=seed)
        self.relin = self.keygen.relin_key()
        self.ev = Evaluator(self.ctx)
        self.encoder = CkksEncoder(self.ctx)
        encryptor = Encryptor(self.ctx, self.keygen.public_key(), seed=seed + 1)
        self.cts = [
            encryptor.encrypt(self.encoder.encode([0.25 * (i + 1), -0.5]))
            for i in range(8)
        ]


@pytest.fixture(scope="module")
def toy() -> Stack:
    stack = Stack(toy_parameters(n=64, k=3, prime_bits=30, scale=2.0**28), seed=23)
    stack.galois = stack.keygen.galois_keys([1, 2], conjugation=True)
    return stack


def digest(*matrices) -> str:
    h = hashlib.sha256()
    for m in matrices:
        h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()


def in_fresh_thread(work):
    """``work()`` in a thread of its own -- a recycler of its own."""
    box = {}

    def run():
        box["value"] = work()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return box["value"]


# ----------------------------------------------------------------------
# the fault count is a number
# ----------------------------------------------------------------------
def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


#: Minor faults a warmed request may take (about 200 before the recycler).
FAULTS_PER_REQUEST = 5


@pytest.fixture(scope="module")
def set_a() -> Stack:
    return Stack(SET_A, seed=2023)


def test_warm_set_a_flushes_allocate_no_fresh_slab(set_a):
    ev, relin = set_a.ev, set_a.relin
    lane = CiphertextBatch.join(set_a.cts)
    out = None
    for _ in range(3):
        out = ev.relinearize(ev.square(lane), relin)
    flushes = 6
    fresh, faults = fresh_slabs(), minor_faults()
    for _ in range(flushes):
        out = ev.relinearize(ev.square(lane), relin)
    assert fresh_slabs() == fresh
    if sys.platform.startswith("linux"):
        assert minor_faults() - faults <= FAULTS_PER_REQUEST * 8 * flushes
    assert out.count == 8


def test_a_warm_served_round_allocates_no_fresh_slab(set_a):
    tenant = SyntheticTenant(set_a.ctx, seed=2024, key_id="tenant-r")
    server = EncryptedComputeServer(set_a.ctx, max_batch_size=8)
    fleet = [
        SyntheticClient(tenant, f"rr-{i}", seed=40 + i, wire_version=2, frame_version=2)
        for i in range(8)
    ]
    for client in fleet:
        client.connect(server)
    rounds = [
        [(c.client_id, c.request_bytes("square", [1.0 + i])) for i, c in enumerate(fleet)]
        for _ in range(9)
    ]

    def serve(blobs):
        for client_id, blob in blobs:
            server.receive(client_id, blob)
        assert server.pump() == 8
        return [server.sessions.get(c.client_id).take_outbox() for c in fleet]

    for blobs in rounds[:3]:
        serve(blobs)
    fresh, faults = fresh_slabs(), minor_faults()
    for blobs in rounds[3:]:
        answers = serve(blobs)
    assert fresh_slabs() == fresh
    if sys.platform.startswith("linux"):
        assert minor_faults() - faults <= FAULTS_PER_REQUEST * 8 * len(rounds[3:])
    for i, (blob,) in enumerate(answers):
        _, values = tenant.decrypt_response(blob)
        assert abs(values[0].real - (1.0 + i) ** 2) < 1e-2


def test_what_a_thread_holds_is_a_function_of_its_recent_traffic(toy, monkeypatch):
    """Lane widths 1..8 at two levels, pass after pass: the bytes held
    stop growing with the first pass, and two epochs of one steady
    workload later they are what a thread that only ever ran that
    workload holds."""
    monkeypatch.setattr(resident, "_EPOCH", 512)
    ev, relin = toy.ev, toy.relin
    lower = [ev.rescale(ev.relinearize(ev.square(ct), relin)) for ct in toy.cts]

    def flush(cts):
        return ev.relinearize(ev.square(CiphertextBatch.join(cts)), relin)

    def steady():
        start = resident.recycler().issued
        epochs = 0
        while epochs < 3:  # two whole epochs and the rest of the first
            flush(toy.cts)
            epochs += resident.recycler().issued < start
            start = resident.recycler().issued
        return resident_bytes()

    def stream():
        samples = []
        for _ in range(4):
            for cts in (toy.cts, lower):
                for width in range(1, 9):
                    flush(cts[:width])
            samples.append(resident_bytes())
        return samples, steady()

    samples, after = in_fresh_thread(stream)
    assert max(samples[1:]) <= samples[0]
    assert 0 < after <= in_fresh_thread(steady)
    assert after < samples[-1]  # the narrower lanes' classes have left


def test_without_reference_counts_every_result_is_a_fresh_array():
    assert resident._calibrate() == resident._IDLE  # holds on CPython
    with plain_allocation():
        out = resident.new((3, 5))
    assert out.flags.owndata and out.shape == (3, 5) and out.dtype == np.uint64


# ----------------------------------------------------------------------
# aliasing is impossible: kernel programs
# ----------------------------------------------------------------------
ROWS = 4


def _operands(toy):
    moduli = list(toy.ctx.key_basis.moduli)[:ROWS]
    rng = random.Random(11)
    a, b = (
        toy.be.from_rows([[rng.randrange(m.value) for _ in range(toy.ctx.n)] for m in moduli])
        for _ in range(2)
    )
    return moduli, a, b


def kernels(toy):
    ctx, be = toy.ctx, toy.be
    moduli = list(ctx.key_basis.moduli)[:ROWS]
    tables = [ctx.tables(m) for m in moduli]
    gather = np.array(ctx.galois_table_ntt(ctx.galois_element_for_step(1)))
    last = moduli[-1]
    return {
        "add": lambda a, b: be.add_rows(moduli, a, b),
        "sub": lambda a, b: be.sub_rows(moduli, a, b),
        "negate": lambda a, b: be.negate_rows(moduli, a),
        "mul": lambda a, b: be.dyadic_mul_rows(moduli, a, b),
        "mac": lambda a, b: be.dyadic_mac_rows(moduli, a, b, a),
        "scalar": lambda a, b: be.scalar_mul_rows(moduli, a, [3, 5, 7, 9]),
        "ntt": lambda a, b: be.ntt_forward_rows(tables, a),
        "intt": lambda a, b: be.ntt_inverse_rows(tables, a),
        "stack_ntt": lambda a, b: be.ntt_forward_stack(tables[-1], be.reduce_mod_stack(last, a)),
        "reduce": lambda a, b: be.reduce_mod_stack(last, a),
        "dot": lambda a, b: be.dyadic_stack_reduce(
            last, be.reduce_mod_stack(last, a), be.reduce_mod_stack(last, b)[:1]
        ),
        "permute": lambda a, b: be.permute_ntt_stack(a, gather),
        "permute_each": lambda a, b: be.permute_ntt_stack(a, np.stack([gather] * len(a))),
        "copy": lambda a, b: be.copy_rows(a),
        "select": lambda a, b: be.select_rows(a, range(len(a) - 1, -1, -1)),
        "restack": lambda a, b: be.native_stack([*a[1:], *b[:1]]),
        "view": lambda a, b: a[:],
    }


def run_kernel_program(toy, program):
    """``(digest at creation of every result, digest now of the held)``."""
    table = kernels(toy)
    held = list(_operands(toy)[1:])
    born = [digest(m) for m in held]
    created = list(born)
    for name, i, j, drop in program:
        a, b = held[i % len(held)], held[j % len(held)]
        if len(a) != ROWS or len(b) != ROWS:
            a = b = held[0]
        out = table[name](a, b)
        created.append(digest(out))
        held.append(out)
        born.append(created[-1])
        del a, b, out
        if drop is not None and len(held) > 2:
            at = 2 + drop % (len(held) - 2)  # the two inputs stay
            del held[at], born[at]
    assert [digest(m) for m in held] == born  # nothing held ever changed
    return created


STEP = st.tuples(
    st.sampled_from(
        [
            "add", "sub", "negate", "mul", "mac", "scalar", "ntt", "intt", "stack_ntt",
            "reduce", "dot", "permute", "permute_each", "copy", "select", "restack", "view",
        ]
    ),
    st.integers(0, 63),
    st.integers(0, 63),
    st.one_of(st.none(), st.integers(0, 63)),
)


@settings(max_examples=60, deadline=None)
@given(program=st.lists(STEP, min_size=1, max_size=40))
def test_kernel_programs_are_bit_identical_with_and_without_the_recycler(toy, program):
    recycled = run_kernel_program(toy, program)
    with plain_allocation():
        assert run_kernel_program(toy, program) == recycled


# ----------------------------------------------------------------------
# aliasing is impossible: evaluator programs
# ----------------------------------------------------------------------
def ct_digest(ct) -> str:
    return digest(*(p.rows for p in ct.polys))


def run_evaluator_program(toy, program):
    ev, relin, galois = toy.ev, toy.relin, toy.galois
    plain = toy.encoder.encode([0.5, 0.25])
    held = list(toy.cts[:3])
    born = [ct_digest(ct) for ct in held]
    created = []

    def keep(ct):
        created.append(ct_digest(ct))
        held.append(ct)
        born.append(created[-1])

    for name, i, j, drop in program:
        a = held[i % len(held)]
        # a partner of a's level and scale (a itself if there is none)
        mates = [c for c in held if (c.level_count, c.scale) == (a.level_count, a.scale)]
        b = mates[j % len(mates)]
        if name == "add":
            keep(ev.add(a, b))
        elif name == "sub":
            keep(ev.sub(a, b))
        elif name == "negate":
            keep(ev.multiply_integers(a, [-1]))
        elif name == "rotate":
            keep(ev.rotate(a, 1 + j % 2, galois))
        elif name == "conjugate":
            keep(ev.conjugate(a, galois))
        elif name == "hoisted":
            for out in ev.rotate_hoisted(a, [1, 2], galois):
                keep(out)
        elif name == "times_plain" and a.level_count == toy.ctx.k:
            keep(ev.multiply_plain(a, plain))
        elif name == "mul_relin":
            keep(ev.multiply_relin(a, b, relin))
        elif name == "rescale" and a.level_count > 1:
            keep(ev.rescale(a))
        elif name == "lane":  # split() elements outlive their lane
            for out in ev.multiply_integers(CiphertextBatch.join([a, b]), [-1, -1]).split():
                keep(out)
        del a, b, mates
        if drop is not None and len(held) > 3:
            at = 3 + drop % (len(held) - 3)
            del held[at], born[at]
    assert [ct_digest(ct) for ct in held] == born  # nothing held ever changed
    return created


EV_STEP = st.tuples(
    st.sampled_from(
        [
            "add", "sub", "negate", "rotate", "conjugate", "hoisted", "times_plain",
            "mul_relin", "rescale", "lane",
        ]
    ),
    st.integers(0, 63),
    st.integers(0, 63),
    st.one_of(st.none(), st.integers(0, 63)),
)


@settings(max_examples=40, deadline=None)
@given(program=st.lists(EV_STEP, min_size=1, max_size=16))
def test_evaluator_programs_are_bit_identical_with_and_without_the_recycler(toy, program):
    recycled = run_evaluator_program(toy, program)
    with plain_allocation():
        assert run_evaluator_program(toy, program) == recycled


# ----------------------------------------------------------------------
# what pins a slab
# ----------------------------------------------------------------------
def _churn(toy, moduli, a, b, count=24):
    """``count`` more results of the pinned one's shape, all held."""
    return [toy.be.add_rows(moduli, a, b) for _ in range(count)]


PINS = {
    "view": lambda r: r[:],
    "row": lambda r: r[2],
    "reshaped": lambda r: r.reshape(-1)[5:],
    "memoryview": lambda r: memoryview(r),
    "pickle_buffer": lambda r: pickle.PickleBuffer(r),
}


@pytest.mark.parametrize("kind", sorted(PINS))
def test_whatever_reads_a_result_pins_its_slab(toy, kind):
    moduli, a, b = _operands(toy)
    result = toy.be.sub_rows(moduli, a, b)
    pin = PINS[kind](result)
    want = np.frombuffer(pin, dtype=np.uint64).copy()
    del result
    for other in _churn(toy, moduli, a, b):
        assert not np.shares_memory(np.frombuffer(pin, dtype=np.uint64), other)
    assert (np.frombuffer(pin, dtype=np.uint64) == want).all()


def test_an_out_of_band_pickle_pins_and_an_in_band_one_copies(toy):
    moduli, a, b = _operands(toy)
    result = toy.be.sub_rows(moduli, a, b)
    want = result.copy()
    buffers = []
    blob = pickle.dumps(result, protocol=5, buffer_callback=buffers.append)
    inline = pickle.dumps(result, protocol=5)
    del result
    churn = _churn(toy, moduli, a, b)
    zero_copy = pickle.loads(blob, buffers=buffers)
    assert (zero_copy == want).all() and (pickle.loads(inline) == want).all()
    assert not any(np.shares_memory(zero_copy, other) for other in churn)


def test_a_result_in_another_thread_is_not_reissued_until_it_is_dropped(toy):
    moduli, a, b = _operands(toy)
    handoff, verdict = queue.Queue(), queue.Queue()
    taken, release = threading.Event(), threading.Event()

    def holder():
        held = handoff.get(timeout=30)
        want = held.copy()
        taken.set()
        release.wait(timeout=30)
        verdict.put(bool((held == want).all()))
        del held

    thread = threading.Thread(target=holder)
    thread.start()
    result = toy.be.sub_rows(moduli, a, b)
    address = result.ctypes.data
    handoff.put(result)
    del result
    assert taken.wait(timeout=30)
    churn = _churn(toy, moduli, a, b)
    assert address not in [m.ctypes.data for m in churn]
    release.set()
    thread.join(timeout=30)
    assert not thread.is_alive() and verdict.get(timeout=1)
    fresh = fresh_slabs()
    again = _churn(toy, moduli, a, b, count=len(churn) + 1)  # churn is still held
    assert address in [m.ctypes.data for m in again]  # ... and now it comes back
    assert fresh_slabs() - fresh == len(again) - 1
