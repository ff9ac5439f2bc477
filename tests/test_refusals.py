"""Refusals of outside input that no other test reached: each is raised
with its message, so a refusal that stops firing -- or starts saying
something else -- fails here.  The execution census (``tools/census.py``)
found them run by nothing; ``census.json`` now counts them as tested.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.bfv.scheme import BfvCiphertext, BfvParameters
from repro.ckks.backend import NumpyBackend, ReferenceBackend
from repro.ckks.backend.base import _check_pack_bounds, _pack_rows_bits_np, packed_row_bytes
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext, CkksParameters, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KEY_SEED_BYTES, KeyGenerator, KswitchKey
from repro.ckks.ntt import NTTTables
from repro.ckks.poly import Ciphertext, RnsPolynomial
from repro.ckks.primes import generate_ntt_primes
from repro.ckks.serialization import (
    ciphertext_wire_bytes,
    deserialize_kswitch_key,
    serialize_kswitch_key,
)
from repro.core.arch import derive_architecture
from repro.core.keyswitch_module import KeySwitchModuleSim
from repro.core.memory import BankedMemory
from repro.plan.graph import PlanGraph
from repro.plan.lower import polynomial
from repro.serving import framing
from repro.serving.clock import SYSTEM_CLOCK, ExponentialBackoff, ManualClock
from repro.serving.cluster import NoWorkersError, ServingCluster
from repro.serving.session import ClientSession, SessionManager
from repro.serving.supervisor import HeartbeatSupervisor
from repro.serving.traffic import ResilientClient, SyntheticClient, SyntheticTenant
from repro.serving.worker import LocalWorkerHandle, WorkerSpec

CTX = CkksContext(toy_parameters(n=64, k=3, prime_bits=30))
MODULI = list(CTX.data_basis.moduli)
BIG = 1 << 64  # one past the unsigned word


def _frame(version=framing.FRAME_V2) -> bytes:
    return framing.encode_frame(
        framing.REQUEST, 7, "c", "square", payload=b"xyz", frame_version=version
    )


def _keys(k: int = 3):
    ctx = CTX if k == 3 else CkksContext(toy_parameters(n=64, k=k, prime_bits=30))
    return ctx, KeyGenerator(ctx, seed=3)


def _cluster(clock=None):
    spec = WorkerSpec(params=CTX.params)
    return ServingCluster(lambda wid: LocalWorkerHandle(wid, spec), worker_count=1,
                          clock=clock or ManualClock())


def _dead_cluster_program():
    cluster = _cluster()
    for handle in cluster.workers.values():
        handle.kill()
    cluster.register_program(1, ("square",))


def _dead_handle_server():
    handle = LocalWorkerHandle("w0", WorkerSpec(params=CTX.params))
    handle.kill()
    return handle.server


def _duplicate_session():
    sessions = SessionManager(CTX)
    sessions.register("c")
    sessions.register("c")


def _ciphertext(count_ntt=True):
    poly = RnsPolynomial(CTX.n, MODULI, is_ntt=count_ntt)
    return Ciphertext([poly, poly], CTX.params.scale)


CASES = {
    "bfv ring degree": (lambda: BfvParameters(6, 97, (30,)), ValueError,
                        "ring degree must be a power of two >= 4"),
    "bfv empty ciphertext": (lambda: BfvCiphertext([]), ValueError, "empty ciphertext"),
    "packed width": (lambda: packed_row_bytes(64, 65), ValueError,
                     "packed word width 65 outside 1..64"),
    "pack bounds count": (lambda: _check_pack_bounds(np.zeros((2, 4), np.uint64), [3]),
                          ValueError, "matrix has 2 rows but 1 bounds"),
    "pack row width": (lambda: _pack_rows_bits_np([[1, 2], [1]], [7, 7]), ValueError,
                       "row 1 is not 2 coefficients wide"),
    "pack_rows word": (lambda: NumpyBackend().pack_rows([[BIG]]), ValueError,
                       "residue word outside the unsigned 8-byte wire range"),
    "select_rows range": (lambda: NumpyBackend().select_rows(np.zeros((2, 4), np.uint64), [2]),
                          IndexError, "row index out of range for 2 rows"),
    "ntt rows count": (lambda: NumpyBackend().ntt_forward_rows(
        [CTX.tables(MODULI[0])], np.zeros((2, CTX.n), np.uint64)), ValueError,
        "expected 1 rows, got 2"),
    "sub_stack length": (lambda: NumpyBackend().sub_stack(
        MODULI[0], np.zeros((2, 4), np.uint64), np.zeros((3, 4), np.uint64)), ValueError,
        "stack length mismatch: 3 vs 2 rows"),
    "empty stack reduce": (lambda: ReferenceBackend().dyadic_stack_reduce(MODULI[0], [], [[1]]),
                           ValueError, "cannot reduce an empty stack"),
    "batch of none": (lambda: CiphertextBatch(64, 0, MODULI, [], 2.0), ValueError,
                      "a ciphertext batch needs at least one element"),
    "batch of no component": (lambda: CiphertextBatch(64, 1, MODULI, [], 2.0), ValueError,
                              "a ciphertext batch needs at least one component"),
    "scale": (lambda: CkksParameters(64, (30, 30), 1.0, allow_insecure=True),
              ValueError, "scale must exceed 1"),
    "decrypt coefficient form": (lambda: Decryptor(CTX, _keys()[1].secret_key).decrypt(
        _ciphertext(count_ntt=False)), ValueError, "ciphertexts are kept in NTT form"),
    "rescale coefficient form": (lambda: Evaluator(CTX).rescale(_ciphertext(count_ntt=False)),
                                 ValueError, "flooring operates on NTT-form polynomials"),
    "evaluator ring": (lambda: Evaluator(CTX).add(_ciphertext(), Ciphertext(
        [RnsPolynomial(128, MODULI)] * 2, CTX.params.scale)), ValueError,
        "ring degree mismatch"),
    "sweep basis": (lambda: Evaluator(CTX).sweep_terms([
        (1, CkksEncoder(CTX).encode(1.0)),
        (2, CkksEncoder(CTX).encode(1.0, level_count=2))]), ValueError,
        "RNS basis mismatch: linear_sweep plaintexts"),
    "ksk digits": (lambda: KswitchKey([]), ValueError,
                   "key-switching key needs at least one digit"),
    "ksk seed": (lambda: KswitchKey([(None, None)], seed=b"x"), ValueError,
                 f"expansion seed must be {KEY_SEED_BYTES} bytes"),
    "keygen seed": (lambda: KeyGenerator(CTX, seed=1, expansion_seed=b"x"), ValueError,
                    f"expansion_seed must be {KEY_SEED_BYTES} bytes"),
    "ntt forward length": (lambda: NTTTables(8, MODULI[0]).forward([1]), ValueError,
                           "expected 8 coefficients, got 1"),
    "ntt inverse length": (lambda: NTTTables(8, MODULI[0]).inverse([1]), ValueError,
                           "expected 8 coefficients, got 1"),
    "residue shape": (lambda: RnsPolynomial(64, MODULI, np.zeros((3, 32), np.uint64)),
                      ValueError, "residue polynomial has wrong length"),
    "poly ring": (lambda: RnsPolynomial(64, MODULI).add(RnsPolynomial(128, MODULI)),
                  ValueError, "ring degree mismatch"),
    "prime bits": (lambda: generate_ntt_primes(64, 1, 1), ValueError,
                   "bit_size must be at least 2"),
    "wire moduli count": (lambda: ciphertext_wire_bytes(64, 3, 2, version=2, moduli=MODULI[:1]),
                          ValueError, "moduli count 1 does not match level count 2"),
    "ksk basis": (lambda: deserialize_kswitch_key(
        serialize_kswitch_key(_keys(2)[1].relin_key()), CTX), ValueError,
        "key basis size mismatch"),
    "ksk v2 layout byte": (lambda: deserialize_kswitch_key(
        serialize_kswitch_key(_keys()[1].relin_key(), version=2)[:22], CTX), ValueError,
        "truncated payload: missing v2 key layout byte"),
    "keyswitch module ring": (lambda: KeySwitchModuleSim(
        CkksContext(toy_parameters(n=8192, k=2, prime_bits=30)),
        derive_architecture("toy", 4096, 2, nc_intt0=8, m0=1)), ValueError, "is for n=4096, context has"),
    "memory lanes": (lambda: BankedMemory(64, 3), ValueError, "lanes must divide n"),
    "polynomial terms": (lambda: polynomial(PlanGraph(), 0, [1.0, 0.0], CTX), ValueError,
                         "polynomial has no nonzero non-constant terms"),
    "backoff base": (lambda: ExponentialBackoff(base=0), ValueError, "base delay must be > 0"),
    "backoff factor": (lambda: ExponentialBackoff(factor=0.5), ValueError,
                       "backoff factor must be >= 1"),
    "backoff jitter": (lambda: ExponentialBackoff(jitter=2.0), ValueError,
                       "jitter must be within [0, 1]"),
    "backoff attempt": (lambda: ExponentialBackoff().delay(-1), ValueError,
                        "attempt must be >= 0"),
    "clock backwards": (lambda: ManualClock().advance(-1), ValueError,
                        "a monotonic clock cannot go backwards"),
    "cluster size": (lambda: ServingCluster(lambda wid: None, worker_count=0), ValueError,
                     "need at least one worker"),
    "program without workers": (_dead_cluster_program, NoWorkersError,
                                "no live worker to register the program at"),
    "error class": (lambda: framing.error_class(framing.decode_frame(_frame())), ValueError,
                    "is not an ERROR frame"),
    "frame version": (lambda: framing.encode_frame(framing.REQUEST, 1, "c", "o",
                                                   frame_version=9), ValueError,
                      "unknown frame protocol version 9"),
    "v1 deadline": (lambda: framing.encode_frame(framing.REQUEST, 1, "c", "o",
                                                 frame_version=framing.FRAME_VERSION,
                                                 deadline=5.0), ValueError,
                    "deadlines require frame protocol v2"),
    "v2 too short": (lambda: framing.decode_frame((24).to_bytes(4, "little") + _frame()[4:28]),
                     ValueError, "v2 frame too short for deadline and CRC"),
    "peek ids": (lambda: framing.peek_frame_ids(b"\x00\x00"), ValueError,
                 "truncated frame: too short for kind/request_id"),
    "peek lengths": (lambda: framing.peek_frame_summary(_frame()[:20]), ValueError,
                     "truncated frame: too short for id/op lengths"),
    "peek op": (lambda: framing.peek_frame_summary(_frame()[:-12]), ValueError,
                "truncated frame: too short for its op field"),
    "frame length": (lambda: framing.decode_frame((1).to_bytes(4, "little") + b"\x00"), ValueError,
                     "frame length 1 below fixed header size"),
    "session frame version": (lambda: ClientSession("c", "k").negotiate(1, 9), ValueError,
                              "unsupported frame protocol version 9"),
    "session twice": (_duplicate_session, ValueError, "client 'c' already has a session"),
    "probe interval": (lambda: HeartbeatSupervisor(_cluster(), probe_interval=0), ValueError,
                       "probe_interval must be > 0"),
    "miss threshold": (lambda: HeartbeatSupervisor(_cluster(), miss_threshold=0), ValueError,
                       "miss_threshold must be >= 1"),
    "flap threshold": (lambda: HeartbeatSupervisor(_cluster(), flap_threshold=0), ValueError,
                       "flap_threshold must be >= 1"),
    "run without a manual clock": (lambda: HeartbeatSupervisor(
        _cluster(SYSTEM_CLOCK)).run(1.0), TypeError,
        "run() needs a ManualClock-style clock"),
    "server error": (lambda: SyntheticTenant(CTX, seed=1).decrypt_response(
        framing.encode_frame(framing.ERROR, 1, "c", framing.ERR_FATAL, payload=b"no")),
        RuntimeError, "server error: no"),
    "retry attempts": (lambda: ResilientClient(SyntheticClient(SyntheticTenant(CTX, seed=1),
                                                               "c", seed=1), None, max_attempts=0),
                       ValueError, "max_attempts must be >= 1"),
    "dead worker's server": (_dead_handle_server, Exception, "worker 'w0' is dead"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_refusal_says_what_it_refuses(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=re.escape(message)):
        call()
