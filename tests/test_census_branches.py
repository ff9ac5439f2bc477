"""Branches that no product run and no other test took, found by the
execution census (``tools/census.py``): each case takes one and checks
what it answers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bfv.scheme import (
    BfvCiphertext,
    BfvContext,
    BfvDecryptor,
    BfvEncoder,
    BfvEncryptor,
    BfvEvaluator,
    BfvKeyGenerator,
    toy_bfv_parameters,
)
from repro.ckks.backend import CountingBackend, NumpyBackend, get_backend, resolve_backend
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.noise import NoiseEstimate
from repro.ckks.primes import _pollard_rho, is_prime
from repro.ckks.rns import RnsBasis
from repro.core.arch import choose_module_split
from repro.plan.graph import PlanGraph
from repro.plan.passes import PlanValidationError, check_plan
from repro.serving.clock import ManualClock
from repro.serving.cluster import ServingCluster
from repro.serving.worker import LocalWorkerHandle, WorkerSpec

CTX = CkksContext(toy_parameters(n=64, k=3, prime_bits=30))
KEYS = KeyGenerator(CTX, seed=9)
ENCODER = CkksEncoder(CTX)
VALUES = [0.5, -0.25, 0.125, 1.0]


def _decoded(ct):
    return ENCODER.decode(Decryptor(CTX, KEYS.secret_key).decrypt(ct))[: len(VALUES)]


def _fresh():
    return Encryptor(CTX, KEYS.public_key(), seed=4).encrypt(ENCODER.encode(VALUES))


def test_bfv_zero_noise_and_a_mixed_size_sum():
    ctx = BfvContext(toy_bfv_parameters(n=64))
    keys = BfvKeyGenerator(ctx, seed=11)
    decryptor, ev = BfvDecryptor(ctx, keys.secret), BfvEvaluator(ctx)
    zero = BfvCiphertext([[0] * ctx.n, [0] * ctx.n])
    assert decryptor.noise_budget_bits(zero) == float(ctx.q.bit_length())
    encoder = BfvEncoder(ctx)
    ct = BfvEncryptor(ctx, keys.public_key(), seed=12).encrypt(encoder.encode([3, 4]))
    product = ev.multiply(ct, ct)  # size 3
    relin = keys.relin_key()
    for total in (ev.add(product, ct), ev.add(ct, product)):  # the longer one's tail
        assert encoder.decode(decryptor.decrypt(ev.relinearize(total, relin)))[:2] == [12, 20]


def test_a_backend_spec_of_none_is_the_active_backend():
    assert resolve_backend(None) is get_backend()


def test_zero_rows_pack_to_nothing():
    be = NumpyBackend()
    assert bytes(be.pack_rows_bits(np.zeros((0, 0), np.uint64), [])) == b""
    assert be.unpack_rows_bits(b"", 0, []).shape[0] == 0


def test_counting_forwards_what_it_wraps():
    moduli = list(CTX.data_basis.moduli)
    counting = CountingBackend(NumpyBackend())
    assert counting.native_is_python is False
    a = np.ones((len(moduli), CTX.n), np.uint64)
    assert (counting.sub_rows(moduli, a, a) == 0).all()
    counting.sub_stack(moduli[0], a, [1] * CTX.n)  # a python row lifts
    assert counting.counts["lift_rows"] == 1


def test_an_encoding_past_the_signed_word_rounds_in_python():
    pt = ENCODER.encode(VALUES, scale=2.0**70)
    assert np.allclose(ENCODER.decode(pt)[: len(VALUES)], VALUES, atol=1e-6)


def test_a_coefficient_form_plaintext_encrypts():
    pt = ENCODER.encode(VALUES, to_ntt=False)
    ct = Encryptor(CTX, KEYS.public_key(), seed=4).encrypt(pt)
    assert np.allclose(_decoded(ct), VALUES, atol=1e-3)


def test_a_difference_of_a_product_and_a_fresh_ciphertext():
    ev, ct = Evaluator(CTX), _fresh()
    square = ev.square(ct)  # size 3, scale delta^2
    fresh = Encryptor(CTX, KEYS.public_key(), seed=5).encrypt(
        ENCODER.encode(VALUES, scale=square.scale)
    )
    want = np.square(VALUES)
    assert np.allclose(_decoded(ev.sub(square, fresh)), want - VALUES, atol=1e-3)
    assert np.allclose(_decoded(ev.sub(fresh, square)), VALUES - want, atol=1e-3)


def test_the_square_of_an_unrelinearized_product_is_a_product():
    ev = Evaluator(CTX)
    fourth = ev.square(ev.square(_fresh()))  # size 3 in, size 5 out
    assert fourth.size == 5 and fourth.scale == CTX.params.scale**4


def test_no_galois_elements_is_no_rotations():
    assert Evaluator(CTX).apply_galois_hoisted(_fresh(), [], KEYS.galois_keys([1])) == []


def test_a_noiseless_estimate_keeps_every_bit():
    assert NoiseEstimate(bound=0.0, scale=2.0**20, level_count=1).precision_bits == math.inf


def test_primes_past_the_deterministic_witnesses():
    assert is_prime(2**89 - 1) and not is_prime(2**89 + 1)
    assert _pollard_rho(10) == 2


def test_rows_past_the_word_take_the_python_digits():
    basis = RnsBasis(list(CTX.data_basis.moduli))
    assert basis._garner_digits_numpy([[1 << 64] * 4] * len(basis.moduli)) is None


def test_a_module_split_that_does_not_divide_searches_upward():
    assert choose_module_split(34) == 17


def test_a_scale_that_overflows_is_refused():
    g = PlanGraph()
    g.output(g.mul_plain(g.input("x"), g.const(0.5, scale=1e308)), "y")
    with pytest.raises(PlanValidationError, match="drives scale to inf"):
        check_plan(g, CTX)


def test_programs_skip_dead_workers_and_a_restart_can_leave_the_ring():
    spec = WorkerSpec(params=CTX.params)
    cluster = ServingCluster(lambda wid: LocalWorkerHandle(wid, spec), worker_count=2,
                             clock=ManualClock())
    dead, live = sorted(cluster.workers)
    cluster.workers[dead].kill()
    assert cluster.register_program(1, ("square",)) == (("square", 0),)
    cluster.restart_worker(live, rejoin=False)
    assert live not in cluster.ring
