"""Tests for the noise estimator, validated against measured noise.

Errors are measured in the canonical embedding -- a decoded slot's
error times the scale -- which is what :class:`NoiseModel` bounds (and
at least the largest coefficient of the error polynomial).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks.noise import ERROR_BOUND, NoiseEstimate, NoiseModel
from repro.ckks.poly import Plaintext

# tests/ are not a package; pytest puts this directory on sys.path
from differential import generate_program, run_program_planned


def measured_noise(encoder, decryptor, ct, reference_pt):
    """Largest canonical-embedding slot of decryption minus reference."""
    diff = decryptor.decrypt(ct).poly.sub(reference_pt.poly)
    return float(np.max(np.abs(encoder.decode(Plaintext(diff, 1.0)))))


@pytest.fixture(scope="module")
def model(toy_context):
    return NoiseModel(toy_context)


class TestEstimateAlgebra:
    def test_precision_bits(self):
        est = NoiseEstimate(bound=2.0**8, scale=2.0**28, level_count=3)
        assert est.precision_bits == pytest.approx(20)

    def test_decryptable_check(self):
        est = NoiseEstimate(bound=2.0**8, scale=2.0**28, level_count=3)
        assert est.decryptable(q_bits=90)
        assert not est.decryptable(q_bits=25)

    def test_add_combines_bounds(self, model):
        a = model.fresh()
        s = model.add(a, a)
        assert s.bound == 2 * a.bound
        assert s.scale == a.scale

    def test_add_level_mismatch(self, model):
        a = model.fresh()
        b = NoiseEstimate(a.bound, a.scale, a.level_count - 1)
        with pytest.raises(ValueError):
            model.add(a, b)

    def test_rescale_divides_bound_and_scale(self, model, toy_context):
        a = model.fresh()
        prod = model.multiply(a, a)
        res = model.rescale(prod)
        dropped = toy_context.basis_at_level(prod.level_count).moduli[-1].value
        assert res.level_count == prod.level_count - 1
        assert res.scale == pytest.approx(prod.scale / dropped)
        assert res.bound < prod.bound

    def test_error_bound_constant(self):
        assert ERROR_BOUND == 20  # ceil(6 * 3.2)


class TestAgainstMeasurement:
    def test_fresh_estimate_upper_bounds_measurement(
        self, encoder, encryptor, decryptor, model
    ):
        pt = encoder.encode([1.0, -1.0, 0.5])
        ct = encryptor.encrypt(pt)
        measured = measured_noise(encoder, decryptor, ct, pt)
        est = model.fresh()
        assert measured <= est.bound
        # ... and not absurdly loose (within ~10 bits)
        assert est.bound < measured * 2**10

    def test_addition_estimate_tracks_measurement(
        self, encoder, encryptor, decryptor, evaluator, model
    ):
        pt = encoder.encode([0.5])
        ct = encryptor.encrypt(pt)
        acc_ct, acc_pt = ct, pt
        est = model.fresh()
        for _ in range(3):
            acc_ct = evaluator.add(acc_ct, acc_ct)
            acc_pt = Plaintext(acc_pt.poly.add(acc_pt.poly), acc_pt.scale)
            est = model.add(est, est)
        assert measured_noise(encoder, decryptor, acc_ct, acc_pt) <= est.bound

    def test_keyswitch_estimate_upper_bounds_measurement(
        self, encoder, encryptor, decryptor, evaluator, relin_key, model
    ):
        vals = np.array([0.5, -0.25])
        ct1 = encryptor.encrypt(encoder.encode(vals))
        ct2 = encryptor.encrypt(encoder.encode(vals))
        prod = evaluator.relinearize(evaluator.multiply(ct1, ct2), relin_key)
        # reference: decrypt the size-3 product (its own noise is the
        # multiply noise; relin adds only the gadget noise on top)
        ref = decryptor.decrypt(evaluator.multiply(ct1, ct2))
        measured = measured_noise(encoder, decryptor, prod, ref)
        est = model.keyswitch(NoiseEstimate(0.0, prod.scale, prod.level_count))
        assert 0 < measured <= est.bound


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    length=st.integers(1, 8),
    k=st.sampled_from((3, 4)),
    backend=st.sampled_from(("numpy", "reference")),
)
def test_measured_error_is_within_the_typed_bound(seed, length, k, backend):
    """On a random well-typed plan from the differential harness's
    generator, every output decodes within ``2^-precision_bits`` of the
    plaintext model: the typed bound holds on a live decryption (and is
    not loose by more than 16 bits; 300 outputs of 150 plans measured
    2.9 to 10.2 bits)."""
    program = generate_program(seed, length=length, k=k)
    result = run_program_planned(
        program, backend, k=k, batch_count=2, base_seed=seed
    )
    for got, want, est in zip(result["decoded"], result["expected"], result["bounds"]):
        error = np.max(np.abs(got - want))
        assert error <= est.bound / est.scale < error * 2**16, program
