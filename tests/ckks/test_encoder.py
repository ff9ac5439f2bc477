"""Unit tests for the canonical-embedding encoder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks.encoder import CkksEncoder


class TestRoundTrip:
    def test_real_vector(self, toy_context, encoder):
        vals = np.linspace(-2, 2, encoder.slot_count)
        pt = encoder.encode(vals)
        out = encoder.decode(pt)
        assert np.allclose(out.real, vals, atol=1e-4)
        assert np.allclose(out.imag, 0, atol=1e-4)

    def test_complex_vector(self, encoder):
        vals = np.array([0.5 + 0.25j, -1.5 - 2.0j, 3.0, 0.0])
        out = encoder.decode(encoder.encode(vals))
        assert np.allclose(out[:4], vals, atol=1e-4)
        assert np.allclose(out[4:], 0, atol=1e-4)

    def test_scalar_broadcast(self, encoder):
        out = encoder.decode(encoder.encode(1.5))
        assert np.allclose(out, 1.5, atol=1e-4)

    def test_zero(self, encoder):
        out = encoder.decode(encoder.encode(0.0))
        assert np.allclose(out, 0, atol=1e-6)

    def test_coefficient_form_roundtrip(self, encoder):
        vals = np.array([1.0, -1.0])
        pt = encoder.encode(vals, to_ntt=False)
        assert not pt.poly.is_ntt
        out = encoder.decode(pt)
        assert np.allclose(out[:2], vals, atol=1e-4)

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, encoder, values):
        vals = np.array(values)
        out = encoder.decode(encoder.encode(vals)).real[: len(values)]
        assert np.allclose(out, vals, atol=1e-3)


class TestShapes:
    def test_slot_count_is_half_n(self, toy_context, encoder):
        assert encoder.slot_count == toy_context.n // 2

    def test_too_many_values_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode([1.0] * (encoder.slot_count + 1))

    def test_short_vector_zero_padded(self, encoder):
        out = encoder.decode(encoder.encode([2.0]))
        assert np.isclose(out[0].real, 2.0, atol=1e-4)
        assert np.allclose(out[1:], 0, atol=1e-4)

    def test_level_count_parameter(self, toy_context, encoder):
        pt = encoder.encode([1.0], level_count=2)
        assert pt.poly.level_count == 2

    def test_scale_recorded(self, encoder):
        pt = encoder.encode([1.0], scale=2.0**20)
        assert pt.scale == 2.0**20


class TestRange:
    """A coefficient at or past q/2 would wrap mod q and decode as another
    number; encode refuses it (and non-finite values) instead."""

    def test_huge_value_refused(self, encoder):
        # 1e300 * 2^28 used to wrap and decode as -1.76e18
        with pytest.raises(ValueError, match="budget"):
            encoder.encode([1e300])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_refused(self, encoder, bad):
        # used to fail inside numpy: "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="magnitude nan"):
            encoder.encode([1.0, bad])

    def test_budget_is_the_encode_basis(self, toy_context, encoder):
        # a constant encodes as the constant polynomial: coeff 0 = v * scale
        half_q1 = toy_context.basis_at_level(1).product / 2
        fits = 0.9 * half_q1 / toy_context.params.scale
        wraps = 1.1 * half_q1 / toy_context.params.scale
        out = encoder.decode(encoder.encode(fits, level_count=1))
        assert np.allclose(out.real, fits, rtol=1e-6)
        with pytest.raises(ValueError, match="1-prime"):
            encoder.encode(wraps, level_count=1)
        # the key basis adds the special prime, so the same value fits there
        encoder.encode(wraps, level_count=1, extended=True)
        encoder.encode(wraps, level_count=2)


class TestHomomorphicStructure:
    """Encoding is approximately additive and slot-wise multiplicative."""

    def test_additivity(self, toy_context, encoder):
        a = np.array([1.0, 2.0, -0.5])
        b = np.array([0.25, -1.0, 4.0])
        pa, pb = encoder.encode(a), encoder.encode(b)
        summed = pa.poly.add(pb.poly)
        from repro.ckks.poly import Plaintext

        out = encoder.decode(Plaintext(summed, pa.scale))
        assert np.allclose(out[:3].real, a + b, atol=1e-3)

    def test_slotwise_product_via_ring_product(self, toy_context, encoder):
        a = np.array([1.5, -2.0, 0.5])
        b = np.array([2.0, 0.5, -3.0])
        pa, pb = encoder.encode(a), encoder.encode(b)
        prod = pa.poly.dyadic_multiply(pb.poly)
        from repro.ckks.poly import Plaintext

        out = encoder.decode(Plaintext(prod, pa.scale * pb.scale))
        assert np.allclose(out[:3].real, a * b, atol=1e-2)

    def test_conjugate_symmetry_gives_real_coeffs(self, toy_context, encoder):
        """Real inputs must encode to (near-)real polynomial coefficients
        before rounding -- the embedding preserves conjugate symmetry."""
        vals = np.array([3.0, -1.0, 0.25])
        raw = encoder._values_to_coeffs(
            np.concatenate([vals, np.zeros(encoder.slot_count - 3)])
        )
        assert np.all(np.isfinite(raw))
        # reconstruct slots and compare
        back = encoder._coeffs_to_values(raw)
        assert np.allclose(back[:3], vals, atol=1e-9)
