"""Hoisted rotations and the NTT-domain key-switching fast path.

Covers the contracts the fast path rests on:

* the NTT-domain Galois automorphism is bit-identical to the
  coefficient-domain round trip, on both backends;
* ``keyswitch_polynomial`` (the decomposition, then the one-key sweep
  under the identity) is bit-identical to the historical single-loop
  key switch, and one decomposition can be switched again;
* ``rotate_hoisted`` is bit-identical to the scalar ``rotate`` path
  (which is its one-element sweep) on both backends, across
  edge cases: step 0, conjugation, the last level, repeated steps;
* the pre-hoisting baseline (``rotate_unhoisted``, coefficient-domain
  automorphism + per-digit loop) decrypts to the same rotation -- it
  uses the ``[0, p)`` gadget representative where hoisting uses the
  centered one, so equality is at the decryption level, not the bit
  level.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks.backend import available_backends, use_backend
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator

from oracles import apply_galois

from differential import (
    keyswitch_polynomial_unhoisted,
    matvec_planned,
    matvec_unhoisted,
    rotate_unhoisted,
)

BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            name not in available_backends(), reason=f"{name} unavailable"
        ),
    )
    for name in ("reference", "numpy")
]

STEPS = [1, 2, 5]


def _stack(backend_name, n=64, k=3, seed=99):
    with use_backend(backend_name):
        ctx = CkksContext(toy_parameters(n=n, k=k, prime_bits=30))
        keygen = KeyGenerator(ctx, seed=seed)
        encryptor = Encryptor(ctx, keygen.public_key(), seed=seed + 1)
        return {
            "ctx": ctx,
            "keygen": keygen,
            "encryptor": encryptor,
            "encoder": CkksEncoder(ctx),
            "decryptor": Decryptor(ctx, keygen.secret_key),
            "evaluator": Evaluator(ctx),
            "galois": keygen.galois_keys([0] + STEPS, conjugation=True),
        }


def rows(ct):
    return [p.residues for p in ct.polys]


@pytest.fixture(scope="module", params=BACKENDS)
def stack(request):
    s = _stack(request.param)
    s["backend"] = request.param
    return s


@pytest.fixture(scope="module")
def ct(stack):
    vals = np.arange(32) * 0.05 - 0.8
    with use_backend(stack["backend"]):
        return stack["encryptor"].encrypt(stack["encoder"].encode(vals))


class TestNttDomainGalois:
    def test_matches_coefficient_domain_round_trip(self, stack, ct):
        ctx = stack["ctx"]
        with use_backend(stack["backend"]):
            for elt in [ctx.galois_element_for_step(s) for s in STEPS] + [
                ctx.conjugation_element
            ]:
                fast = ctx.apply_galois_ntt(ct.polys[1], elt)
                slow = ctx.to_ntt(
                    apply_galois(ctx, ctx.from_ntt(ct.polys[1]), elt)
                )
                assert fast == slow

    def test_identity_element(self, stack, ct):
        with use_backend(stack["backend"]):
            assert stack["ctx"].apply_galois_ntt(ct.polys[0], 1) == ct.polys[0]

    def test_rejects_coefficient_form(self, stack, ct):
        ctx = stack["ctx"]
        with use_backend(stack["backend"]):
            coeff = ctx.from_ntt(ct.polys[0])
            with pytest.raises(ValueError, match="NTT-form"):
                ctx.apply_galois_ntt(coeff, 3)

    def test_rejects_even_element(self, stack):
        with pytest.raises(ValueError, match="odd"):
            stack["ctx"].galois_table_ntt(4)


class TestTwoPhaseKeySwitch:
    def test_matches_unhoisted_loop(self, stack, ct):
        """keyswitch_polynomial == the historical (i, j) double loop, bitwise."""
        ev = stack["evaluator"]
        with use_backend(stack["backend"]):
            relin = stack["keygen"].relin_key()
            prod = ev.multiply(ct, ct)
            fast = ev.keyswitch_polynomial(prod.polys[2], relin)
            slow = keyswitch_polynomial_unhoisted(ev, prod.polys[2], relin)
        assert fast[0] == slow[0] and fast[1] == slow[1]

    def test_digits_are_reusable(self, stack, ct):
        """One decomposition switched twice gives identical results."""
        ev = stack["evaluator"]
        with use_backend(stack["backend"]):
            be = stack["ctx"].backend
            relin = stack["keygen"].relin_key()
            digits = ev._decompose(ev._lane(ev.multiply(ct, ct)), 2)
            key = relin.stacked(digits.ext_moduli, be)

            def switched():
                ((f0, f1),) = ev._keyswitch(digits, key)
                return be.to_rows(f0), be.to_rows(f1)

            a, b = switched(), switched()
        assert a == b

    def test_decompose_rejects_coefficient_form(self, stack, ct):
        with use_backend(stack["backend"]):
            coeff = stack["ctx"].from_ntt(ct.polys[1])
            with pytest.raises(ValueError, match="NTT-form"):
                stack["evaluator"].keyswitch_polynomial(
                    coeff, stack["keygen"].relin_key()
                )

    def test_stacked_key_columns_are_cached(self, stack):
        """The key is stacked once per backend representation; a second
        request reads the same rows."""
        with use_backend(stack["backend"]):
            ctx = stack["ctx"]
            relin = stack["keygen"].relin_key()
            be = ctx.backend
            ext = list(ctx.key_basis.moduli)
            first = relin.stacked(ext, be)
            again = relin.stacked(ext, be)
        assert len(relin._stacked) == 1
        for a, b in zip(first, again):
            if hasattr(a, "dtype"):
                assert np.shares_memory(a, b) and a.shape == b.shape
            else:
                assert all(x is y for x, y in zip(a, b)) and len(a) == len(b)

    def test_stacked_key_columns_reject_bad_level(self, stack):
        with use_backend(stack["backend"]):
            ctx = stack["ctx"]
            relin = stack["keygen"].relin_key()
            too_deep = list(ctx.key_basis.moduli) + [ctx.special_modulus]
            with pytest.raises(ValueError, match="digits"):
                relin.stacked(too_deep, ctx.backend)


class TestHoistedRotation:
    def test_bit_identical_to_scalar_rotate(self, stack, ct):
        ev, gk = stack["evaluator"], stack["galois"]
        with use_backend(stack["backend"]):
            hoisted = ev.rotate_hoisted(ct, STEPS, gk)
            scalar = [ev.rotate(ct, s, gk) for s in STEPS]
        for h, s in zip(hoisted, scalar):
            assert rows(h) == rows(s)
            assert h.scale == s.scale

    def test_step_zero(self, stack, ct):
        ev, gk = stack["evaluator"], stack["galois"]
        with use_backend(stack["backend"]):
            hoisted = ev.rotate_hoisted(ct, [0], gk)[0]
            scalar = ev.rotate(ct, 0, gk)
        assert rows(hoisted) == rows(scalar)

    def test_conjugation_hoisted(self, stack, ct):
        ev, gk, ctx = stack["evaluator"], stack["galois"], stack["ctx"]
        with use_backend(stack["backend"]):
            hoisted = ev.apply_galois_hoisted(
                ct, [ctx.conjugation_element], gk
            )[0]
            scalar = ev.conjugate(ct, gk)
        assert rows(hoisted) == rows(scalar)

    def test_last_level(self, stack, ct):
        """Hoisting at level 1: a single gadget digit, empty fan-out rows."""
        ev, gk = stack["evaluator"], stack["galois"]
        with use_backend(stack["backend"]):
            low = ev.rescale(ev.rescale(ct))
            assert low.level_count == 1
            hoisted = ev.rotate_hoisted(low, STEPS, gk)
            scalar = [ev.rotate(low, s, gk) for s in STEPS]
        for h, s in zip(hoisted, scalar):
            assert rows(h) == rows(s)

    def test_repeated_steps_share_results(self, stack, ct):
        ev, gk = stack["evaluator"], stack["galois"]
        with use_backend(stack["backend"]):
            twice = ev.rotate_hoisted(ct, [2, 2], gk)
        assert rows(twice[0]) == rows(twice[1])

    def test_requires_size_two(self, stack, ct):
        ev, gk = stack["evaluator"], stack["galois"]
        with use_backend(stack["backend"]):
            prod = ev.multiply(ct, ct)
            with pytest.raises(ValueError, match="relinearize"):
                ev.rotate_hoisted(prod, [1], gk)

    def test_decrypts_to_the_rotation(self, stack, ct):
        ev, gk = stack["evaluator"], stack["galois"]
        enc, dec = stack["encoder"], stack["decryptor"]
        vals = np.arange(32) * 0.05 - 0.8
        with use_backend(stack["backend"]):
            for step, rot in zip(STEPS, ev.rotate_hoisted(ct, STEPS, gk)):
                out = enc.decode(dec.decrypt(rot)).real
                np.testing.assert_allclose(
                    out, np.roll(vals, -step), atol=1e-2
                )

    def test_unhoisted_baseline_same_rotation(self, stack, ct):
        """The legacy path uses the other gadget representative: equal as
        a rotation (decryption), intentionally not bit-equal."""
        ev, gk = stack["evaluator"], stack["galois"]
        enc, dec = stack["encoder"], stack["decryptor"]
        with use_backend(stack["backend"]):
            a = enc.decode(dec.decrypt(ev.rotate(ct, 2, gk)))
            b = enc.decode(dec.decrypt(rotate_unhoisted(ev, ct, 2, gk)))
        np.testing.assert_allclose(a, b, atol=1e-2)


class TestCrossBackend:
    @pytest.mark.skipif(
        "numpy" not in available_backends(), reason="numpy unavailable"
    )
    def test_hoisted_rotation_identical_across_backends(self):
        vals = np.arange(32) * 0.05 - 0.8
        traces = {}
        for name in ("reference", "numpy"):
            s = _stack(name)
            with use_backend(name):
                c = s["encryptor"].encrypt(s["encoder"].encode(vals))
                traces[name] = [
                    rows(r)
                    for r in s["evaluator"].rotate_hoisted(
                        c, STEPS + [0], s["galois"]
                    )
                ]
        assert traces["reference"] == traces["numpy"]


class TestHoistedMatvec:
    def _matrix(self, dim, zero_diags=(3, 7)):
        rng = np.random.default_rng(11)
        m = rng.uniform(-1, 1, (dim, dim))
        i = np.arange(dim)
        for d in zero_diags:
            m[i, (i + d) % dim] = 0.0
        return m

    def test_matches_plain_matvec(self, stack):
        dim = 32
        with use_backend(stack["backend"]):
            enc = stack["encoder"]
            gk = stack["keygen"].galois_keys(range(1, dim))
            x = np.linspace(-1, 1, dim)
            m = self._matrix(dim)
            ct = stack["encryptor"].encrypt(enc.encode(x))
            y = matvec_planned(stack["ctx"], m, ct, gk)
            out = enc.decode(stack["decryptor"].decrypt(y))[:dim].real
        np.testing.assert_allclose(out, m @ x, atol=2e-2)
        assert y.level_count == ct.level_count - 1

    def test_hoisted_equals_unhoisted_numerically(self, stack):
        dim = 32
        with use_backend(stack["backend"]):
            enc = stack["encoder"]
            gk = stack["keygen"].galois_keys(range(1, dim))
            x = np.linspace(-0.9, 0.7, dim)
            m = self._matrix(dim)
            ct = stack["encryptor"].encrypt(enc.encode(x))
            a = enc.decode(
                stack["decryptor"].decrypt(matvec_planned(stack["ctx"], m, ct, gk))
            )[:dim].real
            b = enc.decode(
                stack["decryptor"].decrypt(
                    matvec_unhoisted(stack["ctx"], m, ct, gk)
                )
            )[:dim].real
        np.testing.assert_allclose(a, b, atol=1e-2)
        np.testing.assert_allclose(a, m @ x, atol=2e-2)

    def test_zero_matrix_burns_level_and_scale(self, stack):
        dim = 8
        with use_backend(stack["backend"]):
            enc = stack["encoder"]
            gk = stack["keygen"].galois_keys(range(1, dim))
            x = np.linspace(-1, 1, dim)
            ct = stack["encryptor"].encrypt(enc.encode(x))
            y = matvec_planned(stack["ctx"], np.zeros((dim, dim)), ct, gk)
            out = enc.decode(stack["decryptor"].decrypt(y))[:dim].real
        assert y.level_count == ct.level_count - 1
        np.testing.assert_allclose(out, np.zeros(dim), atol=1e-2)

    def test_zero_diagonals_need_no_keys(self, stack):
        """Skipped diagonals never request their rotation keys."""
        dim = 8
        with use_backend(stack["backend"]):
            enc = stack["encoder"]
            # diagonal pattern: only d = 0 and d = 2 nonzero
            m = np.zeros((dim, dim))
            i = np.arange(dim)
            m[i, i] = 1.0
            m[i, (i + 2) % dim] = 0.5
            gk = stack["keygen"].galois_keys([2])  # step 2 only
            x = np.linspace(-1, 1, dim)
            ct = stack["encryptor"].encrypt(enc.encode(x))
            y = matvec_planned(stack["ctx"], m, ct, gk)  # must not KeyError
            out = enc.decode(stack["decryptor"].decrypt(y))[:dim].real
        # dim < slot_count: rotations shift over the full slot vector, so
        # the d = 2 diagonal pulls x zero-padded, not wrapped
        expected = x + 0.5 * np.concatenate([x[2:], [0.0, 0.0]])
        np.testing.assert_allclose(out, expected, atol=2e-2)
