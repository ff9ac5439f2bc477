"""KeySwitch / relinearization tests (Algorithm 7) and key generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks.backend import CountingBackend, available_backends, use_backend
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.sampling import Sampler

from differential import keyswitch_polynomial_unhoisted

VALS_A = np.array([1.0, -2.0, 0.5, 3.0])
VALS_B = np.array([0.25, 4.0, -1.5, 2.0])


def enc(encoder, encryptor, vals, **kw):
    return encryptor.encrypt(encoder.encode(vals, **kw))


def dec(encoder, decryptor, ct, n=4):
    return encoder.decode(decryptor.decrypt(ct))[:n]


class TestKeyGeneration:
    def test_secret_key_is_ternary(self, toy_context, keygen):
        s = toy_context.from_ntt(keygen.secret_key.poly)
        from repro.ckks.rns import RnsBasis

        basis = RnsBasis(s.moduli)
        for v in basis.compose_centered_rows(s.rows):
            assert v in (-1, 0, 1)

    def test_public_key_decrypts_to_noise(self, toy_context, keygen):
        """pk = SymEnc(0, s): b + a*s must be small (just the error)."""
        pk = keygen.public_key()
        s = keygen.secret_key.restricted(pk.b.moduli)
        acc = pk.b.add(pk.a.dyadic_multiply(s))
        coeff = toy_context.from_ntt(acc)
        from repro.ckks.rns import RnsBasis

        basis = RnsBasis(coeff.moduli)
        for v in basis.compose_centered_rows(coeff.rows):
            assert abs(v) < 64  # 6-sigma truncated gaussian

    def test_relin_key_digit_count(self, toy_context, relin_key):
        assert relin_key.digit_count == toy_context.k

    def test_relin_key_rows_over_key_basis(self, toy_context, relin_key):
        d0, d1 = relin_key.digit(0)
        assert d0.level_count == toy_context.k + 1
        assert d1.level_count == toy_context.k + 1

    def test_galois_key_set_membership(self, toy_context, galois_keys):
        elt = toy_context.galois_element_for_step(1)
        assert elt in galois_keys
        assert toy_context.conjugation_element in galois_keys
        with pytest.raises(KeyError):
            galois_keys.key_for_element(9999)


class TestRelinearize:
    def test_relinearized_product_decrypts(
        self, encoder, encryptor, decryptor, evaluator, relin_key
    ):
        prod = evaluator.multiply(
            enc(encoder, encryptor, VALS_A), enc(encoder, encryptor, VALS_B)
        )
        rel = evaluator.relinearize(prod, relin_key)
        assert rel.size == 2
        assert np.allclose(dec(encoder, decryptor, rel), VALS_A * VALS_B, atol=1e-2)

    def test_relinearize_preserves_scale(
        self, encoder, encryptor, evaluator, relin_key
    ):
        prod = evaluator.multiply(
            enc(encoder, encryptor, VALS_A), enc(encoder, encryptor, VALS_B)
        )
        rel = evaluator.relinearize(prod, relin_key)
        assert rel.scale == prod.scale

    def test_relinearize_requires_size3(
        self, encoder, encryptor, evaluator, relin_key
    ):
        ct = enc(encoder, encryptor, VALS_A)
        with pytest.raises(ValueError):
            evaluator.relinearize(ct, relin_key)

    def test_multiply_relin_fused(
        self, encoder, encryptor, decryptor, evaluator, relin_key
    ):
        out = evaluator.multiply_relin(
            enc(encoder, encryptor, VALS_A),
            enc(encoder, encryptor, VALS_B),
            relin_key,
        )
        assert out.size == 2
        assert np.allclose(dec(encoder, decryptor, out), VALS_A * VALS_B, atol=1e-2)

    def test_relinearize_at_lower_level(
        self, encoder, encryptor, decryptor, evaluator, relin_key
    ):
        """Keys generated at top level must work after rescaling."""
        a = enc(encoder, encryptor, VALS_A)
        b = enc(encoder, encryptor, VALS_B)
        ab = evaluator.rescale(evaluator.relinearize(evaluator.multiply(a, b), relin_key))
        # second product at level 2
        sq = evaluator.relinearize(evaluator.multiply(ab, ab), relin_key)
        assert sq.level_count == 2
        expected = (VALS_A * VALS_B) ** 2
        assert np.allclose(dec(encoder, decryptor, sq), expected, atol=0.1)


class TestKeySwitchCore:
    def test_keyswitch_requires_ntt_form(self, toy_context, evaluator, relin_key):
        from repro.ckks.poly import RnsPolynomial

        coeff = RnsPolynomial.from_int_coeffs(
            [1] * toy_context.n, toy_context.data_basis.moduli
        )
        with pytest.raises(ValueError):
            evaluator.keyswitch_polynomial(coeff, relin_key)

    def test_keyswitch_output_basis(self, toy_context, evaluator, relin_key):
        target = Sampler(5).uniform_residues(
            toy_context.n, toy_context.data_basis.moduli
        )
        f0, f1 = evaluator.keyswitch_polynomial(target, relin_key)
        assert f0.level_count == toy_context.k
        assert f1.level_count == toy_context.k
        assert f0.is_ntt and f1.is_ntt

    def test_keyswitch_semantics(self, toy_context, keygen, evaluator, relin_key):
        """f0 + f1*s ~ target * s^2: the defining key-switch identity."""
        ctx = toy_context
        target = Sampler(6).uniform_residues(ctx.n, ctx.data_basis.moduli)
        f0, f1 = evaluator.keyswitch_polynomial(target, relin_key)
        s = keygen.secret_key.restricted(ctx.data_basis.moduli)
        s2 = s.dyadic_multiply(s)
        lhs = f0.add(f1.dyadic_multiply(s))
        rhs = target.dyadic_multiply(s2)
        err = ctx.from_ntt(lhs.sub(rhs))
        from repro.ckks.rns import RnsBasis

        basis = RnsBasis(err.moduli)
        max_err = max(abs(v) for v in basis.compose_centered_rows(err.rows))
        # noise ~ n * p_i * e / P plus flooring error: comfortably below
        # a few thousand for the toy parameters, astronomically below q.
        assert max_err < basis.product // 2**40


def _owned_words(stacks):
    """Words of key material behind the given cached stacks: words a view
    shares with another stack (or, on the list backend, a row object
    already seen) count once."""
    seen, words, spans = set(), 0, []
    for stack in stacks:
        if hasattr(stack, "dtype"):
            spans.append((stack.ctypes.data, stack.ctypes.data + stack.nbytes))
            continue
        for row in stack:
            if id(row) not in seen:
                seen.add(id(row))
                words += len(row)
    end = 0
    for lo, hi in sorted(spans):  # the union of the contiguous stacks' bytes
        words += max(0, hi - max(lo, end)) // 8
        end = max(end, hi)
    return words


def _is_prefix_of(part, whole):
    if hasattr(whole, "dtype"):
        return np.shares_memory(part, whole) and (part == whole[: len(part)]).all()
    return len(part) <= len(whole) and all(a is b for a, b in zip(part, whole))


class TestOneStackedCopyPerKey:
    """A key is stacked once, over its full basis; digit-major puts the
    digits a lower level drops *last*, so every level is a prefix view
    and the cached bytes do not grow with the number of levels used."""

    @staticmethod
    def _levels(ctx):
        return [
            list(ctx.basis_at_level(level).moduli) + [ctx.special_modulus]
            for level in range(ctx.k, 0, -1)
        ]

    def test_relin_levels_share_the_top_level_stack(self, toy_context, relin_key):
        be = toy_context.backend
        top, *lower = self._levels(toy_context)
        full = relin_key.stacked(top, be)
        cached = lambda: [s for stacks in relin_key._stacked.values() for s in stacks]
        words = _owned_words(cached())
        assert words == 2 * toy_context.k * (toy_context.k + 1) * toy_context.n
        for ext in lower:
            stacks = relin_key.stacked(ext, be)
            assert len(stacks) == len(ext)
            for j, stack in enumerate(stacks):
                # data prime j is key modulus j; the special prime is last
                whole = full[j if j < len(ext) - 1 else -1]
                assert len(stack) == (len(ext) - 1) * 2
                assert _is_prefix_of(stack, whole)
        assert len(relin_key._stacked) == 1
        assert _owned_words(cached()) == words

    def test_relin_operand_rows_are_the_key_as_it_is(self, toy_context, relin_key):
        """Row ``i·2 + c`` = digit ``i``, column ``c``: the ``R = 1``
        layout of a sweep's operand, under the identity."""
        be = toy_context.backend
        ext = self._levels(toy_context)[0]
        for j, stack in enumerate(relin_key.stacked(ext, be)):
            rows = be.to_rows(stack)
            for i in range(toy_context.k):
                for c in (0, 1):
                    assert rows[i * 2 + c] == relin_key.digit(i)[c].residues[j]

    def test_galois_levels_share_the_top_level_operand(self, toy_context, galois_keys):
        ctx = toy_context
        elts = [ctx.galois_element_for_step(s) for s in (1, 2)] + [
            ctx.conjugation_element
        ]
        top, *lower = self._levels(ctx)
        tables, full = galois_keys.stacked(elts, top, ctx)
        assert tables.shape == (2 * len(elts) + 1, ctx.n)
        cached = lambda: [s for _, cols in galois_keys._stacked.values() for s in cols]
        words = _owned_words(cached())
        assert words == len(elts) * 2 * ctx.k * (ctx.k + 1) * ctx.n
        for ext in lower:
            again, cols = galois_keys.stacked(elts, ext, ctx)
            assert again is tables and len(cols) == len(ext)
            for j, stack in enumerate(cols):
                whole = full[j if j < len(ext) - 1 else -1]
                assert len(stack) == (len(ext) - 1) * 2 * len(elts)
                assert _is_prefix_of(stack, whole)
        assert len(galois_keys._stacked) == 1
        assert _owned_words(cached()) == words

    def test_galois_operand_rows_are_the_keys_under_the_inverse_automorphism(
        self, toy_context, galois_keys
    ):
        """Row ``i·2R + c·R + d`` = digit ``i``, column ``c`` of rotation
        ``d``'s key under ``σ_d⁻¹``; the last table row is the identity."""
        ctx = toy_context
        be = ctx.backend
        elts = [ctx.galois_element_for_step(s) for s in (3, 1)]
        ext = self._levels(ctx)[0]
        tables, cols = galois_keys.stacked(elts, ext, ctx)
        assert tables[-1].tolist() == list(range(ctx.n))
        for d, elt in enumerate(elts):
            assert tables[d].tolist() == tables[len(elts) + d].tolist()
            assert tables[d].tolist() == ctx.galois_map_ntt(elt)
            key = galois_keys.key_for_element(elt)
            for j in range(len(ext)):
                rows = be.to_rows(cols[j])
                for i in range(ctx.k):
                    for c in (0, 1):
                        row = rows[i * 2 * len(elts) + c * len(elts) + d]
                        # undo σ⁻¹ by applying σ: the key polynomial's own row
                        moved = [row[s] for s in ctx.galois_map_ntt(elt)]
                        assert moved == key.digit(i)[c].residues[j]

    def test_stacked_operands_are_evicted_within_the_row_budget(self, toy_context, keygen):
        """Twice the set's polynomial rows: every key alone *and* one
        sweep over all of them fit; a further tuple evicts the oldest."""
        ctx = toy_context
        keys = keygen.galois_keys([1, 2, 3])
        elts = sorted(keys.elements())
        ext = self._levels(ctx)[0]
        for elt in elts:
            keys.stacked([elt], ext, ctx)
        keys.stacked(elts, ext, ctx)
        assert len(keys._stacked) == len(elts) + 1
        keys.stacked(elts[:2], ext, ctx)
        assert len(keys._stacked) == len(elts)  # the two oldest singles went
        assert (ctx.backend.cache_token, (elts[0],)) not in keys._stacked
        assert (ctx.backend.cache_token, tuple(elts)) in keys._stacked


# ---------------------------------------------------------------------------
# One key switch: a relinearization is the one-key sweep under the identity
# ---------------------------------------------------------------------------
BACKENDS = [name for name in ("reference", "numpy") if name in available_backends()]
LANE_K = 3
LANE_STEPS = [1, 2, 3, 5, 7]
_KEYED = {}


def _keyed(name):
    """One keyed toy context per backend, shared by every drawn example."""
    if name not in _KEYED:
        with use_backend(name):
            ctx = CkksContext(toy_parameters(n=64, k=LANE_K, prime_bits=30))
            keygen = KeyGenerator(ctx, seed=2828)
            _KEYED[name] = {
                "ctx": ctx,
                "encoder": CkksEncoder(ctx),
                "encryptor": Encryptor(ctx, keygen.public_key(), seed=2829),
                "evaluator": Evaluator(ctx),
                "relin": keygen.relin_key(),
                "galois": keygen.galois_keys(LANE_STEPS),
            }
    return _KEYED[name]


def _rows(ct):
    return [p.residues for p in ct.polys]


def _split(out):
    return out.split() if isinstance(out, CiphertextBatch) else [out]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_lane_element_switches_as_it_would_alone(data):
    """Lane widths 1-9 cross ``_rotation_macs``' ``N`` vs ``2R`` branch
    for relinearize (``R = 1`` under the identity) and for sweeps of
    ``R`` in {2, 3}, at every level: each element is bit-identical to
    the textbook key switch / to ``rotate`` run on it alone."""
    name = data.draw(st.sampled_from(BACKENDS))
    keyed = _keyed(name)
    ctx, ev = keyed["ctx"], keyed["evaluator"]
    level = data.draw(st.integers(min_value=1, max_value=LANE_K))
    width = data.draw(st.integers(min_value=1, max_value=9))
    rotations = data.draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 1 << 16)))
    with use_backend(name):
        cts = [
            keyed["encryptor"].encrypt(
                keyed["encoder"].encode(list(rng.uniform(-1, 1, 32)), level_count=level)
            )
            for _ in range(width)
        ]
        lane = cts[0] if width == 1 else CiphertextBatch.join(cts)
        if rotations == 1:
            got = ev.relinearize(ev.multiply(lane, lane), keyed["relin"])
            for b, ct in enumerate(_split(got)):
                prod = ev.multiply(cts[b], cts[b])
                fs = keyswitch_polynomial_unhoisted(ev, prod.polys[2], keyed["relin"])
                assert _rows(ct) == [
                    prod.polys[c].add(fs[c], backend=ctx.backend).residues
                    for c in (0, 1)
                ]
            return
        steps = data.draw(
            st.lists(
                st.sampled_from(LANE_STEPS),
                min_size=rotations,
                max_size=rotations,
                unique=True,
            )
        )
        swept = ev.rotate_hoisted(lane, steps, keyed["galois"])
        for step, out in zip(steps, swept):
            for b, ct in enumerate(_split(out)):
                assert _rows(ct) == _rows(ev.rotate(cts[b], step, keyed["galois"]))


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize(
    "width, dyadic_mul, dyadic_mac, ntt_forward, ntt_inverse",
    # the rows of the two-column MAC and Modulus Switch relinearize ran
    # before it became the one-key sweep: 2(L+1)N, 2(L+1)(L-1)N,
    # (L² + 2L)N and (L + 2)N at L = 3
    [(1, 8, 16, 15, 5), (2, 16, 32, 30, 10), (8, 64, 128, 120, 40)],
)
def test_relinearize_rows_are_the_two_column_ones(
    name, width, dyadic_mul, dyadic_mac, ntt_forward, ntt_inverse
):
    """The identity sweep gathers nothing and multiplies the rows the
    two-column MAC did, whichever side of the MAC is the block."""
    be = CountingBackend(name)
    ctx = CkksContext(toy_parameters(n=64, k=LANE_K, prime_bits=30), backend=be)
    keygen = KeyGenerator(ctx, seed=31)
    encryptor, encoder = Encryptor(ctx, keygen.public_key(), seed=32), CkksEncoder(ctx)
    ev, relin = Evaluator(ctx), keygen.relin_key()
    cts = [encryptor.encrypt(encoder.encode([0.5] * 32)) for _ in range(width)]
    lane = cts[0] if width == 1 else CiphertextBatch.join(cts)
    prod = ev.multiply(lane, lane)
    be.reset()
    ev.relinearize(prod, relin)
    counted = ("dyadic_mul", "dyadic_mac", "ntt_forward", "ntt_inverse", "ntt_permute")
    assert [be.counts[k] for k in counted] == [
        dyadic_mul, dyadic_mac, ntt_forward, ntt_inverse, 0
    ]
