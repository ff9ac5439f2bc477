"""CiphertextBatch lanes: container semantics and edge cases.

The numeric lane-width equivalence lives in the differential harness
(``test_differential.py``); this module pins down the lane *container*
contract: homogeneity validation (ragged / mixed-level / empty inputs
raise cleanly), split/join round-trips, the degenerate lane of one, and
the shape discipline of the one evaluator over lanes.
"""

from __future__ import annotations

import pytest

from repro.ckks.backend import CountingBackend, available_backends
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.poly import Ciphertext


@pytest.fixture(scope="module")
def env():
    ctx = CkksContext(toy_parameters(n=64, k=3, prime_bits=30))
    keygen = KeyGenerator(ctx, seed=31)
    return {
        "ctx": ctx,
        "keygen": keygen,
        "encryptor": Encryptor(ctx, keygen.public_key(), seed=32),
        "encoder": CkksEncoder(ctx),
        "evaluator": Evaluator(ctx),
        "decryptor": Decryptor(ctx, keygen.secret_key),
    }


def fresh_cts(env, count, value=1.5):
    enc = env["encoder"]
    return [
        env["encryptor"].encrypt(enc.encode(value + b)) for b in range(count)
    ]


# ---------------------------------------------------------------------------
# join/split and homogeneity validation
# ---------------------------------------------------------------------------
class TestContainer:
    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="zero ciphertexts"):
            CiphertextBatch.from_ciphertexts([])

    def test_join_split_round_trip(self, env):
        cts = fresh_cts(env, 4)
        batch = CiphertextBatch.join(cts)
        assert len(batch) == 4
        assert batch.size == 2
        assert batch.level_count == 3
        out = batch.split()
        for a, b in zip(cts, out):
            assert [p.residues for p in a.polys] == [p.residues for p in b.polys]
            assert a.scale == b.scale
            assert b.is_ntt

    def test_split_join_round_trip_after_ops(self, env):
        """join(split(batch)) preserves rows even when the lane matrices
        are backend-native arrays (post-operation state)."""
        ev = env["evaluator"]
        batch = ev.add(
            CiphertextBatch.join(fresh_cts(env, 3)),
            CiphertextBatch.join(fresh_cts(env, 3)),
        )
        rejoined = CiphertextBatch.join(batch.split())
        assert [
            [p.residues for p in ct.polys] for ct in rejoined.split()
        ] == [[p.residues for p in ct.polys] for ct in batch.split()]

    def test_join_hands_back_the_lane_its_split_came_from(self, env):
        """``split`` stamps provenance, ``join`` recognizes exactly
        ``lane.split()`` in order -- so a chain of lane ops copies no row
        between steps -- and anything else copies, to the same bits."""
        ev = env["evaluator"]
        lane = ev.negate(CiphertextBatch.join(fresh_cts(env, 3)))
        other = ev.negate(CiphertextBatch.join(fresh_cts(env, 3)))
        parts = lane.split()
        assert CiphertextBatch.join(parts) is lane
        assert CiphertextBatch.join(lane.split()) is lane  # any split of it

        def rows(batch):
            return [[p.residues for p in ct.polys] for ct in batch.split()]

        copies = {
            "reordered": [parts[1], parts[0], parts[2]],
            "partial": parts[:2],
            "repeated": [parts[0], parts[0], parts[2]],
            "mixed-lane": [parts[0], other.split()[1], parts[2]],
            "cloned": [parts[0], parts[1].clone(), parts[2]],
        }
        for name, cts in copies.items():
            joined = CiphertextBatch.join(cts)
            assert joined is not lane and joined is not other, name
            assert rows(joined) == [
                [p.residues for p in ct.polys] for ct in cts
            ], name
        # provenance does not outlive the element's metadata: a member
        # whose scale was edited goes through the checked path again
        parts[1].scale *= 2
        with pytest.raises(ValueError, match="share scale"):
            CiphertextBatch.join(parts)

    def test_batch_of_one(self, env):
        cts = fresh_cts(env, 1)
        batch = CiphertextBatch.join(cts)
        assert len(batch) == 1
        out = batch.split()
        assert [p.residues for p in out[0].polys] == [
            p.residues for p in cts[0].polys
        ]

    def test_ragged_sizes_raise(self, env):
        ct2, other = fresh_cts(env, 2)
        ct3 = env["evaluator"].multiply(ct2, other)  # size 3
        with pytest.raises(ValueError, match="ragged batch.*size"):
            CiphertextBatch.join([ct2, ct3])

    def test_mixed_level_raises(self, env):
        ct, other = fresh_cts(env, 2)
        ev = env["evaluator"]
        dropped = ev.rescale(
            ev.relinearize(ev.multiply(ct, other), env["keygen"].relin_key())
        )  # size 2 again, but one level fewer
        dropped.scale = ct.scale  # isolate the basis check from the scale one
        fresh = fresh_cts(env, 1)[0]
        with pytest.raises(ValueError, match="mixed-level"):
            CiphertextBatch.join([fresh, dropped])

    def test_ragged_ring_degree_raises(self, env):
        small_ctx = CkksContext(toy_parameters(n=32, k=3, prime_bits=30))
        small_ct = Encryptor(
            small_ctx, KeyGenerator(small_ctx, seed=41).public_key(), seed=42
        ).encrypt(CkksEncoder(small_ctx).encode(1.0))
        with pytest.raises(ValueError, match="ring degree"):
            CiphertextBatch.join([fresh_cts(env, 1)[0], small_ct])

    def test_mismatched_scale_raises(self, env):
        a = fresh_cts(env, 1)[0]
        b = fresh_cts(env, 1)[0]
        b.scale = a.scale * 2
        with pytest.raises(ValueError, match="share scale"):
            CiphertextBatch.join([a, b])

    def test_mixed_ntt_form_raises(self, env):
        a, b = fresh_cts(env, 2)
        coeff = Ciphertext(
            [env["ctx"].from_ntt(p) for p in b.polys], b.scale
        )
        with pytest.raises(ValueError, match="NTT form"):
            CiphertextBatch.join([a, coeff])


# ---------------------------------------------------------------------------
# evaluator shape discipline
# ---------------------------------------------------------------------------
class TestEvaluatorDiscipline:
    def test_batch_count_mismatch_raises(self, env):
        ev = env["evaluator"]
        with pytest.raises(ValueError, match="batch size mismatch"):
            ev.add(
                CiphertextBatch.join(fresh_cts(env, 2)),
                CiphertextBatch.join(fresh_cts(env, 3)),
            )

    def test_level_mismatch_raises(self, env):
        ev = env["evaluator"]
        batch = CiphertextBatch.join(fresh_cts(env, 2))
        dropped = ev.rescale(ev.multiply(batch, batch))
        dropped.scale = batch.scale  # isolate the level check from the scale one
        with pytest.raises(ValueError, match="level mismatch"):
            ev.add(CiphertextBatch.join(fresh_cts(env, 2)), dropped)

    def test_basis_value_mismatch_raises(self, env):
        """Same level count but different primes must raise, as the
        scalar RnsPolynomial._check_compatible does."""
        other_ctx = CkksContext(toy_parameters(n=64, k=3, prime_bits=29))
        other_ct = Encryptor(
            other_ctx, KeyGenerator(other_ctx, seed=51).public_key(), seed=52
        ).encrypt(CkksEncoder(other_ctx).encode(1.0, scale=2.0**28))
        other = CiphertextBatch.join([other_ct, other_ct.clone()])
        other.scale = env["ctx"].params.scale  # isolate the basis check
        with pytest.raises(ValueError, match="basis mismatch"):
            env["evaluator"].add(
                CiphertextBatch.join(fresh_cts(env, 2)), other
            )

    def test_plaintext_ntt_form_mismatch_raises(self, env):
        coeff_pt = env["encoder"].encode(1.0, to_ntt=False)
        batch = CiphertextBatch.join(fresh_cts(env, 2))
        coeff_pt.scale = batch.scale
        with pytest.raises(ValueError, match="NTT-form mismatch"):
            env["evaluator"].add_plain(batch, coeff_pt)

    def test_relinearize_requires_size_three(self, env):
        ev = env["evaluator"]
        batch = CiphertextBatch.join(fresh_cts(env, 2))
        with pytest.raises(ValueError, match="size-3"):
            ev.relinearize(batch, env["keygen"].relin_key())

    def test_rotate_requires_size_two(self, env):
        ev = env["evaluator"]
        batch = CiphertextBatch.join(fresh_cts(env, 2))
        prod = ev.multiply(batch, batch)
        with pytest.raises(ValueError, match="relinearize"):
            ev.rotate(prod, 1, env["keygen"].galois_keys([1]))

    def test_rescale_at_last_level_raises(self, env):
        ev = env["evaluator"]
        batch = CiphertextBatch.join(fresh_cts(env, 2))
        for _ in range(env["ctx"].k - 1):
            batch = ev.rescale(batch)
        with pytest.raises(ValueError, match="last level"):
            ev.rescale(batch)

    def test_multiply_produces_size_three(self, env):
        ev = env["evaluator"]
        batch = CiphertextBatch.join(fresh_cts(env, 2))
        prod = ev.multiply(batch, batch)
        assert prod.size == 3
        assert prod.scale == batch.scale * batch.scale

    def test_add_mixed_sizes(self, env):
        """Size-3 + size-2 keeps the extra component, as in Evaluator."""
        ev = env["evaluator"]
        batch = CiphertextBatch.join(fresh_cts(env, 2))
        prod = ev.multiply(batch, batch)
        prod.scale = batch.scale  # align for the addition-scale check
        out = ev.add(prod, batch)
        assert out.size == 3

    def test_batched_decrypt_matches_scalar(self, env):
        """The strided element views of a computed lane decrypt exactly
        like the same op run per ciphertext (one ``decrypt``: the
        decryptor's)."""
        ev, dec = env["evaluator"], env["decryptor"]
        cts = fresh_cts(env, 3)
        lane = ev.negate(CiphertextBatch.join(cts))
        batched = [dec.decrypt(ct) for ct in lane.split()]
        scalar = [dec.decrypt(ev.negate(ct)) for ct in cts]
        assert [p.poly.residues for p in batched] == [
            p.poly.residues for p in scalar
        ]

    def test_batched_encrypt_matches_scalar_order(self, env):
        """Joining keeps encryption order: element b of the lane is the
        b-th ciphertext the sampler produced."""
        enc = env["encoder"]
        pts = [enc.encode(float(b)) for b in range(3)]
        pk = env["keygen"].public_key()
        e1 = Encryptor(env["ctx"], pk, seed=71)
        e2 = Encryptor(env["ctx"], pk, seed=71)
        batch = CiphertextBatch.join([e1.encrypt(pt) for pt in pts])
        scalar = [e2.encrypt(pt) for pt in pts]
        assert [
            [p.residues for p in ct.polys] for ct in batch.split()
        ] == [[p.residues for p in ct.polys] for ct in scalar]

    def test_plain_ciphertext_is_the_lane_of_one(self, env):
        """A Ciphertext and the one-element batch holding it are the
        same operand: same bits out, each in its own kind, and the two
        mix in one call."""
        ev = env["evaluator"]
        ct, other = fresh_cts(env, 2)
        lane = CiphertextBatch.join([ct])
        as_ct = ev.add(ct, other)
        as_lane = ev.add(lane, other)
        assert isinstance(as_ct, Ciphertext)
        assert isinstance(as_lane, CiphertextBatch) and len(as_lane) == 1
        assert [p.residues for p in as_lane.split()[0].polys] == [
            p.residues for p in as_ct.polys
        ]

    def test_width_mismatch_with_plain_ciphertext_raises(self, env):
        ct = fresh_cts(env, 1)[0]
        with pytest.raises(ValueError, match="batch size mismatch"):
            env["evaluator"].add(CiphertextBatch.join(fresh_cts(env, 2)), ct)


class TestLaneOfOneResidency:
    """Join and split of one ciphertext cost no lift and no re-stack."""

    @pytest.mark.parametrize(
        "backend_name",
        [
            pytest.param(
                name,
                marks=pytest.mark.skipif(
                    name not in available_backends(),
                    reason=f"{name} unavailable",
                ),
            )
            for name in ("reference", "numpy")
        ],
    )
    def test_width_one_ops_stay_resident(self, backend_name):
        be = CountingBackend(backend_name)
        ctx = CkksContext(toy_parameters(n=64, k=3, prime_bits=30), backend=be)
        keygen = KeyGenerator(ctx, seed=31)
        encoder = CkksEncoder(ctx)
        ct = Encryptor(ctx, keygen.public_key(), seed=32).encrypt(
            encoder.encode(1.5)
        )
        pt = encoder.encode(0.5)
        galois = keygen.galois_keys([1])
        ev = Evaluator(ctx)
        ops = {
            "add": lambda x: ev.add(x, x),
            "multiply_plain": lambda x: ev.multiply_plain(x, pt),
            "rescale": ev.rescale,
            "rotate": lambda x: ev.rotate(x, 1, galois),
        }
        for op in ops.values():  # warm key / table caches
            op(ct)
        for name, op in ops.items():
            for operand in (ct, CiphertextBatch.join([ct])):
                be.reset()
                out = op(operand)
                assert be.conversion_rows == 0, (name, dict(be.counts))
                for element in (
                    out.split() if isinstance(out, CiphertextBatch) else [out]
                ):
                    for poly in element.polys:
                        # already the backend's native matrix: lifting
                        # it again is the identity
                        assert be.inner.from_rows(poly.rows) is poly.rows, name

    def test_join_and_split_of_one_share_storage(self):
        ctx = CkksContext(toy_parameters(n=64, k=3, prime_bits=30))
        ct = Encryptor(
            ctx, KeyGenerator(ctx, seed=31).public_key(), seed=32
        ).encrypt(CkksEncoder(ctx).encode(1.5))
        lane = CiphertextBatch.join([ct])
        assert all(c is p.rows for c, p in zip(lane.comps, ct.polys))


class TestStackedKernelContract:
    """Shared backend contract details surfaced by the lane layout."""

    def test_stack_length_mismatch_raises_on_every_backend(self, env):
        from repro.ckks.backend import available_backends, create_backend

        m = env["ctx"].data_basis.moduli[0]
        a = [[1] * 64 for _ in range(3)]
        b = [[2] * 64 for _ in range(2)]
        one = [[3] * 64]  # a 1-row *stack* must not silently broadcast
        for name in available_backends():
            be = create_backend(name)
            with pytest.raises(ValueError):
                be.add_stack(m, a, b)
            with pytest.raises(ValueError):
                be.add_stack(m, a, one)
            with pytest.raises(ValueError):
                be.dyadic_mul_stack(m, a, one)
            with pytest.raises(ValueError):
                be.dyadic_mac_stack(m, a, b, [5] * 64)

    @pytest.mark.parametrize("bits", [30, 50], ids=["30bit", "50bit"])
    def test_stack_reduce_shares_key_rows_across_a_digit_block(self, bits):
        """``dyadic_stack_reduce`` over a digit-major ``(L*c, n)`` stack
        returns ``c`` rows, row ``b`` being the reduction of element
        ``b``'s own ``L`` digits -- identical on every backend (the numpy
        kernel sums whole products lazily where they fit a word)."""
        import random

        from repro.ckks.backend import available_backends, create_backend
        from repro.ckks.backend.base import canonical_stack

        ctx = CkksContext(toy_parameters(n=64, k=3, prime_bits=bits))
        m = ctx.data_basis.moduli[0]
        rng = random.Random(5)
        digits, count = 3, 4
        x = [[rng.randrange(m.value) for _ in range(64)] for _ in range(digits * count)]
        # full-range key rows exercise the lazy sum's worst case
        y = [[m.value - 1] * 64] + [
            [rng.randrange(m.value) for _ in range(64)] for _ in range(digits - 1)
        ]
        x[0] = [m.value - 1] * 64
        want = [
            [
                sum(x[i * count + b][c] * y[i][c] for i in range(digits)) % m.value
                for c in range(64)
            ]
            for b in range(count)
        ]
        for name in available_backends():
            be = create_backend(name)
            got = be.dyadic_stack_reduce(m, be.native_stack(x), be.native_stack(y))
            assert canonical_stack(got) == want, name
            one = be.dyadic_stack_reduce(m, x[::count], y)  # c = 1: one row out
            assert canonical_stack(one) == want[:1], name
            with pytest.raises(ValueError):
                be.dyadic_stack_reduce(m, x[:-1], y)

    def test_galois_map_is_mutation_safe(self, env):
        """The public accessor must hand out a copy, not the cache."""
        ctx = env["ctx"]
        elt = ctx.galois_element_for_step(1)
        m = ctx.galois_map(elt)
        m[0] = (m[0][0], not m[0][1])
        assert ctx.galois_map(elt)[0] != m[0]


class TestBatchScaleHardening:
    """Lanes share the hardened scale discipline."""

    def test_join_rejects_zero_scale_pair(self, env):
        a, b = fresh_cts(env, 2)
        a.scale = 0.0
        b.scale = 0.0
        # both zero: the old relative-tolerance test passed this pair
        with pytest.raises(ValueError, match="scale"):
            CiphertextBatch.join([a, b])

    def test_join_rejects_zero_scale_first_element(self, env):
        (a,) = fresh_cts(env, 1)
        a.scale = 0.0
        with pytest.raises(ValueError, match="non-positive"):
            CiphertextBatch.join([a])

    def test_join_rejects_negative_scale(self, env):
        a, b = fresh_cts(env, 2)
        b.scale = -b.scale
        with pytest.raises(ValueError, match="scale"):
            CiphertextBatch.join([a, b])

    def test_batch_add_rejects_zero_scale(self, env):
        ev = env["evaluator"]
        b0 = CiphertextBatch.join(fresh_cts(env, 2))
        b1 = CiphertextBatch.join(fresh_cts(env, 2))
        b1.scale = 0.0
        with pytest.raises(ValueError, match="non-positive scale"):
            ev.add(b0, b1)
