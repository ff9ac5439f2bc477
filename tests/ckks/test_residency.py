"""Data-residency contract of the backend-native polynomial storage.

Three properties pin the ISSUE-5 refactor down:

1. **Zero conversions on the hot chain** -- a warmed-up
   multiply -> relinearize -> rescale -> rotate chain performs no
   lift (lists -> native) or lower (native -> lists) conversions at
   all: every operand stays resident in the backend's native matrices,
   exactly as HEAX keeps operands in on-chip memories across the
   MULT -> KeySwitch pipeline (paper Section 4, Figure 2).
2. **Representation transparency** -- forcing every intermediate back
   through canonical Python lists after each step (the seed's
   list-interchange storage) yields bit-identical ciphertexts for the
   full differential-harness op set, on both backends and in both
   scalar and batched modes.
3. **Handle API round-trips** -- ``from_rows`` / ``to_rows`` /
   ``copy_rows`` / ``pack_rows`` / ``unpack_rows`` are exact inverses
   and produce independent storage where required.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.ckks.backend import CountingBackend, available_backends, create_backend
from repro.ckks.backend.base import canonical_stack
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.poly import RnsPolynomial
from repro.ckks.primes import make_modulus_chain

from differential import generate_program, run_program

BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            name not in available_backends(), reason=f"{name} unavailable"
        ),
    )
    for name in ("reference", "numpy")
]

N, K = 64, 3


def _chain_fixture(backend):
    ctx = CkksContext(toy_parameters(n=N, k=K, prime_bits=30), backend=backend)
    keygen = KeyGenerator(ctx, seed=71)
    encryptor = Encryptor(ctx, keygen.public_key(), seed=72)
    encoder = CkksEncoder(ctx)
    ev = Evaluator(ctx)
    relin = keygen.relin_key()
    galois = keygen.galois_keys([2])
    ct0 = encryptor.encrypt(encoder.encode(np.linspace(-1, 1, N // 2)))
    ct1 = encryptor.encrypt(encoder.encode(np.linspace(1, -1, N // 2)))
    return ev, relin, galois, ct0, ct1


def _hot_chain(ev, relin, galois, ct0, ct1):
    """The residency-gate composite: MULT -> Relin -> Rescale -> Rotate."""
    prod = ev.multiply(ct0, ct1)
    ct = ev.relinearize(prod, relin)
    ct = ev.rescale(ct)
    return ev.rotate(ct, 2, galois)


class TestZeroConversionHotChain:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_hot_chain_is_fully_resident(self, backend_name):
        be = CountingBackend(backend_name)
        ev, relin, galois, ct0, ct1 = _chain_fixture(be)
        # warm run: populates the per-key stacked-column caches and the
        # Galois gather tables (one-time setup, like loading keys into
        # accelerator DRAM)
        _hot_chain(ev, relin, galois, ct0, ct1)
        be.reset()
        out = _hot_chain(ev, relin, galois, ct0, ct1)
        assert out.size == 2
        assert be.counts["lift_rows"] == 0, dict(be.counts)
        assert be.counts["lower_rows"] == 0, dict(be.counts)
        # and the chain did real work while staying resident
        assert be.transform_rows > 0

    @pytest.mark.skipif(
        "numpy" not in available_backends(), reason="numpy unavailable"
    )
    def test_list_interchange_is_counted(self):
        """The counters must actually see conversions when the canonical
        list boundary *is* crossed -- otherwise the zero assertions
        above are vacuous."""
        be = CountingBackend("numpy")
        ev, relin, galois, ct0, ct1 = _chain_fixture(be)
        _hot_chain(ev, relin, galois, ct0, ct1)
        be.reset()
        # rebuild one operand from materialized Python lists: the next
        # operation must pay (and count) the lift
        from repro.ckks.poly import Ciphertext

        listy = Ciphertext(
            [
                RnsPolynomial(p.n, p.moduli, p.residues, p.is_ntt)
                for p in ct0.polys
            ],
            ct0.scale,
        )
        ev.multiply(listy, ct1)
        assert be.counts["lift_rows"] > 0
        be.reset()
        # materializing a resident handle counts as a lower
        be.to_rows(ct1.polys[0].native_rows(be))
        assert be.counts["lower_rows"] > 0


class TestNativeVsMaterialized:
    """Resident and list-materialized execution are bit-identical for
    the full differential-harness op set (satellite: cross-backend
    property test)."""

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("mode", ["scalar", "batched"])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_rematerialized_steps_bit_identical(self, backend_name, mode, seed):
        program = generate_program(seed, length=6)
        kwargs = dict(n=N, k=K, batch_count=2, base_seed=4000 + seed)
        width = 2 if mode == "batched" else 1  # one 2-wide lane vs plain cts
        resident = run_program(program, backend_name, width, **kwargs)
        listy = run_program(
            program, backend_name, width, rematerialize=True, **kwargs
        )
        for step, (got, want) in enumerate(
            zip(listy["steps"], resident["steps"])
        ):
            assert got == want, (
                f"list-materialized {backend_name}/{mode} diverged from the "
                f"resident path at step {step} of {program}"
            )


class TestHandleRoundTrips:
    MODULI = make_modulus_chain(N, [30, 30, 29])

    def _rand_rows(self, seed):
        rng = random.Random(seed)
        return [
            [rng.randrange(m.value) for _ in range(N)] for m in self.MODULI
        ]

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_from_to_rows_round_trip(self, backend_name):
        be = create_backend(backend_name)
        rows = self._rand_rows(1)
        handle = be.from_rows(rows)
        assert be.to_rows(handle) == rows
        # idempotent: lifting a native handle is a no-op
        again = be.from_rows(handle)
        assert be.to_rows(again) == rows

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_copy_rows_is_independent(self, backend_name):
        be = create_backend(backend_name)
        handle = be.from_rows(self._rand_rows(2))
        copy = be.copy_rows(handle)
        original = be.to_rows(handle)
        be.set_row(copy, 0, [0] * N)
        assert be.to_rows(handle) == original
        assert be.to_rows(copy)[0] == [0] * N

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_pack_unpack_round_trip(self, backend_name):
        be = create_backend(backend_name)
        rows = self._rand_rows(3)
        packed = be.pack_rows(be.from_rows(rows))
        assert len(packed) == len(self.MODULI) * N * 8
        assert be.to_rows(be.unpack_rows(packed, len(self.MODULI), N)) == rows

    @pytest.mark.skipif(
        "numpy" not in available_backends(), reason="numpy unavailable"
    )
    def test_pack_bytes_identical_across_backends(self):
        rows = self._rand_rows(4)
        ref = create_backend("reference")
        fast = create_backend("numpy")
        assert ref.pack_rows(ref.from_rows(rows)) == fast.pack_rows(
            fast.from_rows(rows)
        )

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_select_and_insert_preserve_values(self, backend_name):
        be = create_backend(backend_name)
        rows = self._rand_rows(5)
        handle = be.from_rows(rows)
        sel = be.select_rows(handle, [2, 0])
        assert be.to_rows(sel) == [rows[2], rows[0]]
        ins = be.insert_row(sel, 1, be.get_row(handle, 1))
        assert be.to_rows(ins) == [rows[2], rows[1], rows[0]]

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_rows_kernels_reject_row_count_mismatch(self, backend_name):
        """No silent zip truncation: a handle with fewer rows than
        moduli raises on every backend (interchangeability contract)."""
        be = create_backend(backend_name)
        handle = be.from_rows(self._rand_rows(7))
        short = be.select_rows(handle, [0, 1])
        one = be.select_rows(handle, [0])
        with pytest.raises(ValueError):
            be.add_rows(self.MODULI, short, short)
        with pytest.raises(ValueError):
            be.dyadic_mul_rows(self.MODULI, short, short)
        with pytest.raises(ValueError):
            # a 1-row operand must not broadcast against a full handle
            be.add_rows(self.MODULI, handle, one)
        with pytest.raises(ValueError):
            be.dyadic_mac_rows(self.MODULI, handle, handle, one)
        with pytest.raises(ValueError):
            be.galois_rows(self.MODULI, short, [(i, False) for i in range(N)])

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_kernels_reject_row_width_mismatch(self, backend_name):
        """No silent zip truncation (reference) and no broadcast of a
        one-wide row across all columns (numpy): an operand whose rows
        have the wrong width raises on every backend, lists or native --
        and so does a per-row argument that comes up short in *count*
        (numpy returned uninitialised rows for missing scalars)."""
        be = create_backend(backend_name)
        rows = self._rand_rows(8)
        m = self.MODULI[0]
        scalars = [3, 5, 7]
        mapping = [(i, False) for i in range(N)]
        for lift in (be.from_rows, lambda r: [list(row) for row in r]):
            full = lift(rows)
            assert be.to_rows(be.scalar_mul_rows(self.MODULI, full, scalars)) == [
                [v * s % p.value for v in row]
                for row, s, p in zip(rows, scalars, self.MODULI)
            ]
            for count in (0, 1, 2, 4):
                with pytest.raises(ValueError):
                    be.scalar_mul_rows(self.MODULI, full, (scalars * 2)[:count])
            assert be.to_rows(be.galois_rows(self.MODULI, full, mapping)) == rows
            for width in (1, N // 2, N - 1):
                with pytest.raises(ValueError):
                    be.galois_rows(self.MODULI, full, mapping[:width])
                with pytest.raises(ValueError):
                    be.set_row(full, 0, rows[1][:width])
            with pytest.raises(ValueError):
                be.set_row(full, 0, rows[1] + [0])
            assert be.to_rows(full) == rows  # no rejected write landed
            for width in (1, N // 2):
                short = lift([row[:width] for row in rows])
                for kernel in (be.add_rows, be.sub_rows, be.dyadic_mul_rows):
                    with pytest.raises(ValueError):
                        kernel(self.MODULI, full, short)
                    with pytest.raises(ValueError):
                        kernel(self.MODULI, short, full)
                with pytest.raises(ValueError):
                    be.dyadic_mac_rows(self.MODULI, full, full, short)
                with pytest.raises(ValueError):
                    be.dyadic_mac_rows(self.MODULI, short, full, full)
                with pytest.raises(ValueError):
                    be.sub_stack(m, full, short)
                with pytest.raises(ValueError):
                    be.sub_stack(m, full, short[0])
                with pytest.raises(ValueError):
                    be.dyadic_stack_reduce(m, full, short)
                with pytest.raises(ValueError):
                    be.dyadic_stack_reduce(m, short, full)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_permute_rejects_out_of_range_table(self, backend_name):
        """The gather keeps list semantics: an index past the row raises
        ``IndexError`` whatever the rows hold, a valid table permutes."""
        be = create_backend(backend_name)
        rows = self._rand_rows(9)
        handle = be.native_stack(be.from_rows(rows))
        table = list(range(N))[::-1]
        assert canonical_stack(be.permute_ntt_stack(handle, table)) == [
            row[::-1] for row in rows
        ]
        for bad in (N, N + 7, -N - 1):
            with pytest.raises(IndexError):
                be.permute_ntt_stack(handle, table[:-1] + [bad])

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_clone_uses_native_copy(self, backend_name):
        be = create_backend(backend_name)
        poly = RnsPolynomial(N, self.MODULI, self._rand_rows(6))
        poly.native_rows(be)
        clone = poly.clone(backend=be)
        clone.set_row(0, [0] * N, backend=be)
        assert poly.component(0) != [0] * N
        if backend_name == "numpy":
            assert hasattr(clone.rows, "dtype")  # stayed native
