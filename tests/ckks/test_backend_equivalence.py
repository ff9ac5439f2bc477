"""Backend equivalence: every backend must reproduce the reference bits.

The reference backend's scalar loops are the specification; the numpy
backend (and any future one) must produce *identical* rows for every
kernel.  Three layers of evidence:

1. property-style kernel tests (hypothesis-driven rows) for NTT
   round-trips and dyadic/scalar ops, in both prime regimes the numpy
   backend distinguishes (native ``p < 2^32`` multiply vs the
   float-assisted Barrett path for ``2^32 <= p < 2^52``);
2. scheme-level checks (keyswitch, rescale) on toy rings;
3. a full encrypt -> multiply -> relinearize -> decrypt pipeline at the
   paper's Set-A ring size ``n = 4096``, run once per backend with
   identical seeds, asserting bit-equal ciphertext and plaintext rows.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.backend import (
    available_backends,
    create_backend,
    default_backend_name,
    get_backend,
    set_backend,
    use_backend,
)
from repro.ckks.backend.base import PRIMITIVES
from repro.ckks.backend.reference import ReferenceBackend
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.decryptor import Decryptor
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import make_modulus_chain
from repro.ckks.sampling import Sampler

numpy_missing = "numpy" not in available_backends()
pytestmark = pytest.mark.skipif(
    numpy_missing, reason="numpy backend not available on this host"
)

N = 64

#: One modulus per numpy regime: a 30-bit prime exercises the native
#: uint64 multiply path, a 50-bit prime the float-assisted Barrett path.
SMALL_MOD = make_modulus_chain(N, [30], 54)[0]
LARGE_MOD = make_modulus_chain(N, [50], 54)[0]

REF = ReferenceBackend()


def _np():
    return create_backend("numpy")


def rows(modulus):
    return st.lists(
        st.integers(min_value=0, max_value=modulus.value - 1),
        min_size=N,
        max_size=N,
    )


# ---------------------------------------------------------------------------
# registry / selection
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_both_backends_registered(self):
        assert "reference" in available_backends()
        assert "numpy" in available_backends()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("fpga")

    def test_env_var_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert default_backend_name() == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "verilog")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            default_backend_name()
        monkeypatch.delenv("REPRO_BACKEND")
        assert default_backend_name() == "numpy"

    def test_use_backend_restores_previous(self):
        before = get_backend()
        with use_backend("reference") as be:
            assert get_backend() is be
            assert be.name == "reference"
        assert get_backend() is before

    def test_set_backend_by_name_and_instance(self):
        before = get_backend()
        try:
            assert set_backend("reference").name == "reference"
            inst = _np()
            assert set_backend(inst) is inst
            with pytest.raises(TypeError):
                set_backend(3.14)
        finally:
            set_backend(before)

    def test_context_pins_backend(self):
        ctx = CkksContext(toy_parameters(n=N, k=1), backend="reference")
        assert ctx.backend.name == "reference"
        with use_backend("numpy"):
            assert ctx.backend.name == "reference"
        ctx_follow = CkksContext(toy_parameters(n=N, k=1))
        with use_backend("reference"):
            assert ctx_follow.backend.name == "reference"

    def test_pinned_backend_reaches_every_kernel(self):
        """A context-pinned backend must carry through keygen, encryption,
        evaluation and decryption -- not just the context's own NTTs."""
        calls = set()

        def spy(name):
            def kernel(self, *args):
                calls.add(name)
                return getattr(ReferenceBackend, name)(self, *args)

            return kernel

        SpyBackend = type(
            "SpyBackend",
            (ReferenceBackend,),
            {"name": "spy", **{name: spy(name) for name in PRIMITIVES}},
        )

        with use_backend("numpy"):  # the global the pin must override
            ctx = CkksContext(
                toy_parameters(n=N, k=2, prime_bits=30), backend=SpyBackend()
            )
            keygen = KeyGenerator(ctx, seed=21)
            encryptor = Encryptor(ctx, keygen.public_key(), seed=22)
            evaluator = Evaluator(ctx)
            encoder = CkksEncoder(ctx)
            ct = encryptor.encrypt(encoder.encode([1.0, 2.0]))
            ct2 = evaluator.relinearize(
                evaluator.multiply(ct, ct), keygen.relin_key()
            )
            Decryptor(ctx, keygen.secret_key).decrypt(evaluator.rescale(ct2))
        assert {
            "decompose_native",  # encode
            "ntt_forward_rows",
            "set_row",  # keygen: P * target into row i of each digit
            "negate_rows",
            "add_rows",
            "dyadic_mul_rows",
            "dyadic_mac_rows",
            "ntt_inverse_stack",  # key switch and rescale
            "reduce_mod_stack",
            "ntt_forward_stack",
            "dyadic_stack_reduce",
            "sub_stack",
            "scalar_mul_stack",
        } <= calls


# ---------------------------------------------------------------------------
# kernel equivalence (property-style)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("modulus", [SMALL_MOD, LARGE_MOD], ids=["30bit", "50bit"])
class TestKernelEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_ntt_roundtrip_matches_reference(self, modulus, data):
        row = data.draw(rows(modulus))
        tables = NTTTables(N, modulus)
        np_be = _np()
        fwd_ref = REF.ntt_forward(tables, row)
        fwd_np = np_be.ntt_forward(tables, row)
        assert fwd_np == fwd_ref
        assert np_be.ntt_inverse(tables, fwd_np) == row
        assert REF.ntt_inverse(tables, fwd_ref) == row
        # cross-backend round trip: forward on one, inverse on the other
        assert REF.ntt_inverse(tables, fwd_np) == row
        assert np_be.ntt_inverse(tables, fwd_ref) == row

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_dyadic_ops_match_reference(self, modulus, data):
        a = data.draw(rows(modulus))
        b = data.draw(rows(modulus))
        acc = data.draw(rows(modulus))
        np_be = _np()
        assert np_be.add(modulus, a, b) == REF.add(modulus, a, b)
        assert np_be.sub(modulus, a, b) == REF.sub(modulus, a, b)
        assert np_be.negate(modulus, a) == REF.negate(modulus, a)
        assert np_be.dyadic_mul(modulus, a, b) == REF.dyadic_mul(modulus, a, b)
        assert np_be.dyadic_mac(modulus, acc, a, b) == REF.dyadic_mac(
            modulus, acc, a, b
        )

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_scalar_ops_match_reference(self, modulus, data):
        a = data.draw(rows(modulus))
        acc = data.draw(rows(modulus))
        s = data.draw(st.integers(min_value=0, max_value=modulus.value - 1))
        np_be = _np()
        assert np_be.scalar_mul(modulus, a, s) == REF.scalar_mul(modulus, a, s)
        assert np_be.scalar_mac(modulus, acc, a, s) == REF.scalar_mac(
            modulus, acc, a, s
        )

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_base_conversion_matches_reference(self, modulus, data):
        # signed, multi-word coefficients force the exact big-int fallback;
        # word-sized ones take the vector path -- both must agree
        wide = data.draw(
            st.lists(
                st.integers(min_value=-(10**30), max_value=10**30),
                min_size=N,
                max_size=N,
            )
        )
        assert _np().reduce_mod(modulus, wide) == REF.reduce_mod(modulus, wide)
        word = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2**63), min_size=N, max_size=N
            )
        )
        assert _np().reduce_mod(modulus, word) == REF.reduce_mod(modulus, word)


# ---------------------------------------------------------------------------
# scheme-level equivalence on toy rings
# ---------------------------------------------------------------------------
def _scheme_outputs(backend_name: str, n: int = N, k: int = 3):
    """Run a deterministic keygen/encrypt/evaluate trace on one backend."""
    with use_backend(backend_name):
        ctx = CkksContext(toy_parameters(n=n, k=k, prime_bits=30))
        keygen = KeyGenerator(ctx, seed=42)
        encryptor = Encryptor(ctx, keygen.public_key(), seed=43)
        evaluator = Evaluator(ctx)
        encoder = CkksEncoder(ctx)
        values = [complex(i / 7, -i / 11) for i in range(ctx.params.slot_count)]
        pt = encoder.encode(values)
        ct = encryptor.encrypt(pt)
        prod = evaluator.multiply(ct, ct)
        relin = evaluator.relinearize(prod, keygen.relin_key())
        rescaled = evaluator.rescale(relin)
        dec = Decryptor(ctx, keygen.secret_key).decrypt(rescaled)
        return {
            "ct": [p.residues for p in ct.polys],
            "relin": [p.residues for p in relin.polys],
            "rescaled": [p.residues for p in rescaled.polys],
            "plain": dec.poly.residues,
        }


def test_toy_pipeline_bit_equal_across_backends():
    ref = _scheme_outputs("reference")
    fast = _scheme_outputs("numpy")
    assert fast["ct"] == ref["ct"]
    assert fast["relin"] == ref["relin"]
    assert fast["rescaled"] == ref["rescaled"]
    assert fast["plain"] == ref["plain"]


def test_keyswitch_bit_equal_across_backends():
    def run(name):
        with use_backend(name):
            ctx = CkksContext(toy_parameters(n=N, k=3, prime_bits=30))
            keygen = KeyGenerator(ctx, seed=5)
            target = Sampler(6).uniform_residues(ctx.n, ctx.data_basis.moduli)
            f0, f1 = Evaluator(ctx).keyswitch_polynomial(target, keygen.relin_key())
            return f0.residues, f1.residues

    assert run("numpy") == run("reference")


# ---------------------------------------------------------------------------
# full pipeline at the paper's Set-A ring size
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_paper_scale_pipeline_bit_equal_at_n4096():
    """encrypt -> multiply -> relinearize -> decrypt at n = 4096.

    Same seeds, both backends, bit-identical rows end to end -- the
    acceptance gate for trusting numpy results at paper scale.
    """
    ref = _scheme_outputs("reference", n=4096, k=2)
    fast = _scheme_outputs("numpy", n=4096, k=2)
    assert fast["ct"] == ref["ct"]
    assert fast["relin"] == ref["relin"]
    assert fast["rescaled"] == ref["rescaled"]
    assert fast["plain"] == ref["plain"]


def test_random_rows_roundtrip_under_default_backend():
    """Whatever backend is active by default, NTT round-trips hold."""
    rng = random.Random(11)
    tables = NTTTables(N, SMALL_MOD)
    be = get_backend()
    for _ in range(5):
        row = [rng.randrange(SMALL_MOD.value) for _ in range(N)]
        assert be.ntt_inverse(tables, be.ntt_forward(tables, row)) == row
