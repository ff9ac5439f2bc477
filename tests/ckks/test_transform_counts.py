"""Transform-count accounting for the hoisted key-switching fast path.

The acceptance contract of the hoisting work (ISSUE 4): a hoisted
matvec performs the Algorithm-7 fan-out -- ``O(L·(L+1))`` NTT rows --
**once**, while the pre-hoisting path pays it per rotation; since
ISSUE 18 (``Evaluator.linear_sweep``) it also pays the Modulus Switch
once, so its budget no longer depends on the matrix dimension.  The
:class:`repro.ckks.backend.CountingBackend` makes both budgets exact,
closed-form quantities; these tests assert them to the row.

Cost model (ring at level ``L``, all counts in *rows*):

* ``decompose``: ``L`` INTTs (one per digit) + ``L²`` forward NTTs
  (each of the ``L`` digits fans out to the ``L`` extended-basis primes
  it is not already resident in) -- total ``L·(L+1)`` transforms.
* ``apply_keyswitch``: the Modulus Switch on both output polynomials,
  ``2`` INTTs + ``2L`` forward NTTs -- the only transforms a hoisted
  rotation pays per step, and a ``linear_sweep`` per *sweep*.
* ``rotate_unhoisted``: coefficient-domain automorphism round trip
  (``2L + 2L``) + the fan-out (``L + L²``) + the Modulus Switch
  (``2 + 2L``) -- every row of it per rotation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks.backend import CountingBackend, available_backends
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.linear import LinearEvaluator

from differential import matvec_unhoisted, rotate_unhoisted

N, K = 64, 3  # L = K at the top level
DIM = 8


@pytest.fixture(
    scope="module",
    params=[
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
def counted(request):
    be = CountingBackend(request.param)
    ctx = CkksContext(toy_parameters(n=N, k=K, prime_bits=30), backend=be)
    keygen = KeyGenerator(ctx, seed=31)
    encryptor = Encryptor(ctx, keygen.public_key(), seed=32)
    lin = LinearEvaluator(ctx)
    galois = keygen.galois_keys(range(1, DIM))
    ct = encryptor.encrypt(lin.encoder.encode(np.linspace(-1, 1, 32)))
    return {
        "backend": be,
        "ctx": ctx,
        "keygen": keygen,
        "evaluator": Evaluator(ctx),
        "lin": lin,
        "galois": galois,
        "ct": ct,
    }


def test_hoisted_rotations_pay_fanout_once(counted):
    be, ev = counted["backend"], counted["evaluator"]
    ct, gk = counted["ct"], counted["galois"]
    L = K
    steps = [1, 2, 3]
    R = len(steps)

    be.reset()
    ev.rotate_hoisted(ct, steps, gk)
    # fan-out once (L INTT + L^2 NTT), Modulus Switch per rotation
    assert be.counts["ntt_inverse"] == L + 2 * R
    assert be.counts["ntt_forward"] == L * L + 2 * L * R
    # permutations per rotation: L digit-stacks of L rows for each of
    # the L+1 extended moduli is (L+1)*L, plus the L rows of c0
    assert be.counts["ntt_permute"] == R * (L * (L + 1) + L)

    be.reset()
    for s in steps:
        rotate_unhoisted(ev, ct, s, gk)
    assert be.counts["ntt_inverse"] == R * (3 * L + 2)
    assert be.counts["ntt_forward"] == R * (L * L + 4 * L)
    assert be.counts["ntt_permute"] == 0


def test_scalar_rotate_is_the_single_step_hoisted_cost(counted):
    be, ev = counted["backend"], counted["evaluator"]
    L = K
    be.reset()
    ev.rotate(counted["ct"], 1, counted["galois"])
    assert be.transform_rows == L * (L + 1) + 2 * (L + 1)


def test_hoisted_matvec_transform_budget(counted):
    """The headline accounting: the fan-out *and* the Modulus Switch
    once per matvec -- ``L² + 5L + 2`` transform rows whatever the
    matrix dimension -- not once per rotation."""
    be = counted["backend"]
    ct, gk = counted["ct"], counted["galois"]
    L = K
    budgets = {}
    for dim in (DIM, 2 * DIM):
        keys = gk if dim == DIM else counted["keygen"].galois_keys(range(1, dim))
        rng = np.random.default_rng(7)
        matrix = rng.uniform(0.1, 1.0, (dim, dim))  # every diagonal nonzero
        be.reset()
        counted["lin"].matvec_diagonal(matrix, ct, keys)
        hoisted_fwd = be.counts["ntt_forward"]
        hoisted_inv = be.counts["ntt_inverse"]
        # fan-out once + ONE Modulus Switch of the two accumulators + the
        # final rescale (2 polys, 1 INTT + L-1 NTTs); the diagonals encode
        # over the key basis (L + 1 rows each)
        assert hoisted_inv == L + 2 + 2
        assert hoisted_fwd == L * L + 2 * L + 2 * (L - 1) + dim * (L + 1)
        budgets[dim] = hoisted_fwd + hoisted_inv - dim * (L + 1)
    assert budgets[DIM] == budgets[2 * DIM] == L * L + 5 * L + 2

    R = DIM - 1
    matrix = np.random.default_rng(7).uniform(0.1, 1.0, (DIM, DIM))
    be.reset()
    matvec_unhoisted(counted["ctx"], matrix, ct, gk)
    legacy_fwd = be.counts["ntt_forward"]
    legacy_inv = be.counts["ntt_inverse"]
    assert legacy_inv == R * (3 * L + 2) + 2
    assert legacy_fwd == R * (L * L + 4 * L) + DIM * L + 2 * (L - 1)

    # the point of the exercise
    hoisted = budgets[DIM] + DIM * (L + 1)
    legacy = legacy_fwd + legacy_inv
    assert hoisted < legacy / 2


def test_counting_backend_is_transparent(counted):
    """Instrumentation must not change a single bit."""
    ev, ct, gk = counted["evaluator"], counted["ct"], counted["galois"]
    plain_ctx = CkksContext(
        toy_parameters(n=N, k=K, prime_bits=30),
        backend=counted["backend"].inner,
    )
    plain_ev = Evaluator(plain_ctx)
    a = ev.rotate(ct, 2, gk)
    b = plain_ev.rotate(ct, 2, gk)
    assert [p.residues for p in a.polys] == [p.residues for p in b.polys]
