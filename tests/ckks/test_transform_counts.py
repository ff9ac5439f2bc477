"""Transform-count accounting for the hoisted key-switching fast path.

The acceptance contract of the hoisting work (ISSUE 4): a hoisted
matvec performs the Algorithm-7 fan-out -- ``O(L·(L+1))`` NTT rows --
**once**, while the pre-hoisting path pays it per rotation; since
ISSUE 18 (``Evaluator.linear_sweep``) it also pays the Modulus Switch
once, so its budget no longer depends on the matrix dimension; since
ISSUE 19 (data stays, keys stream) neither does the number of product
and gather *calls* it makes, nor the rows it copies.  The
:class:`repro.ckks.backend.CountingBackend` makes the row budgets exact,
closed-form quantities and a spy over the primitives the call budget;
these tests assert them to the row and to the call.

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

    ev.rotate_hoisted(ct, steps, gk)  # first use stacks the keys under σ⁻¹
    be.reset()
    ev.rotate_hoisted(ct, steps, gk)
    # fan-out once (L INTT + L^2 NTT), Modulus Switch per rotation
    assert be.counts["ntt_inverse"] == L + 2 * R
    assert be.counts["ntt_forward"] == L * L + 2 * L * R
    # no digit is permuted (since PR 19 the keys are, once): per rotation
    # its two accumulators under each of the L+1 extended moduli, plus
    # the L rows of c0
    assert be.counts["ntt_permute"] == R * (2 * (L + 1) + L)

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


class _CallSpy:
    """Counts calls of the product and gather primitives, and the rows
    that pass through the copying handle primitives, on one backend."""

    COPIES = ("native_stack", "from_rows", "select_rows")

    def __init__(self, backend, monkeypatch):
        self.calls = {"dyadic_stack_reduce": 0, "permute_ntt_stack": 0}
        self.copied_rows = 0
        for name in self.calls:
            monkeypatch.setattr(backend, name, self._counting(getattr(backend, name)))
        for name in self.COPIES:
            monkeypatch.setattr(backend, name, self._weighing(getattr(backend, name)))

    def _counting(self, kernel):
        def spy(*args):
            self.calls[kernel.__name__] += 1
            return kernel(*args)

        return spy

    def _weighing(self, kernel):
        def spy(*args):
            out = kernel(*args)
            self.copied_rows += len(out)
            return out

        return spy


def test_linear_sweep_call_budget_is_independent_of_the_dimension(counted, monkeypatch):
    """Data stays, keys stream: at level ``L`` a whole sweep is one key
    MAC and two plaintext dots per extended modulus plus the two dots
    that never leave ``Q`` -- ``3(L+1) + 2L`` ``dyadic_stack_reduce``
    calls -- and one gather per extended modulus plus ``c0``'s per data
    prime -- ``2L + 1`` ``permute_ntt_stack`` calls -- whatever the
    number of rotations; the rows it copies through ``native_stack`` /
    ``from_rows`` / ``select_rows`` do not grow with it either, and a
    second run of the same plan builds neither a key operand nor a
    plaintext operand."""
    from repro.plan import PlanExecutor, compile_plan, matvec_graph

    be, ctx, ct = counted["backend"], counted["ctx"], counted["ct"]
    L = K
    seen = {}
    for dim in (DIM, 2 * DIM):
        keys = counted["keygen"].galois_keys(range(1, dim))
        matrix = np.random.default_rng(dim).uniform(0.1, 1.0, (dim, dim))
        plan = compile_plan(matvec_graph(matrix)[0], ctx)
        ex = PlanExecutor(ctx, galois_keys=keys)
        ex.run(plan, {"x": ct})  # first use builds both operands
        (key_operand,) = keys._stacked.values()
        (plain_operand,) = ex._sweep_cache.values()
        (sweep,) = (n for n in plan.nodes.values() if n.op == "linear_sweep")
        assert len(sweep.terms) == dim

        with monkeypatch.context() as patch:
            spy = _CallSpy(be, patch)
            be.reset()
            # only the sweep: its rescale is the next plan step
            terms = ex._operand_plain(plan, sweep, ct)
            ex.evaluator.linear_sweep(ct, terms, keys)
        assert terms is plain_operand
        assert spy.calls["dyadic_stack_reduce"] == 3 * (L + 1) + 2 * L
        assert spy.calls["permute_ntt_stack"] == 2 * L + 1
        assert be.counts["ntt_forward"] + be.counts["ntt_inverse"] == (
            L * L + 3 * L + 2  # the fan-out and one Modulus Switch of two
        )
        seen[dim] = spy.copied_rows

        be.reset()
        ex.run(plan, {"x": ct})
        assert be.transform_rows == L * L + 5 * L + 2  # nothing encoded again
        # cache hits: still the one entry each, the same objects
        (key_after,) = keys._stacked.values()
        (plain_after,) = ex._sweep_cache.values()
        assert key_after is key_operand and plain_after is plain_operand
    # what is left is the operand's own 2L rows, the decomposition's
    # L² + L(L+1), the Modulus Switch's 2(L+1) + 2L and the 2L result rows
    # that never left Q: no accumulator, no plaintext, no digit
    assert seen[DIM] == seen[2 * DIM] == 2 * L * L + 9 * L + 2


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
