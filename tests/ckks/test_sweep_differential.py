"""Data-stationary rotations against the digit-permuting oracle.

Since PR 19 the evaluator never permutes a decomposed digit: the Galois
keys are stacked under ``σ_g⁻¹`` once (``GaloisKeySet.stacked``), a
sweep's ``R`` rotations are one key MAC per modulus against the one
unpermuted digit stack, and the accumulators are gathered afterwards --
``Σ_i σ(D_i)⊙K_i = σ(Σ_i D_i⊙σ⁻¹(K_i))`` slot for slot.  Only the order
of a slot-wise product and a slot permutation changed, so every result
must equal, residue for residue, the dataflow that computes the left
side as written (``tests/ckks/differential.py``): for ``rotate`` /
``rotate_hoisted`` / ``conjugate`` / ``linear_sweep``, at every level,
for lanes of one and of three, on both backends.

The kernel contract the new dataflow leans on is pinned here too:
``permute_ntt_stack`` with an ``(R', n)`` matrix of gather tables.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks.backend import available_backends, create_backend, use_backend
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator

from differential import apply_galois_digit_permuting, linear_sweep_digit_permuting

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
SLOTS = N // 2
STEPS = list(range(1, 9)) + [SLOTS - 1]

_STACKS = {}


def _build(backend_name):
    with use_backend(backend_name):
        ctx = CkksContext(toy_parameters(n=N, k=K, prime_bits=30))
        keygen = KeyGenerator(ctx, seed=1919)
        return {
            "backend": backend_name,
            "ctx": ctx,
            "encoder": CkksEncoder(ctx),
            "encryptor": Encryptor(ctx, keygen.public_key(), seed=1920),
            "evaluator": Evaluator(ctx),
            "galois": keygen.galois_keys(STEPS, conjugation=True),
        }


def _stack(backend_name):
    """One keyed context per backend, shared by the seeded and the
    Hypothesis tests (Hypothesis draws inside one test invocation)."""
    if backend_name not in _STACKS:
        _STACKS[backend_name] = _build(backend_name)
    return _STACKS[backend_name]


@pytest.fixture(scope="module", params=BACKENDS)
def stack(request):
    return _stack(request.param)


def rows(ct):
    return [p.residues for p in ct.polys]


def _operand(stack, level, width, seed):
    """A fresh ciphertext (``width`` 1) or lane at ``level``."""
    ev, rng = stack["evaluator"], np.random.default_rng(seed)
    cts = []
    for _ in range(width):
        ct = stack["encryptor"].encrypt(
            stack["encoder"].encode(list(rng.uniform(-1, 1, SLOTS)))
        )
        while ct.level_count > level:
            ct = ev.rescale(ct)
        cts.append(ct)
    return cts[0] if width == 1 else CiphertextBatch.join(cts)


def _split(out):
    return out.split() if isinstance(out, CiphertextBatch) else [out]


def _terms(stack, steps, level, seed):
    rng = np.random.default_rng(seed)
    return [
        (
            step,
            stack["encoder"].encode(
                list(rng.uniform(-1, 1, SLOTS)), level_count=level, extended=True
            ),
        )
        for step in steps
    ]


def _assert_rotations(stack, operand, steps, conjugation):
    ctx, ev, gk = stack["ctx"], stack["evaluator"], stack["galois"]
    elts = [ctx.galois_element_for_step(s) for s in steps]
    want = apply_galois_digit_permuting(ev, operand, elts, gk)
    got = ev.rotate_hoisted(operand, steps, gk)
    for g, w in zip(got, want):
        assert [rows(c) for c in _split(g)] == [rows(c) for c in _split(w)]
    # one rotation is the one-element sweep: another operand, same bits
    alone = ev.rotate(operand, steps[0], gk)
    assert [rows(c) for c in _split(alone)] == [rows(c) for c in _split(want[0])]
    if conjugation:
        (want_conj,) = apply_galois_digit_permuting(
            ev, operand, [ctx.conjugation_element], gk
        )
        got_conj = ev.conjugate(operand, gk)
        assert [rows(c) for c in _split(got_conj)] == [
            rows(c) for c in _split(want_conj)
        ]


def _assert_sweep(stack, operand, steps, seed):
    ev, gk = stack["evaluator"], stack["galois"]
    level = _split(operand)[0].level_count
    terms = _terms(stack, steps, level, seed)
    got = ev.linear_sweep(operand, terms, gk)
    want = linear_sweep_digit_permuting(ev, operand, terms, gk)
    assert [rows(c) for c in _split(got)] == [rows(c) for c in _split(want)]
    assert _split(got)[0].scale == _split(want)[0].scale


@pytest.mark.parametrize("width", [1, 3], ids=lambda w: f"lane{w}")
@pytest.mark.parametrize("level", range(1, K + 1), ids=lambda l: f"L{l}")
class TestSeeded:
    def test_rotations_and_conjugation(self, stack, level, width):
        rng = random.Random(100 * level + width)
        with use_backend(stack["backend"]):
            operand = _operand(stack, level, width, seed=level + width)
            for size in (1, 2, 5):
                _assert_rotations(
                    stack, operand, rng.sample(STEPS, size), conjugation=size == 1
                )
            # a repeated step is two rows of the operand, not an error
            _assert_rotations(stack, operand, [2, 7, 2], conjugation=False)

    def test_linear_sweeps(self, stack, level, width):
        rng = random.Random(200 * level + width)
        with use_backend(stack["backend"]):
            operand = _operand(stack, level, width, seed=10 + level + width)
            for steps in (
                [0] + rng.sample(STEPS, 3),  # the matvec shape
                rng.sample(STEPS, 4),  # no unrotated term
                [rng.choice(STEPS)],  # R = 1
                [0, 3, 0, SLOTS + 3],  # two unrotated terms, one key twice
            ):
                _assert_sweep(stack, operand, steps, seed=rng.randrange(1 << 16))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_sweeps_match_the_digit_permuting_oracle(data):
    """Random step sets x level x lane width x backend, both composites."""
    name = data.draw(st.sampled_from([p.values[0] for p in BACKENDS]))
    if name not in available_backends():
        return
    stack = _stack(name)
    level = data.draw(st.integers(min_value=1, max_value=K))
    width = data.draw(st.sampled_from([1, 3]))
    steps = data.draw(
        st.lists(st.sampled_from(STEPS), min_size=1, max_size=6, unique=True)
    )
    with_zero = data.draw(st.booleans())
    seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    with use_backend(name):
        operand = _operand(stack, level, width, seed)
        _assert_rotations(stack, operand, steps, conjugation=True)
        _assert_sweep(stack, operand, ([0] if with_zero else []) + steps, seed)


def test_numpy_equals_reference_through_the_new_dataflow():
    if "numpy" not in available_backends():
        pytest.skip("numpy unavailable")
    traces = {}
    for name in ("reference", "numpy"):
        stack = _build(name)  # fresh samplers: the same ciphertexts on both
        with use_backend(name):
            operand = _operand(stack, K, 3, seed=5)
            outs = stack["evaluator"].rotate_hoisted(operand, [1, 4, 6], stack["galois"])
            sweep = stack["evaluator"].linear_sweep(
                operand, _terms(stack, [0, 2, 5], K, seed=6), stack["galois"]
            )
            traces[name] = [[rows(c) for c in _split(o)] for o in outs + [sweep]]
    assert traces["reference"] == traces["numpy"]


# ---------------------------------------------------------------------------
# the kernel: permute_ntt_stack with a matrix of gather tables
# ---------------------------------------------------------------------------
@pytest.fixture(params=BACKENDS)
def be(request):
    return create_backend(request.param)


def _matrix(rng, height, width, bound=1 << 50):
    return [[rng.randrange(bound) for _ in range(width)] for _ in range(height)]


class TestTableMatrix:
    WIDTH = 16

    def _tables(self, rng, count):
        return [rng.sample(range(self.WIDTH), self.WIDTH) for _ in range(count)]

    def test_each_row_under_its_own_table(self, be):
        rng = random.Random(1)
        stack = be.from_rows(_matrix(rng, 5, self.WIDTH))
        tables = self._tables(rng, 5)
        want = [
            be.to_rows(be.permute_ntt_stack(stack[r : r + 1], tables[r]))[0]
            for r in range(5)
        ]
        assert be.to_rows(be.permute_ntt_stack(stack, tables)) == want
        # the tables may arrive as one index matrix
        assert be.to_rows(be.permute_ntt_stack(stack, np.array(tables))) == want

    def test_one_row_stack_is_shared_by_every_table(self, be):
        rng = random.Random(2)
        stack = be.from_rows(_matrix(rng, 1, self.WIDTH))
        tables = self._tables(rng, 4)
        want = [be.to_rows(be.permute_ntt_stack(stack, t))[0] for t in tables]
        assert be.to_rows(be.permute_ntt_stack(stack, tables)) == want
        # one table, one row: both readings agree
        assert be.to_rows(be.permute_ntt_stack(stack, tables[:1])) == want[:1]

    def test_one_table_still_serves_every_row(self, be):
        rng = random.Random(3)
        stack = be.from_rows(_matrix(rng, 3, self.WIDTH))
        (table,) = self._tables(rng, 1)
        rows_ = be.to_rows(stack)
        assert be.to_rows(be.permute_ntt_stack(stack, table)) == [
            [row[s] for s in table] for row in rows_
        ]

    @pytest.mark.parametrize("height, count", [(2, 3), (3, 2), (4, 5)])
    def test_mismatched_row_counts_raise(self, be, height, count):
        rng = random.Random(4)
        stack = be.from_rows(_matrix(rng, height, self.WIDTH))
        with pytest.raises(ValueError, match="mismatch"):
            be.permute_ntt_stack(stack, self._tables(rng, count))

    def test_out_of_range_indices_behave_as_the_one_table_form(self, be):
        rng = random.Random(5)
        stack = be.from_rows(_matrix(rng, 2, self.WIDTH))
        wrapping = [[-1] + list(range(1, self.WIDTH)), list(range(self.WIDTH))]
        want = [
            be.to_rows(be.permute_ntt_stack(stack[r : r + 1], wrapping[r]))[0]
            for r in range(2)
        ]
        assert be.to_rows(be.permute_ntt_stack(stack, wrapping)) == want
        beyond = [list(range(self.WIDTH)), [self.WIDTH] + list(range(1, self.WIDTH))]
        with pytest.raises(IndexError):
            be.permute_ntt_stack(stack[1:2], beyond[1])
        with pytest.raises(IndexError):
            be.permute_ntt_stack(stack, beyond)
        with pytest.raises(IndexError):  # and under the shared row
            be.permute_ntt_stack(stack[:1], beyond)

    def test_result_owns_its_memory(self, be):
        rng = random.Random(6)
        stack = be.from_rows(_matrix(rng, 3, self.WIDTH))
        tables = np.array(self._tables(rng, 3))
        out = be.permute_ntt_stack(stack, tables)
        if hasattr(out, "dtype"):
            # its own words while it is held, whoever allocated them: no
            # operand and no later result shares them
            kept = out.copy()
            again = be.permute_ntt_stack(out, tables)
            for other in (stack, tables, again):
                assert not np.shares_memory(out, other)
            assert out.flags.c_contiguous and (out == kept).all()
