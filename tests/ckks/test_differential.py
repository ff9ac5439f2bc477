"""Randomized cross-backend differential tests (see ``differential.py``).

Each case drives one seeded random op program through reference/numpy ×
lane widths (plain ciphertexts, and CiphertextBatch lanes) of the one
evaluator and asserts bit-identical ciphertexts at every step plus a
plaintext-model decode check.
"""

from __future__ import annotations

import pytest

from repro.ckks.backend import available_backends, use_backend
from repro.ckks.batch import CiphertextBatch
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator

# tests/ are not a package; pytest puts this directory on sys.path
from differential import (
    assert_differential,
    assert_plan_differential,
    generate_program,
)

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(),
    reason="differential tests compare the numpy backend against reference",
)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_random_program_all_modes_bit_identical(seed):
    program = generate_program(seed, length=6)
    assert_differential(program, base_seed=1000 + seed)


def test_longer_program_deeper_chain():
    """Depth-4 chain: room for two multiply/rescale pairs in one program."""
    program = generate_program(99, length=9, k=4)
    assert_differential(program, k=4, base_seed=77)


def test_single_element_batch_matches_scalar_path():
    """batch_count=1: a one-element CiphertextBatch and the plain
    ciphertext are the same lane of one, bit for bit."""
    program = generate_program(5, length=5)
    assert_differential(program, batch_count=1, base_seed=55)


def test_program_generator_is_deterministic_and_feasible():
    assert generate_program(7, length=8) == generate_program(7, length=8)
    program = generate_program(7, length=8, k=3)
    assert len(program) == 8
    # a generated program never rescales more often than the chain depth
    assert program.count("rescale") <= 2


def test_hoisted_rotation_program():
    """Hoisted vs plain rotations at every lane width, interleaved with
    other ops."""
    program = [
        "rotate_hoisted",
        "add",
        "rotate",
        "rotate_hoisted",
        "negate",
        "conjugate",
    ]
    assert_differential(program, base_seed=404)


def test_matvec_program_all_modes_bit_identical():
    """The hoisting showcase op under the four-way bit-identity microscope
    (zero diagonals included -- the skip path must also be bit-exact)."""
    assert_differential(["matvec", "add"], base_seed=505)


def test_matvec_after_depth_consumption():
    """matvec at a lower level (keys generated at the top level restrict)."""
    assert_differential(
        ["mul_relin", "rescale", "matvec"], k=4, base_seed=606, atol=0.1
    )


def test_hoisted_rotation_at_last_level():
    """Work down to a single RNS component (scale kept alive by C-P
    multiplies), then rotate: the hoisted decomposition degenerates to
    one digit with an empty fan-out."""
    assert_differential(
        [
            "mul_plain",
            "rescale",
            "mul_plain",
            "rescale",
            "rotate_hoisted",
            "rotate",
        ],
        base_seed=707,
        atol=0.35,  # |slots| up to ~1 per operand; three multiplies compound
    )


def test_hoisted_ops_with_single_element_batch():
    """batch-of-1: the degenerate batch through the hoisted dataflow."""
    assert_differential(
        ["rotate_hoisted", "matvec"], batch_count=1, base_seed=808
    )


def test_every_op_at_lane_widths_1_2_3_8():
    """The lane-width axis in full: every evaluator op (``rotate_hoisted``
    and ``conjugate`` included; matvec composes them per element and has
    its own cases) over 8 elements in lanes of 1, 2, 3 (ragged: 3+3+2)
    and 8, each element bit-identical to its own width-1 run on both
    backends."""
    assert_differential(
        [
            "add",
            "sub",
            "negate",
            "add_plain",
            "mul_plain",
            "rescale",
            "rotate",
            "rotate_hoisted",
            "conjugate",
            "mul_relin",
            "rescale",
        ],
        k=4,
        batch_count=8,
        widths=(1, 2, 3, 8),
        base_seed=1313,
        atol=0.35,
    )


def test_size_three_rescale_and_relinearize_at_lane_widths_1_2_3_8():
    """Three accumulators floor together: a size-3 (un-relinearized)
    product rescaled, then relinearized, in lanes of 1, 2, 3 (ragged)
    and 8 -- every element bit-identical to its own width-1 run, and the
    backends to each other.  (The harness programs only ever rescale
    size-2 ciphertexts.)"""

    def traces(backend):
        with use_backend(backend):
            ctx = CkksContext(toy_parameters(n=64, k=4, prime_bits=30))
            keygen = KeyGenerator(ctx, seed=77)
            encryptor = Encryptor(ctx, keygen.public_key(), seed=78)
            encoder = CkksEncoder(ctx)
            ev = Evaluator(ctx)
            relin = keygen.relin_key()
            cts = [encryptor.encrypt(encoder.encode(0.5 + 0.1 * b)) for b in range(8)]

            def chain(x):
                return ev.relinearize(ev.rescale(ev.multiply(x, x)), relin)

            out = {}
            for width in (0, 1, 2, 3, 8):  # 0: plain ciphertexts, no lane
                lanes = (
                    cts
                    if not width
                    else [
                        CiphertextBatch.join(cts[i : i + width])
                        for i in range(0, len(cts), width)
                    ]
                )
                done = [chain(lane) for lane in lanes]
                elements = done if not width else [ct for d in done for ct in d.split()]
                out[width] = [[p.residues for p in ct.polys] for ct in elements]
            return out

    numpy, reference = traces("numpy"), traces("reference")
    for width, got in numpy.items():
        assert got == numpy[0], f"numpy width {width}"
        assert reference[width] == numpy[0], f"reference width {width}"


def test_generator_emits_hoisted_and_matvec_ops():
    programs = [generate_program(seed, length=12, k=4) for seed in range(20)]
    flat = [op for program in programs for op in program]
    assert "rotate_hoisted" in flat
    assert "matvec" in flat


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_program_planned_bit_identical(seed):
    """Plan mode: optimized and naive plan execution reproduce the scalar
    trace bit for bit on both backends (generated programs carry their
    own rescales, so placement is also asserted to be a no-op)."""
    program = generate_program(seed, length=6)
    assert_plan_differential(program, base_seed=1000 + seed)


def test_matvec_program_planned_bit_identical():
    """The planner's headline path: the matvec sweep fuses through one
    hoisted decomposition yet must stay bit-identical to scalar rotate."""
    assert_plan_differential(["matvec", "add"], base_seed=505)


def test_rotation_program_planned_bit_identical():
    """Explicit rotations across plan waves: per-chain rotations of the
    same wave pack into one sweep per source ciphertext."""
    assert_plan_differential(
        ["rotate", "add", "rotate_hoisted", "negate"], base_seed=404
    )


def test_planned_single_element_batch():
    """batch_count=1 leaves no packing opportunity; the plan must fall
    back to scalar steps and still match."""
    assert_plan_differential(
        ["mul_plain", "rescale", "rotate"], batch_count=1, base_seed=909
    )
