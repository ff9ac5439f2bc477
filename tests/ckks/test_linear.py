"""Tests for the encrypted linear-algebra layer: the plan fragments of
``repro.plan.lower`` run end to end on live ciphertexts (the polynomial
fragment's are in ``tests/plan/test_lower.py``)."""

import numpy as np
import pytest

from repro.plan import PlanExecutor, PlanGraph, compile_plan
from repro.plan.lower import (
    dot_plain,
    matvec_graph,
    reduction_steps,
    rotate_and_sum,
)
from repro.system.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def reduction_keys(keygen, toy_context):
    slots = toy_context.n // 2
    steps = set(reduction_steps(slots)) | set(range(1, 9))
    return keygen.galois_keys(sorted(steps))


def encrypt_vec(encoder, encryptor, vals, **kw):
    return encryptor.encrypt(encoder.encode(vals, **kw))


def run_fragment(context, galois_keys, build, *cts):
    """Type one input per ciphertext from its level and scale, splice the
    fragment ``build(graph, inputs) -> node``, compile and execute."""
    graph = PlanGraph()
    inputs = [
        graph.input(f"x{i}", level_count=ct.level_count, scale=ct.scale)
        for i, ct in enumerate(cts)
    ]
    graph.output(build(graph, inputs), "y")
    plan = compile_plan(graph, context)
    run = PlanExecutor(context, galois_keys=galois_keys).run(
        plan, {f"x{i}": ct for i, ct in enumerate(cts)}
    )
    return run.outputs["y"]


def decode(encoder, decryptor, ct):
    return encoder.decode(decryptor.decrypt(ct)).real


class TestReductionSteps:
    def test_powers_of_two(self):
        assert reduction_steps(8) == [1, 2, 4]
        assert reduction_steps(1) == []
        assert reduction_steps(2) == [1]


class TestRotateAndSum:
    def test_sums_all_slots(
        self, toy_context, encoder, encryptor, decryptor, reduction_keys
    ):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-1, 1, encoder.slot_count)
        ct = encrypt_vec(encoder, encryptor, vals)
        out = run_fragment(
            toy_context,
            reduction_keys,
            lambda g, xs: rotate_and_sum(g, xs[0], encoder.slot_count),
            ct,
        )
        dec = decode(encoder, decryptor, out)
        assert np.allclose(dec[0], vals.sum(), atol=0.05)

    def test_rejects_non_power_width(self):
        graph = PlanGraph()
        with pytest.raises(ValueError, match="power of two"):
            rotate_and_sum(graph, graph.input("x"), 3)


class TestDotPlain:
    def test_matches_numpy(
        self, toy_context, encoder, encryptor, decryptor, reduction_keys
    ):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 8)
        w = rng.uniform(-1, 1, 8)
        ct = encrypt_vec(encoder, encryptor, x)
        out = run_fragment(
            toy_context, reduction_keys, lambda g, xs: dot_plain(g, xs[0], w), ct
        )
        assert np.isclose(decode(encoder, decryptor, out)[0], w @ x, atol=0.02)

    def test_non_power_of_two_width_padded(
        self, toy_context, encoder, encryptor, decryptor, reduction_keys
    ):
        x = np.array([1.0, 2.0, 3.0])
        w = np.array([0.5, -1.0, 2.0])
        ct = encrypt_vec(encoder, encryptor, x)
        out = run_fragment(
            toy_context, reduction_keys, lambda g, xs: dot_plain(g, xs[0], w), ct
        )
        assert np.isclose(decode(encoder, decryptor, out)[0], w @ x, atol=0.02)


def matvec(context, galois_keys, matrix, ct):
    def build(graph, xs):
        return matvec_graph(matrix, graph=graph, input_node=xs[0])[1]

    return run_fragment(context, galois_keys, build, ct)


class TestMatvecDiagonal:
    def test_matches_numpy(
        self, toy_context, encoder, encryptor, decryptor, reduction_keys
    ):
        rng = np.random.default_rng(2)
        dim = 8
        m = rng.uniform(-1, 1, (dim, dim))
        x = rng.uniform(-1, 1, dim)
        # pack x cyclically so rotations wrap within the dim window:
        # replicate x across the first 2*dim slots
        slots = encoder.slot_count
        packed = np.zeros(slots)
        packed[:dim] = x
        packed[dim : 2 * dim] = x  # wrap margin for rotations < dim
        ct = encrypt_vec(encoder, encryptor, packed)
        out = matvec(toy_context, reduction_keys, m, ct)
        dec = decode(encoder, decryptor, out)[:dim]
        assert np.allclose(dec, m @ x, atol=0.05)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            matvec_graph(np.zeros((2, 3)))

    def test_identity_matrix(
        self, toy_context, encoder, encryptor, decryptor, reduction_keys
    ):
        dim = 4
        x = np.array([1.0, -2.0, 0.5, 3.0])
        slots = encoder.slot_count
        packed = np.zeros(slots)
        packed[:dim] = x
        packed[dim : 2 * dim] = x
        ct = encrypt_vec(encoder, encryptor, packed)
        out = matvec(toy_context, reduction_keys, np.eye(dim), ct)
        dec = decode(encoder, decryptor, out)[:dim]
        assert np.allclose(dec, x, atol=0.02)


def fragment_primitives(plan):
    """The accelerator primitives of a compiled plan, a ``linear_sweep``
    node counted term by term (one rotation per nonzero step, one
    plaintext product per term, one add per term after the first)."""
    ops = plan.op_counts()
    sweeps = [n.terms for n in plan.nodes.values() if n.op == "linear_sweep"]
    return {
        "keyswitch": ops.get("rotate", 0)
        + sum(step != 0 for terms in sweeps for step, _ in terms),
        "cp_mult": ops.get("mul_plain", 0) + sum(map(len, sweeps)),
        "rescale": ops.get("rescale", 0),
        "add": ops.get("add", 0) + sum(len(terms) - 1 for terms in sweeps),
    }


def compiled(context, build):
    graph = PlanGraph()
    graph.output(build(graph, graph.input("x")), "y")
    return compile_plan(graph, context)


class TestOpCounts:
    """The workload costing (``WorkloadGenerator``) prices exactly the
    primitives of the compiled fragment it names."""

    DIMS = (1, 3, 8, 16)

    def test_dot_plain_counts(self, toy_context):
        for d in self.DIMS:
            plan = compiled(toy_context, lambda g, x: dot_plain(g, x, [0.5] * d))
            expected = WorkloadGenerator.dot_product(d).counts
            got = fragment_primitives(plan)
            assert got == {p: expected[p] for p in got}, d
            assert expected["cc_mult"] == 0

    def test_matvec_counts(self, toy_context):
        rng = np.random.default_rng(8)
        for d in self.DIMS:
            dense = rng.uniform(0.1, 1.0, (d, d))  # every diagonal nonzero
            plan = compiled(
                toy_context,
                lambda g, x: matvec_graph(dense, graph=g, input_node=x)[1],
            )
            expected = WorkloadGenerator.matvec(d).counts
            got = fragment_primitives(plan)
            assert got == {p: expected[p] for p in got}, d
            assert expected["cc_mult"] == 0
