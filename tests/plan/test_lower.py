"""Lowering front ends: matvec_graph and workload_graph."""

import numpy as np
import pytest

from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.serialization import serialize_ciphertext
from repro.plan.executor import PlanExecutor
from repro.plan.graph import PlanGraph
from repro.plan.lower import fresh_lane_inputs, matvec_graph, workload_graph
from repro.plan.passes import check_plan, compile_plan
from repro.system.workload import Workload, WorkloadGenerator

DIM = 8


def _packed(encoder, x):
    """Replicate x across 2*dim slots so rotations < dim wrap cleanly
    (the established matvec packing)."""
    packed = np.zeros(encoder.slot_count)
    packed[:DIM] = x
    packed[DIM : 2 * DIM] = x
    return packed


class TestMatvecGraph:
    def test_matches_numpy(
        self,
        plan_context,
        plan_encoder,
        plan_encryptor,
        plan_decryptor,
        plan_relin,
        plan_galois,
    ):
        rng = np.random.default_rng(23)
        m = rng.uniform(-1, 1, (DIM, DIM))
        x = rng.uniform(-1, 1, DIM)
        graph, _ = matvec_graph(m)
        placed = compile_plan(graph, plan_context, rescale_outputs=False)
        ct = plan_encryptor.encrypt(
            plan_encoder.encode(_packed(plan_encoder, x))
        )
        ex = PlanExecutor(plan_context, plan_relin, plan_galois)
        run = ex.run(placed, {"x": ct})
        dec = plan_encoder.decode(
            plan_decryptor.decrypt(run.outputs["y"])
        ).real[:DIM]
        np.testing.assert_allclose(dec, m @ x, atol=0.05)
        # the whole matvec is two steps: one linear_sweep (the dim-1
        # rotations share a decomposition and a Modulus Switch), one rescale
        assert [s.op for s in run.steps] == ["linear_sweep", "rescale"]
        assert run.sweeps == 1 and run.fused_rotations == DIM - 1

    def test_zero_diagonals_are_skipped(self, plan_context):
        m = np.eye(DIM)  # only diagonal 0 is nonzero: no rotations
        m[np.arange(DIM), (np.arange(DIM) + 3) % DIM] = 0.5
        graph, out = matvec_graph(m)
        assert graph.op_counts() == {
            "input": 1, "const": 2, "linear_sweep": 1, "rescale": 1
        }
        sweep = graph.nodes[graph.nodes[out].inputs[0]]
        assert [step for step, _ in sweep.terms] == [0, 3]
        # the zero matrix still burns its level and scale: one zero term
        zero, out = matvec_graph(np.zeros((DIM, DIM)))
        (term,) = zero.nodes[zero.nodes[out].inputs[0]].terms
        assert term[0] == 0 and not any(zero.nodes[term[1]].value)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            matvec_graph(np.zeros((2, 3)))

    def test_splice_requires_input_node(self):
        g = PlanGraph()
        with pytest.raises(ValueError, match="input_node is required"):
            matvec_graph(np.eye(2), graph=g)

    def test_splice_extends_existing_graph(self, plan_context):
        g = PlanGraph()
        x = g.input("x")
        _, out = matvec_graph(np.eye(DIM) * 0.5, graph=g, input_node=x)
        g.output(g.square(out), "y")
        placed = compile_plan(g, plan_context)
        assert "y" in placed.outputs
        check_plan(placed, plan_context)


class TestWorkloadGraph:
    def test_outputs_one_per_lane(self, plan_context):
        graph = WorkloadGenerator.dot_product(DIM).to_plan(3, plan_context)
        assert set(graph.outputs) == {f"lane{i}_out" for i in range(3)}
        # the lowered graph passes the planner's own front door
        compile_plan(graph, plan_context, rescale_outputs=False)

    def test_optimized_equals_naive_bit_for_bit(
        self, plan_context, plan_encoder, plan_encryptor, plan_relin, plan_galois
    ):
        graph = workload_graph(
            WorkloadGenerator.dot_product(DIM), 3, plan_context
        )
        rng = np.random.default_rng(5)
        inputs = fresh_lane_inputs(
            graph,
            lambda name: plan_encryptor.encrypt(
                plan_encoder.encode(list(rng.uniform(-0.5, 0.5, 4)))
            ),
        )
        ex = PlanExecutor(plan_context, plan_relin, plan_galois)
        fast = ex.run(graph, dict(inputs), optimize=True)
        slow = ex.run(graph, dict(inputs), optimize=False)
        for name in graph.outputs:
            assert serialize_ciphertext(fast.outputs[name]) == serialize_ciphertext(
                slow.outputs[name]
            ), f"bit mismatch on {name}"
        # parallel lanes actually packed
        assert fast.packed_ops > 0

    def test_infeasible_workload_raises_loudly(self):
        ctx2 = CkksContext(toy_parameters(n=64, k=2, prime_bits=30))
        heavy = Workload("heavy", {"cc_mult": 1})
        with pytest.raises(ValueError, match="does not fit even on a fresh"):
            workload_graph(heavy, 1, ctx2)

    def test_needs_at_least_one_lane(self, plan_context):
        with pytest.raises(ValueError, match="at least one lane"):
            workload_graph(WorkloadGenerator.dot_product(4), 0, plan_context)

    def test_deep_workload_resets_lanes(self, plan_context):
        # enough multiplies to exhaust k=4: the lane re-enters through a
        # fresh reset input instead of failing
        deep = Workload("deep", {"cc_mult": 4, "rescale": 4})
        graph = workload_graph(deep, 1, plan_context)
        assert len(graph.inputs) > 1
        assert any("reset" in name for name in graph.inputs)
        compile_plan(graph, plan_context, rescale_outputs=False)
