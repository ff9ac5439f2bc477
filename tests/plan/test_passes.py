"""Planner passes: the loud scale/level checker, rescale placement, and
the sweep grouping the executor applies where a pass once annotated it.

The checker tests pin the rejection *messages*, not just the exception
type: the satellite contract is that unplaceable graphs fail loudly and
name the violated rule, so a silent behavior change here is a bug.
"""

import pytest

from repro.ckks.context import CkksContext, toy_parameters
from repro.plan.executor import PlanExecutor
from repro.plan.graph import PlanGraph
from repro.plan.passes import (
    PlanValidationError,
    check_plan,
    compile_plan,
    place_rescales,
)

DELTA = 2.0 ** 28


@pytest.fixture(scope="module")
def ctx3():
    return CkksContext(toy_parameters(n=64, k=3, prime_bits=30))


@pytest.fixture(scope="module")
def ctx4():
    return CkksContext(toy_parameters(n=64, k=4, prime_bits=30))


class TestChecker:
    def test_types_a_simple_chain(self, ctx4):
        g = PlanGraph()
        x = g.input("x")
        s = g.square(x)
        r = g.rescale(s)
        types = check_plan(g, ctx4)
        assert types[x] == (4, DELTA)
        assert types[s] == (4, DELTA * DELTA)
        level, scale = types[r]
        assert level == 3
        prime = float(ctx4.basis_at_level(4).moduli[-1].value)
        assert scale == DELTA * DELTA / prime

    def test_rescale_at_last_level_rejected(self, ctx3):
        g = PlanGraph()
        x = g.input("x", level_count=1, scale=2.0 ** 10)
        g.rescale(x)
        with pytest.raises(
            PlanValidationError, match="cannot rescale at the last level"
        ):
            check_plan(g, ctx3)

    def test_headroom_overflow_rejected(self, ctx3):
        # two squares without a rescale: 2^112 against a 90-bit budget
        g = PlanGraph()
        x = g.input("x")
        g.square(g.square(x))
        with pytest.raises(PlanValidationError, match="headroom bits"):
            check_plan(g, ctx3)

    def test_level_mismatch_add_rejected(self, ctx4):
        g = PlanGraph()
        a = g.input("a")
        b = g.input("b", level_count=3)
        g.add(a, b)
        with pytest.raises(PlanValidationError, match="level mismatch"):
            check_plan(g, ctx4)

    def test_scale_mismatch_add_rejected(self, ctx4):
        g = PlanGraph()
        a = g.input("a")
        b = g.input("b", scale=DELTA * 1.5)
        g.add(a, b)
        with pytest.raises(PlanValidationError, match="scale mismatch"):
            check_plan(g, ctx4)

    def test_input_level_outside_chain_rejected(self, ctx3):
        g = PlanGraph()
        g.input("x", level_count=7)
        with pytest.raises(PlanValidationError, match="outside"):
            check_plan(g, ctx3)

    def test_rescale_below_unit_scale_rejected(self, ctx4):
        # rescaling a fresh delta-scale ciphertext: 2^28 / 2^30 < 1
        g = PlanGraph()
        x = g.input("x")
        g.rescale(x)
        with pytest.raises(PlanValidationError, match="not a fresh product"):
            check_plan(g, ctx4)


class TestPlacement:
    def test_lazy_rescale_inserted_before_second_multiply(self, ctx4):
        g = PlanGraph()
        x = g.input("x")
        g.output(g.square(g.square(x)), "y")
        placed = place_rescales(g, ctx4, rescale_outputs=False)
        # exactly one rescale, in front of the second square
        assert placed.op_counts()["rescale"] == 1
        types = check_plan(placed, ctx4)
        out_level, _ = types[placed.outputs["y"]]
        assert out_level == 3

    def test_linear_sweep_is_typed_and_placed_like_a_plain_multiply(self, ctx4):
        g = PlanGraph()
        x = g.input("x")
        terms = [(d, g.const([0.5] * 4)) for d in (0, 1, 2)]
        g.output(g.linear_sweep(g.square(x), terms), "y")
        placed = place_rescales(g, ctx4, rescale_outputs=False)
        # the product-scale operand is rescaled in front of the sweep
        assert placed.op_counts()["rescale"] == 1
        sweep = placed.nodes[placed.outputs["y"]]
        assert placed.nodes[sweep.inputs[0]].op == "rescale"
        assert [placed.nodes[c].op for _, c in sweep.terms] == ["const"] * 3
        level, scale = check_plan(placed, ctx4)[sweep.id]
        last_prime = ctx4.basis_at_level(4).moduli[-1].value
        assert level == 3 and scale == pytest.approx(DELTA**3 / last_prime)

    def test_prescheduled_graph_passes_through_unchanged(self, ctx4):
        g = PlanGraph()
        x = g.input("x")
        p = g.mul_plain(g.rescale(g.square(x)), g.const(0.5))
        g.output(p, "y")
        placed = place_rescales(g, ctx4, rescale_outputs=False)
        assert len(placed) == len(g)
        assert placed.op_counts() == g.op_counts()

    def test_output_rescale_placed_when_requested(self, ctx4):
        g = PlanGraph()
        x = g.input("x")
        g.output(g.square(x), "y")
        lazy = place_rescales(g, ctx4, rescale_outputs=False)
        eager = place_rescales(g, ctx4, rescale_outputs=True)
        assert lazy.op_counts().get("rescale", 0) == 0
        assert eager.op_counts()["rescale"] == 1
        level, scale = check_plan(eager, ctx4)[eager.outputs["y"]]
        assert level == 3 and scale < DELTA * DELTA

    def test_level_drop_aligns_mixed_level_add(self, ctx4):
        # the checker rejects this graph; placement repairs it with a
        # scale-preserving unit-multiply chain on the higher operand
        g = PlanGraph()
        a = g.input("a")
        b = g.input("b", level_count=3)
        g.output(g.add(a, b), "y")
        with pytest.raises(PlanValidationError):
            check_plan(g, ctx4)
        placed = compile_plan(g, ctx4)
        types = check_plan(placed, ctx4)
        level, scale = types[placed.outputs["y"]]
        assert level == 3
        assert scale == pytest.approx(DELTA)

    def test_unalignable_scales_rejected_loudly(self, ctx4):
        g = PlanGraph()
        a = g.input("a")
        b = g.input("b", scale=DELTA * 1.5)  # ratio 1.5 << 2^16
        g.output(g.add(a, b), "y")
        with pytest.raises(
            PlanValidationError, match="ratio below 2\\^16"
        ):
            place_rescales(g, ctx4)

    def test_too_deep_chain_rejected_at_placement(self, ctx3):
        # k=3 sustains two square->rescale rounds; the fourth square
        # finds its product-scale operand at the last level with no
        # level left to rescale into
        g = PlanGraph()
        x = g.input("x")
        g.output(g.square(g.square(g.square(g.square(x)))), "y")
        with pytest.raises(
            PlanValidationError, match="already at the last level"
        ):
            compile_plan(g, ctx3)

    def test_compile_plan_validates_its_own_output(self, ctx4):
        g = PlanGraph()
        x = g.input("x")
        g.output(g.mul_plain(g.square(x), g.const(0.25)), "y")
        placed = compile_plan(g, ctx4)
        # must not raise: placement output satisfies the checker
        types = check_plan(placed, ctx4)
        assert placed.outputs["y"] in types


class TestSweepFusion:
    """The one sweep-grouping rule, read off what the executor ran: a
    source feeding at least two rotations is one ``"sweep"`` step."""

    def _sweep_steps(self, graph, inputs, plan_context, plan_galois):
        run = PlanExecutor(plan_context, galois_keys=plan_galois).run(graph, inputs)
        return run, [s.node_ids for s in run.steps if s.mode == "sweep"]

    def test_multi_rotation_sources_detected(
        self, plan_context, plan_galois, plan_encoder, plan_encryptor
    ):
        g = PlanGraph()
        x = g.input("x")
        y = g.input("y")
        r1 = g.rotate(x, 1)
        r2 = g.rotate(x, 2)
        r3 = g.rotate(x, 3)
        lone = g.rotate(y, 1)  # singleton: not a sweep
        ct = plan_encryptor.encrypt(plan_encoder.encode([0.5, -0.25]))
        run, sweeps = self._sweep_steps(
            g, {"x": ct, "y": ct}, plan_context, plan_galois
        )
        assert sweeps == [(r1, r2, r3)]
        assert (run.sweeps, run.fused_rotations) == (1, 3)
        assert [s.node_ids for s in run.steps if s.mode == "scalar"] == [(lone,)]

    def test_no_rotations_no_sweeps(
        self, plan_context, plan_galois, plan_encoder, plan_encryptor
    ):
        g = PlanGraph()
        x = g.input("x")
        g.negate(x)
        ct = plan_encryptor.encrypt(plan_encoder.encode([0.5]))
        run, sweeps = self._sweep_steps(g, {"x": ct}, plan_context, plan_galois)
        assert sweeps == [] and run.sweeps == 0
