"""Planner passes: the loud scale/level checker, rescale placement, and
the sweep grouping the executor applies where a pass once annotated it.

The checker tests pin the rejection *messages*, not just the exception
type: the satellite contract is that unplaceable graphs fail loudly and
name the violated rule, so a silent behavior change here is a bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckks import SET_A
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
        assert (types[x][0].level_count, types[x][0].scale) == (4, DELTA)
        assert (types[s][0].level_count, types[s][0].scale) == (4, DELTA * DELTA)
        est, magnitude = types[r]
        assert est.level_count == 3 and magnitude == 1.0
        prime = float(ctx4.basis_at_level(4).moduli[-1].value)
        assert est.scale == DELTA * DELTA / prime
        # the noise grows through the product and shrinks by the prime
        assert types[x][0].bound < est.bound * prime < types[s][0].bound * 2
        assert est.precision_bits > 1

    @pytest.mark.parametrize("op", ["mul_relin", "square"])
    def test_set_a_multiply_is_accepted(self, op):
        """Table 8's MULT+ReLin on Set-A: a 2^56 product under the 64-bit
        level-2 modulus decrypts, and keeps its precision rescaled."""
        ctx = CkksContext(SET_A)
        g = PlanGraph()
        x = g.input("x")
        g.output(g.mul_relin(x, x) if op == "mul_relin" else g.square(x), "y")
        placed = compile_plan(g, ctx)
        est, magnitude = check_plan(placed, ctx)[placed.outputs["y"]]
        assert (est.level_count, magnitude) == (1, 1.0)
        assert est.precision_bits > 1

    def test_rescale_at_last_level_rejected(self, ctx3):
        g = PlanGraph()
        x = g.input("x", level_count=1, scale=2.0 ** 20)
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
        with pytest.raises(
            PlanValidationError,
            match=r"plan node 2 \(square\): does not decrypt: .* 2\^112\.0 .* 90\.0-bit modulus",
        ):
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
        with pytest.raises(PlanValidationError, match="bits of precision left"):
            check_plan(g, ctx4)

    @pytest.mark.parametrize("op", ["mul_plain", "add_const", "linear_sweep"])
    def test_const_wider_than_the_slots_rejected(self, ctx3, op):
        """The encoder would raise mid-run, after earlier steps ran."""
        slots = ctx3.params.slot_count
        g = PlanGraph()
        x = g.input("x")
        fits = g.const([0.5] * slots)
        wide = g.const([0.5] * (slots + 8))
        if op == "linear_sweep":
            g.output(g.linear_sweep(x, [(0, fits), (1, wide)]))
        else:
            g.output(getattr(g, op)(x, wide))
        with pytest.raises(
            PlanValidationError,
            match=rf"plan node {wide} \(const\): holds {slots + 8} values > {slots} slots",
        ):
            compile_plan(g, ctx3)

    def test_matvec_wider_than_the_slots_rejected(self, ctx3):
        from repro.plan.lower import matvec_graph

        slots = ctx3.params.slot_count
        compile_plan(matvec_graph(np.eye(slots))[0], ctx3)
        with pytest.raises(PlanValidationError, match=f"> {slots} slots"):
            compile_plan(matvec_graph(np.eye(slots + 8))[0], ctx3)


class TestPlacement:
    def test_lazy_rescale_inserted_before_second_multiply(self, ctx4):
        g = PlanGraph()
        x = g.input("x")
        g.output(g.square(g.square(x)), "y")
        placed = place_rescales(g, ctx4, rescale_outputs=False)
        # exactly one rescale, in front of the second square
        assert placed.op_counts()["rescale"] == 1
        types = check_plan(placed, ctx4)
        assert types[placed.outputs["y"]][0].level_count == 3

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
        est, _ = check_plan(placed, ctx4)[sweep.id]
        last_prime = ctx4.basis_at_level(4).moduli[-1].value
        assert est.level_count == 3
        assert est.scale == pytest.approx(DELTA**3 / last_prime)

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
        est, _ = check_plan(eager, ctx4)[eager.outputs["y"]]
        assert est.level_count == 3 and est.scale < DELTA * DELTA

    def test_output_at_the_last_level_is_left_unrescaled(self):
        # delta = 2^10 puts a product scale (>= 2^15) under a 30-bit prime
        ctx = CkksContext(toy_parameters(n=64, k=4, prime_bits=30, scale=2.0**10))
        g = PlanGraph()
        g.output(g.input("x", level_count=1, scale=2.0**16), "y")
        assert "rescale" not in compile_plan(g, ctx).op_counts()

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
        est, _ = check_plan(placed, ctx4)[placed.outputs["y"]]
        assert est.level_count == 3
        assert est.scale == pytest.approx(DELTA)

    def test_product_scale_level_drop_is_a_fixed_point(self, ctx4):
        # the drop of a product-scale operand is a unit multiply of a
        # product; placing the placed graph again must not read it as a
        # product and rescale in front of it
        g = PlanGraph()
        a = g.input("a", level_count=3)
        g.output(g.add(a, g.square(g.input("b"))), "y")
        placed = compile_plan(g, ctx4, rescale_outputs=False)
        assert placed.op_counts()["mul_plain"] == 2
        again = place_rescales(placed, ctx4, rescale_outputs=False)
        assert again.nodes == placed.nodes

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
        # k=3 sustains two square->rescale rounds; the third square lands
        # its 2^44 product in the last level's 30 bits
        g = PlanGraph()
        x = g.input("x")
        g.output(g.square(g.square(g.square(g.square(x)))), "y")
        with pytest.raises(
            PlanValidationError, match=r"\(square\): does not decrypt: .* 2\^44\.0"
        ):
            place_rescales(g, ctx3)

    def test_compile_plan_validates_its_own_output(self, ctx4):
        g = PlanGraph()
        x = g.input("x")
        g.output(g.mul_plain(g.square(x), g.const(0.25)), "y")
        placed = compile_plan(g, ctx4)
        # must not raise: placement output satisfies the checker
        types = check_plan(placed, ctx4)
        assert placed.outputs["y"] in types


#: input scales: the working scale, product scale, and add/sub ratios on
#: both sides of 2^16 (2^15 is refused, 2^17 bridged by a unit multiply)
INPUT_SCALES = (
    None, DELTA, DELTA * DELTA, DELTA * 2.0**15, DELTA * 2.0**17, DELTA / 2.0**17
)
CONST_SCALES = (None, 2.0**20)
UNARY = ("negate", "square", "conjugate", "rescale")
BINARY = ("add", "sub", "mul_relin")
WITH_CONST = ("mul_plain", "add_const")


@st.composite
def builder_graphs(draw):
    """A random builder graph over every op, inputs at any level and
    scale, so binary ops meet mixed levels and mismatched scales."""
    g = PlanGraph()
    values = [
        g.input(
            f"x{i}",
            level_count=draw(st.sampled_from((None, 1, 2, 3, 4))),
            scale=draw(st.sampled_from(INPUT_SCALES)),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    ops = UNARY + BINARY + WITH_CONST + ("rotate", "linear_sweep")
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(ops))
        a = draw(st.sampled_from(values))
        if op in BINARY:
            new = getattr(g, op)(a, draw(st.sampled_from(values)))
        elif op in WITH_CONST:
            const = g.const(0.5, scale=draw(st.sampled_from(CONST_SCALES)))
            new = getattr(g, op)(a, const)
        elif op == "rotate":
            new = g.rotate(a, draw(st.integers(1, 3)))
        elif op == "linear_sweep":
            scales = draw(st.lists(st.sampled_from(CONST_SCALES), min_size=1, max_size=3))
            new = g.linear_sweep(
                a, [(d, g.const([0.25, d], scale=s)) for d, s in enumerate(scales)]
            )
        else:
            new = getattr(g, op)(a)
        values.append(new)
    for nid in {values[-1], draw(st.sampled_from(values))}:
        g.output(nid)
    return g


@settings(max_examples=300, deadline=None)
@given(graph=builder_graphs(), rescale_outputs=st.booleans())
def test_placement_is_typed_by_the_checkers_rule(ctx4, graph, rescale_outputs):
    """compile_plan refuses a graph, or places one that check_plan
    accepts and that a second placement leaves node for node as it is."""
    try:
        placed = compile_plan(graph, ctx4, rescale_outputs=rescale_outputs)
    except PlanValidationError:
        return
    check_plan(placed, ctx4)
    again = place_rescales(placed, ctx4, rescale_outputs=False)
    assert again.nodes == placed.nodes
    assert (again.inputs, again.outputs) == (placed.inputs, placed.outputs)


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
