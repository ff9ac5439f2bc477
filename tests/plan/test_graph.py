"""PlanGraph builder: validation, traversal, and the topo contract."""

import math

import pytest

from repro.plan.graph import PlanGraph, PlanNode


class TestBuilderValidation:
    def test_cipher_op_rejects_const_operand(self):
        g = PlanGraph()
        c = g.const([1.0, 2.0])
        with pytest.raises(ValueError, match="not a ciphertext value"):
            g.add(c, c)

    def test_mul_plain_rejects_non_const_operand(self):
        g = PlanGraph()
        x = g.input("x")
        y = g.input("y")
        with pytest.raises(ValueError, match="not a const node"):
            g.mul_plain(x, y)

    def test_rotate_rejects_zero_step(self):
        g = PlanGraph()
        x = g.input("x")
        with pytest.raises(ValueError, match="nonzero"):
            g.rotate(x, 0)

    def test_linear_sweep_takes_const_terms_and_allows_step_zero(self):
        g = PlanGraph()
        x = g.input("x")
        c = g.const([1.0, 2.0])
        node = g.nodes[g.linear_sweep(x, [(0, c), (3, c)])]
        assert node.terms == ((0, c), (3, c)) and node.inputs == (x,)
        with pytest.raises(ValueError, match="not a const node"):
            g.linear_sweep(x, [(1, x)])
        with pytest.raises(ValueError, match="at least one term"):
            g.linear_sweep(x, [])
        with pytest.raises(ValueError, match="not a ciphertext value"):
            g.linear_sweep(c, [(1, c)])

    def test_unknown_node_id_rejected(self):
        g = PlanGraph()
        x = g.input("x")
        with pytest.raises(ValueError, match="unknown node id"):
            g.add(x, 999)

    def test_duplicate_input_name_rejected(self):
        g = PlanGraph()
        g.input("x")
        with pytest.raises(ValueError, match="duplicate input name"):
            g.input("x")

    def test_duplicate_output_name_rejected(self):
        g = PlanGraph()
        x = g.input("x")
        g.output(x, "y")
        with pytest.raises(ValueError, match="duplicate output name"):
            g.output(x, "y")

    def test_output_rejects_const_node(self):
        g = PlanGraph()
        c = g.const(1.0)
        with pytest.raises(ValueError, match="not a ciphertext value"):
            g.output(c)

    def test_const_scale_must_be_positive(self):
        g = PlanGraph()
        with pytest.raises(ValueError, match="positive"):
            g.const(1.0, scale=-2.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_scale_must_be_finite_and_positive(self, scale):
        # NaN fails every compare, so a bare `scale <= 0` test lets it
        # type a plan NaN; 0 and -1 must not reach check_plan's log2
        g = PlanGraph()
        with pytest.raises(ValueError, match="input scale must be finite and positive"):
            g.input("x", scale=scale)
        with pytest.raises(ValueError, match="const scale must be finite and positive"):
            g.const(1.0, scale=scale)
        assert len(g) == 0


class TestTraversal:
    def _chain(self):
        g = PlanGraph()
        x = g.input("x")
        s = g.square(x)
        r = g.rescale(s)
        p = g.mul_plain(r, g.const(0.5))
        g.output(p, "y")
        return g, (x, s, r, p)

    def test_topo_order_is_construction_order(self):
        g, _ = self._chain()
        order = g.topo_order()
        assert [n.id for n in order] == sorted(g.nodes)
        # every node's ciphertext operands appear strictly before it
        seen = set()
        for node in order:
            assert all(i in seen for i in node.inputs)
            seen.add(node.id)

    def test_op_counts(self):
        g, _ = self._chain()
        counts = g.op_counts()
        assert counts == {
            "input": 1,
            "square": 1,
            "rescale": 1,
            "const": 1,
            "mul_plain": 1,
        }

    def test_inputs_outputs_maps(self):
        g, (x, _, _, p) = self._chain()
        assert g.inputs == {"x": x}
        assert g.outputs == {"y": p}
        assert len(g) == 5

    def test_copy_rebuilds_a_node_on_new_operands(self):
        g, (x, _, r, p) = self._chain()
        out = PlanGraph()
        x2 = out.copy(g.nodes[x], (), {})
        c2 = out.const(0.25)
        p2 = out.copy(g.nodes[p], (x2,), {g.nodes[p].const_id: c2})
        assert out.inputs == {"x": x2}
        assert out.nodes[p2] == PlanNode(id=p2, op="mul_plain", inputs=(x2,), const_id=c2)
        with pytest.raises(ValueError, match="not a ciphertext value"):
            out.copy(g.nodes[r], (c2,), {})

    def test_default_output_names_are_sequential(self):
        g = PlanGraph()
        a = g.input("a")
        b = g.input("b")
        g.output(a)
        g.output(b)
        assert set(g.outputs) == {"out0", "out1"}
