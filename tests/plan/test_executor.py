"""PlanExecutor: bit-identity of the two modes, sweep/batch accounting,
and the CountingBackend regression for the hoisted fan-out.
"""

import numpy as np
import pytest

from repro.ckks.backend import CountingBackend
from repro.ckks.context import CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.keys import KeyGenerator
from repro.ckks.serialization import serialize_ciphertext
from repro.plan.executor import PlanExecutor
from repro.plan.graph import PlanGraph
from repro.plan.lower import matvec_graph
from repro.plan.passes import compile_plan


@pytest.fixture(scope="module")
def executor(plan_context, plan_relin, plan_galois):
    return PlanExecutor(
        plan_context, relin_key=plan_relin, galois_keys=plan_galois
    )


def _encrypt(plan_encoder, plan_encryptor, values):
    return plan_encryptor.encrypt(plan_encoder.encode(values))


def _mixed_graph(plan_context):
    """A matvec (one ``linear_sweep`` node) spliced with a rotation
    sweep, squares and cross-lane adds: both kinds of sweep, batch
    lanes, and scalar stragglers all in one plan."""
    dim = 8
    rng = np.random.default_rng(17)
    matrix = rng.uniform(0.1, 1.0, (dim, dim))
    g = PlanGraph()
    x = g.input("x")
    z = g.input("z")
    _, y = matvec_graph(matrix, graph=g, input_node=x)
    sq_x = g.rescale(g.square(x))
    sq_z = g.rescale(g.square(z))
    g.output(g.add(sq_x, sq_z), "squares")
    g.output(y, "matvec")
    for step in (1, 2):
        g.output(g.rotate(z, step), f"rot{step}")
    return compile_plan(g, plan_context, rescale_outputs=False)


class TestBitIdentity:
    def test_optimized_equals_naive_bit_for_bit(
        self, plan_context, plan_encoder, plan_encryptor, executor
    ):
        placed = _mixed_graph(plan_context)
        inputs = {
            "x": _encrypt(plan_encoder, plan_encryptor, list(np.linspace(-1, 1, 32))),
            "z": _encrypt(plan_encoder, plan_encryptor, [0.25, -0.5, 0.75]),
        }
        fast = executor.run(placed, inputs, optimize=True)
        slow = executor.run(placed, inputs, optimize=False)
        assert set(fast.outputs) == set(slow.outputs) == {
            "squares", "matvec", "rot1", "rot2"
        }
        for name in fast.outputs:
            assert serialize_ciphertext(fast.outputs[name]) == serialize_ciphertext(
                slow.outputs[name]
            ), f"bit mismatch on output {name!r}"
        # the optimized run actually exercised both mechanisms: it fused
        # the two rotations of z; the matvec is one linear_sweep node,
        # a sweep (7 rotations) whichever executor runs it
        assert (fast.sweeps, fast.fused_rotations) == (2, 7 + 2)
        assert (slow.sweeps, slow.fused_rotations) == (1, 7)
        assert slow.scalar_ops == len(slow.steps) and fast.lanes >= 1


class TestSweepAccounting:
    ROTS = 5

    def _sweep_graph(self):
        g = PlanGraph()
        x = g.input("x")
        for step in range(1, self.ROTS + 1):
            g.output(g.rotate(x, step), f"r{step}")
        return g

    def test_fused_sweep_bills_shared_decompose_once(
        self, plan_context, plan_encoder, plan_encryptor, executor
    ):
        g = self._sweep_graph()
        ct = _encrypt(plan_encoder, plan_encryptor, [1.0, 2.0, 3.0])
        run = executor.run(g, {"x": ct}, optimize=True)
        assert run.sweeps == 1 and run.fused_rotations == self.ROTS
        (step,) = run.steps
        assert step.mode == "sweep" and step.rotations == self.ROTS
        assert step.scheduled.kind == "keyswitch"
        # the shared input crosses once; outputs bill per rotation
        assert step.scheduled.output_bytes == self.ROTS * step.scheduled.input_bytes

    def test_naive_sweep_bills_every_rotation_in_full(
        self, plan_context, plan_encoder, plan_encryptor, executor
    ):
        g = self._sweep_graph()
        ct = _encrypt(plan_encoder, plan_encryptor, [1.0, 2.0, 3.0])
        run = executor.run(g, {"x": ct}, optimize=False)
        assert run.sweeps == 0 and len(run.steps) == self.ROTS
        for step in run.steps:
            assert step.mode == "scalar"
            assert step.scheduled.input_bytes == step.scheduled.output_bytes

    def test_hoisted_fanout_runs_once_on_counting_backend(self):
        """The transform-count regression: an optimized 3-rotation sweep
        pays ONE decomposition fan-out (L INTT + L^2 NTT rows), the
        naive run pays it per rotation."""
        L, R = 3, 3
        be = CountingBackend("reference")
        ctx = CkksContext(toy_parameters(n=64, k=L, prime_bits=30), backend=be)
        kg = KeyGenerator(ctx, seed=91)
        enc = Encryptor(ctx, kg.public_key(), seed=92)
        ct = enc.encrypt(CkksEncoder(ctx).encode([0.5, -0.5]))
        ex = PlanExecutor(ctx, galois_keys=kg.galois_keys(range(1, R + 1)))
        g = PlanGraph()
        x = g.input("x")
        for step in range(1, R + 1):
            g.output(g.rotate(x, step), f"r{step}")

        be.reset()
        ex.run(g, {"x": ct}, optimize=True)
        assert be.counts["ntt_inverse"] == L + 2 * R
        assert be.counts["ntt_forward"] == L * L + 2 * L * R

        be.reset()
        ex.run(g, {"x": ct}, optimize=False)
        assert be.counts["ntt_inverse"] == R * (L + 2)
        assert be.counts["ntt_forward"] == R * (L * L + 2 * L)


class TestBatchPacking:
    def test_independent_squares_pack_into_one_lane(
        self, plan_context, plan_encoder, plan_encryptor, executor
    ):
        n_lanes = 4
        g = PlanGraph()
        for i in range(n_lanes):
            g.output(g.square(g.input(f"x{i}")), f"y{i}")
        inputs = {
            f"x{i}": _encrypt(plan_encoder, plan_encryptor, [0.1 * (i + 1)])
            for i in range(n_lanes)
        }
        run = executor.run(g, inputs, optimize=True)
        assert run.lanes == 1 and run.packed_ops == n_lanes
        (step,) = run.steps
        assert step.mode == "batch" and step.width == n_lanes

    def test_mixed_shapes_do_not_share_a_lane(
        self, plan_context, plan_encoder, plan_encryptor, executor
    ):
        g = PlanGraph()
        g.output(g.square(g.input("a")), "ya")
        g.output(g.square(g.input("b", level_count=3)), "yb")
        ct_a = _encrypt(plan_encoder, plan_encryptor, [0.5])
        ct_b = executor.evaluator.rescale(
            executor.evaluator.multiply_plain(
                _encrypt(plan_encoder, plan_encryptor, [0.5]),
                plan_encoder.encode(1.0),
            )
        )
        run = executor.run(g, {"a": ct_a, "b": ct_b}, optimize=True)
        assert run.lanes == 0 and run.scalar_ops == 2


class TestPlainCache:
    def test_one_executor_two_matrices(
        self, plan_context, plan_encoder, plan_encryptor, plan_decryptor, executor
    ):
        """Const node ids repeat from graph to graph; the long-lived
        executor's plaintext cache must key on the constant's *value*.
        Keyed on the node id, the second matrix silently decrypted to the
        first one's product."""
        dim = 4
        rng = np.random.default_rng(29)
        a, b = (rng.uniform(-1, 1, (dim, dim)) for _ in range(2))
        x = rng.uniform(-1, 1, dim)
        packed = np.zeros(plan_encoder.slot_count)
        packed[:dim] = packed[dim : 2 * dim] = x
        ct = _encrypt(plan_encoder, plan_encryptor, packed)

        def product(matrix):
            placed = compile_plan(
                matvec_graph(matrix)[0], plan_context, rescale_outputs=False
            )
            out = executor.run(placed, {"x": ct}).outputs["y"]
            return plan_encoder.decode(plan_decryptor.decrypt(out)).real[:dim]

        np.testing.assert_allclose(product(a), a @ x, atol=0.05)
        np.testing.assert_allclose(product(b), b @ x, atol=0.05)
        # a recompiled graph of the same constants keeps hitting the cache
        encodes = []
        real_encode = executor.encoder.encode
        executor.encoder.encode = lambda *args, **kw: (
            encodes.append(1),
            real_encode(*args, **kw),
        )[1]
        try:
            np.testing.assert_allclose(product(a), a @ x, atol=0.05)
        finally:
            del executor.encoder.encode
        assert not encodes

    def test_cache_is_bounded_and_evicts_least_recently_used(
        self, plan_context, plan_encoder, plan_encryptor, plan_decryptor, plan_relin,
        monkeypatch,
    ):
        """A library caller passing a fresh constant per run must not
        grow the long-lived executor without bound."""
        from repro.plan import executor as executor_module

        monkeypatch.setattr(executor_module, "PLAIN_CACHE_SIZE", 2)
        ex = PlanExecutor(plan_context, relin_key=plan_relin)
        ct = _encrypt(plan_encoder, plan_encryptor, [0.5, -0.25])

        def plus(constant):
            g = PlanGraph()
            g.output(g.add_const(g.input("x"), g.const([constant, constant])), "y")
            out = ex.run(g, {"x": ct}).outputs["y"]
            return plan_encoder.decode(plan_decryptor.decrypt(out)).real[:2]

        for constant in (0.125, 0.25, 0.125, 0.375, 0.5):
            np.testing.assert_allclose(
                plus(constant), [0.5 + constant, -0.25 + constant], atol=1e-3
            )
            assert len(ex._plain_cache) <= 2
        # 0.125 was touched after 0.25, so 0.25 went first; by now both
        # are gone and only the two newest constants remain
        assert len(ex._plain_cache) == 2


    def test_scalar_and_one_vector_do_not_share_an_entry(
        self, plan_context, plan_encoder, executor
    ):
        """``np.ascontiguousarray`` lifts a 0-d value to shape ``(1,)``:
        keyed on the lifted shape, the broadcast scalar ``2.0`` and the
        zero-padded one-vector ``[2.0]`` hashed alike and whichever was
        encoded first was served for both."""
        scale = plan_context.params.scale
        scalar = executor._plain(2.0, plan_context.k, scale)
        vector = executor._plain([2.0], plan_context.k, scale)
        assert scalar is not vector
        np.testing.assert_allclose(plan_encoder.decode(scalar).real, 2.0, atol=1e-6)
        np.testing.assert_allclose(
            plan_encoder.decode(vector).real,
            [2.0] + [0.0] * (plan_encoder.slot_count - 1),
            atol=1e-6,
        )
        # and the two bases of one value are two entries
        wide = executor._plain([2.0], plan_context.k, scale, extended=True)
        assert wide is not vector
        assert wide.level_count == vector.level_count + 1


class TestKeyAndInputDiscipline:
    def test_missing_relin_key_rejected(self, plan_context, plan_galois):
        ex = PlanExecutor(plan_context, galois_keys=plan_galois)
        g = PlanGraph()
        g.square(g.input("x"))
        with pytest.raises(ValueError, match="no\\s+relinearization key"):
            ex.run(g, {})

    def test_missing_galois_keys_rejected(self, plan_context, plan_relin):
        ex = PlanExecutor(plan_context, relin_key=plan_relin)
        g = PlanGraph()
        g.rotate(g.input("x"), 1)
        with pytest.raises(ValueError, match="no Galois keys"):
            ex.run(g, {})

    def test_missing_galois_element_rejected_before_any_work(
        self, plan_context, plan_keygen, plan_relin, plan_encoder, plan_encryptor
    ):
        """``square -> rotate(3)`` with keys for step 1 only used to run
        the square and its relinearization, then die with a bare
        ``KeyError``; ``run`` promises to raise before any work."""
        ex = PlanExecutor(
            plan_context, relin_key=plan_relin, galois_keys=plan_keygen.galois_keys([1])
        )
        ex.evaluator = None  # any evaluator call would raise AttributeError
        ct = _encrypt(plan_encoder, plan_encryptor, [0.5])
        g = PlanGraph()
        g.output(g.rotate(g.rescale(g.square(g.input("x"))), 3), "y")
        with pytest.raises(ValueError, match=r"node 3 \(rotate\): no Galois key for step 3"):
            ex.run(g, {"x": ct})
        g = PlanGraph()
        g.output(g.conjugate(g.input("x")), "y")
        with pytest.raises(ValueError, match=r"\(conjugate\): no Galois key for conj"):
            ex.run(g, {"x": ct})
        # a linear_sweep names its missing step; step 0 asks for no key
        with pytest.raises(ValueError, match=r"\(linear_sweep\): no Galois key for step 2"):
            ex.run(matvec_graph(np.ones((3, 3)))[0], {"x": ct})
        with pytest.raises(ValueError, match="no Galois keys"):
            PlanExecutor(plan_context).run(matvec_graph(np.ones((2, 2)))[0], {"x": ct})
        PlanExecutor(plan_context)._check_keys(matvec_graph(np.eye(2))[0])

    def test_missing_input_rejected(
        self, executor, plan_encoder, plan_encryptor
    ):
        g = PlanGraph()
        g.output(g.negate(g.input("x")), "y")
        with pytest.raises(ValueError, match="inputs not supplied: x"):
            executor.run(g, {})

    def test_extra_input_rejected(
        self, executor, plan_encoder, plan_encryptor
    ):
        g = PlanGraph()
        g.output(g.negate(g.input("x")), "y")
        ct = _encrypt(plan_encoder, plan_encryptor, [1.0])
        with pytest.raises(ValueError, match="unknown plan inputs: ghost"):
            executor.run(g, {"x": ct, "ghost": ct})
