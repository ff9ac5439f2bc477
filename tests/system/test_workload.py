"""Tests for workload generation and runtime projection."""

import pytest

from repro.system.workload import (
    PRIMITIVES,
    RuntimeProjection,
    Workload,
    WorkloadGenerator,
)


class TestWorkload:
    def test_defaults_zero(self):
        w = Workload("w", {"keyswitch": 3})
        assert w.counts["cc_mult"] == 0
        assert w.total_ops == 3

    def test_rejects_unknown_primitive(self):
        with pytest.raises(ValueError):
            Workload("w", {"bootstrapping": 1})

    def test_addition_merges(self):
        a = Workload("a", {"keyswitch": 1})
        b = Workload("b", {"keyswitch": 2, "add": 5})
        c = a + b
        assert c.counts["keyswitch"] == 3
        assert c.counts["add"] == 5

    def test_scaling(self):
        w = WorkloadGenerator.dot_product(8).scaled(10)
        assert w.counts["keyswitch"] == 30  # 3 rotations x 10


class TestGenerator:
    def test_dot_product_counts(self):
        w = WorkloadGenerator.dot_product(8)
        assert w.counts["keyswitch"] == 3  # log2(8) rotations
        assert w.counts["cp_mult"] == 1

    def test_matvec_counts(self):
        w = WorkloadGenerator.matvec(16)
        assert w.counts["keyswitch"] == 15
        assert w.counts["cp_mult"] == 16

    def test_polynomial_activation(self):
        w = WorkloadGenerator.polynomial_activation(3)
        assert w.counts["cc_mult"] == 2
        assert w.counts["keyswitch"] == 2

    def test_activation_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            WorkloadGenerator.polynomial_activation(0)

    def test_logistic_composition(self):
        dot = WorkloadGenerator.dot_product(8)
        act = WorkloadGenerator.polynomial_activation(3)
        full = WorkloadGenerator.logistic_inference(8, 3)
        for p in PRIMITIVES:
            assert full.counts[p] == dot.counts[p] + act.counts[p]

    def test_dense_layer(self):
        w = WorkloadGenerator.dense_layer(8)
        assert w.counts["keyswitch"] >= 8  # rotations + relins


class TestProjection:
    @pytest.fixture(scope="class")
    def proj(self):
        return RuntimeProjection("Stratix10", 8192, 4)

    def test_speedup_two_orders(self, proj):
        w = WorkloadGenerator.logistic_inference(64)
        assert proj.speedup(w) > 50

    def test_keyswitch_dominates_heax_time(self, proj):
        """Rotation-heavy workloads are KeySwitch-pipeline bound."""
        w = WorkloadGenerator.matvec(64)
        ks_only = Workload("ks", {"keyswitch": w.counts["keyswitch"]})
        assert proj.heax_seconds(w) == pytest.approx(
            proj.heax_seconds(ks_only), rel=0.25
        )

    def test_cpu_time_additive(self, proj):
        a = WorkloadGenerator.dot_product(8)
        b = WorkloadGenerator.polynomial_activation(2)
        assert proj.cpu_seconds(a + b) == pytest.approx(
            proj.cpu_seconds(a) + proj.cpu_seconds(b)
        )

    def test_bigger_workload_takes_longer(self, proj):
        small = WorkloadGenerator.matvec(8)
        big = WorkloadGenerator.matvec(64)
        assert proj.heax_seconds(big) > proj.heax_seconds(small)
        assert proj.cpu_seconds(big) > proj.cpu_seconds(small)

    def test_report_row_shape(self, proj):
        row = proj.report_row(WorkloadGenerator.dot_product(8))
        assert len(row) == 6
        assert row[0] == "dot-8"


class TestOpSequence:
    def test_round_robin_interleaving(self):
        w = Workload("w", {"keyswitch": 2, "cc_mult": 1, "add": 3})
        seq = w.op_sequence()
        assert len(seq) == w.total_ops
        assert seq[:3] == ["keyswitch", "cc_mult", "add"]
        # every count is fully emitted
        for p in PRIMITIVES:
            assert seq.count(p) == w.counts[p]

    def test_empty_workload(self):
        assert Workload("empty").op_sequence() == []


class TestBatchExecution:
    """Workloads really execute: ``Workload.to_plan`` lowers the bag
    over parallel lanes and ``PlanExecutor`` runs it batch-wise."""

    LANES = 2

    @pytest.fixture(scope="class")
    def context(self):
        from repro.ckks.context import CkksContext, toy_parameters

        return CkksContext(toy_parameters(n=64, k=3, prime_bits=30))

    def _execute(self, context, workload, seed, lanes=LANES):
        """(graph, run) of the workload over ``lanes`` fresh ciphertexts."""
        from repro.ckks.encoder import CkksEncoder
        from repro.ckks.encryptor import Encryptor
        from repro.ckks.keys import KeyGenerator
        from repro.plan import PlanExecutor
        from repro.plan.lower import fresh_lane_inputs

        keygen = KeyGenerator(context, seed=seed)
        encoder = CkksEncoder(context)
        encryptor = Encryptor(context, keygen.public_key(), seed=seed + 1)
        graph = workload.to_plan(lanes, context)
        inputs = fresh_lane_inputs(
            graph,
            lambda name: encryptor.encrypt(
                encoder.encode([(len(name) + i) / 16 for i in range(4)])
            ),
        )
        executor = PlanExecutor(
            context,
            relin_key=keygen.relin_key(),
            galois_keys=keygen.galois_keys([1]),
        )
        return graph, executor.run(graph, inputs)

    def test_executes_every_primitive(self, context):
        w = WorkloadGenerator.logistic_inference(8, 3)
        graph, run = self._execute(context, w, seed=5)
        planned = graph.op_counts()
        # every primitive of the bag is a plan node on every lane ...
        for primitive, op in (
            ("keyswitch", "rotate"),
            ("cc_mult", "square"),
            ("rescale", "rescale"),
            ("add", "add"),
        ):
            assert planned[op] == self.LANES * w.counts[primitive]
        # (level-drop rescales bring their own unit multiply)
        assert planned["mul_plain"] >= self.LANES * w.counts["cp_mult"]
        # ... and every node really executed, the parallel lanes packed
        executed = {}
        for step in run.steps:
            executed[step.op] = executed.get(step.op, 0) + step.width
        assert executed == {
            op: c for op, c in planned.items() if op not in ("input", "const")
        }
        assert run.packed_ops > 0
        assert run.compute_seconds > 0

    def test_scheduled_ops_carry_measured_times(self, context):
        w = WorkloadGenerator.dot_product(4)
        _, run = self._execute(context, w, seed=6, lanes=3)
        ops = run.scheduled_ops()
        assert len(ops) == run.step_count > 0
        assert all(op.compute_seconds > 0 for op in ops)
        assert all(op.input_bytes > 0 for op in ops)
        # keyswitch ops must be tagged for quadruple buffering
        kinds = {step.op: step.scheduled.kind for step in run.steps}
        assert kinds["rotate"] == "keyswitch"
        assert kinds["rescale"] == "ntt"
        assert kinds["add"] == "mult"

    def test_host_scheduler_consumes_execution(self, context):
        from repro.system.pcie import PcieModel, polynomial_bytes
        from repro.system.scheduler import HostScheduler

        w = WorkloadGenerator.polynomial_activation(2)
        _, run = self._execute(context, w, seed=7)
        scheduler = HostScheduler(
            PcieModel(peak_bytes_per_sec=15.75e9),
            message_bytes=polynomial_bytes(64),
        )
        sched_report = scheduler.run_executed(run)
        assert sched_report.ops == run.step_count
        assert sched_report.total_seconds >= run.compute_seconds

    def test_cross_backend_execution_bit_identical(self):
        """The executed stream ends in the same ciphertexts on every
        backend -- the system layer inherits the backend contract."""
        from repro.ckks.backend import available_backends, use_backend
        from repro.ckks.context import CkksContext, toy_parameters
        from repro.ckks.serialization import serialize_ciphertext

        if "numpy" not in available_backends():
            pytest.skip("numpy backend unavailable")
        w = WorkloadGenerator.logistic_inference(4, 2)

        def run(backend):
            with use_backend(backend):
                ctx = CkksContext(toy_parameters(n=64, k=3, prime_bits=30))
                _, executed = self._execute(ctx, w, seed=11)
                return {
                    name: serialize_ciphertext(ct)
                    for name, ct in executed.outputs.items()
                }

        assert run("numpy") == run("reference")

    def test_rescale_on_single_level_chain_rejected_up_front(self):
        """No reset can make a rescale executable on a one-prime chain:
        the lowering refuses before any ciphertext exists."""
        from repro.ckks.context import CkksContext, toy_parameters

        ctx = CkksContext(toy_parameters(n=64, k=1, prime_bits=30))
        with pytest.raises(ValueError, match="does not fit even on a fresh"):
            Workload("w", {"rescale": 1, "add": 1}).to_plan(2, ctx)
