"""Tests for the host scheduler, buffering, and DRAM memory map."""

import pytest

from repro.system.pcie import PcieModel, polynomial_bytes
from repro.system.scheduler import (
    BUFFER_DEPTH,
    HostScheduler,
    MemoryMap,
    ScheduledOp,
)


@pytest.fixture()
def scheduler():
    return HostScheduler(
        PcieModel(peak_bytes_per_sec=15.75e9), message_bytes=polynomial_bytes(8192)
    )


def keyswitch_op(compute_seconds=1 / 22536.0):
    size = 5 * polynomial_bytes(8192)
    return ScheduledOp("keyswitch", size, 2 * size, compute_seconds)


class TestBufferDepths:
    def test_double_buffering_for_mult(self):
        assert BUFFER_DEPTH["mult"] == 2

    def test_quadruple_buffering_for_keyswitch(self):
        """Section 5.2: KeySwitch needs quadruple buffering (f1 = 4)."""
        assert BUFFER_DEPTH["keyswitch"] == 4


class TestScheduling:
    def test_empty_stream(self, scheduler):
        report = scheduler.run([])
        assert report.total_seconds == 0.0
        assert report.ops == 0

    def test_single_op_serial(self, scheduler):
        op = keyswitch_op()
        report = scheduler.run([op])
        assert report.total_seconds == pytest.approx(
            scheduler.pcie.transfer_time(op.input_bytes, scheduler.message_bytes)
            + op.compute_seconds
        )

    def test_pipeline_hides_transfers(self, scheduler):
        """With compute >> transfer, steady-state wall time ~ compute."""
        ops = [keyswitch_op() for _ in range(50)]
        report = scheduler.run(ops)
        assert report.compute_utilization > 0.9
        serial = report.compute_seconds + report.transfer_seconds
        assert (serial - report.total_seconds) / report.transfer_seconds > 0.8

    def test_transfer_bound_stream(self, scheduler):
        """With compute << transfer, wall time ~ transfer total."""
        ops = [
            ScheduledOp("mult", 4 * polynomial_bytes(8192), 0, 1e-7)
            for _ in range(20)
        ]
        report = scheduler.run(ops)
        assert report.total_seconds >= 0.9 * report.transfer_seconds

    def test_stalls_counted_under_backpressure(self, scheduler):
        """Slow compute + fast writer => writer must stall on full buffers."""
        ops = [keyswitch_op(compute_seconds=1e-3) for _ in range(10)]
        report = scheduler.run(ops)
        assert report.writer_stalls > 0

    def test_compute_order_preserved(self, scheduler):
        ops = [keyswitch_op() for _ in range(5)]
        report = scheduler.run(ops)
        assert report.total_seconds >= 5 * ops[0].compute_seconds


class TestMemoryMap:
    def test_store_and_lookup(self):
        mm = MemoryMap(dram_capacity_bytes=1 << 30)
        addr = mm.store("ct0", 1 << 20)
        assert mm._entries["ct0"][0] == addr
        assert mm.used_bytes == 1 << 20

    def test_duplicate_name_rejected(self):
        mm = MemoryMap(1 << 30)
        mm.store("ct0", 1024)
        with pytest.raises(KeyError):
            mm.store("ct0", 1024)

    def test_capacity_enforced(self):
        mm = MemoryMap(1024)
        with pytest.raises(MemoryError):
            mm.store("big", 2048)

    def test_saved_pcie_traffic(self):
        """Keeping a ciphertext device-side saves 2x its size per reuse."""
        mm = MemoryMap(1 << 30)
        mm.store("ct", 1 << 20)
        assert mm.saved_pcie_bytes("ct", reuses=3) == 6 * (1 << 20)


class TestBatchScheduledOps:
    def test_for_batch_byte_accounting(self):
        op = ScheduledOp.for_batch(
            "keyswitch", 8192, input_polys=40, output_polys=16,
            compute_seconds=1e-3,
        )
        assert op.kind == "keyswitch"
        assert op.input_bytes == 40 * polynomial_bytes(8192)
        assert op.output_bytes == 16 * polynomial_bytes(8192)
        assert op.compute_seconds == 1e-3

    def test_run_executed_bridges_measured_streams(self, scheduler):
        class FakeExecution:
            def scheduled_ops(self):
                return [keyswitch_op() for _ in range(10)]

        report = scheduler.run_executed(FakeExecution())
        assert report.ops == 10
        assert report.compute_utilization > 0
