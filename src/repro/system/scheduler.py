"""Host-side sequencing, batching, and buffer management (Section 5.2).

The host (SEAL application) queues homomorphic operations, batches their
polynomial transfers onto PCIe with eight interleaved threads, and hands
them to the FPGA, which consumes inputs from on-chip staging buffers:

* MULT inputs are **double buffered** -- the CPU writes one buffer while
  the FPGA reads the other.
* KeySwitch inputs are **quadruple buffered**: the delayed, synchronized
  input-polynomial DyadMult (Data Dependency 1, f1 = 4 for every Table 5
  design) keeps each input alive for up to four pipeline slots.
* Writers stall when the target buffer has not been consumed yet ("we
  stop the writing process if the buffer has not been read yet").

:class:`HostScheduler` is a small discrete-event simulation of this
producer/consumer system, reporting end-to-end time, the compute/transfer
overlap achieved, and writer stalls.  :class:`MemoryMap` models the
CPU-held map of ciphertexts parked in FPGA DRAM so follow-up operations
skip PCIe entirely (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.system.pcie import PcieModel, polynomial_bytes, polynomial_packed_bytes


@dataclass(frozen=True)
class ScheduledOp:
    """One accelerator operation from the host's point of view."""

    kind: str  # "mult" | "keyswitch" | "ntt"
    input_bytes: int
    output_bytes: int
    compute_seconds: float

    @classmethod
    def for_batch(
        cls,
        kind: str,
        n: int,
        input_polys: int,
        output_polys: int,
        compute_seconds: float,
        word_bits: int = 64,
    ) -> "ScheduledOp":
        """A batched operation moving whole residue polynomials.

        ``input_polys``/``output_polys`` count residue polynomials across
        the whole batch (batch size x ciphertext size x RNS level), so
        the transfer model sees exactly the PCIe traffic a batch incurs;
        ``compute_seconds`` is typically *measured* from a real
        batched execution (see :class:`repro.plan.PlanExecutor`).
        ``word_bits`` sets the per-residue transfer width: 64 is the v1
        whole-word wire format; a smaller width models wire-format-v2
        traffic bit-packed to the modulus width.
        """
        if word_bits == 64:
            poly = polynomial_bytes(n)
        else:
            poly = polynomial_packed_bytes(n, word_bits)
        return cls(
            kind,
            input_polys * poly,
            output_polys * poly,
            compute_seconds,
        )


@dataclass
class ScheduleReport:
    """Outcome of simulating an operation stream."""

    total_seconds: float
    compute_seconds: float
    transfer_seconds: float
    writer_stalls: int
    ops: int

    @property
    def compute_utilization(self) -> float:
        """Fraction of wall time the datapath was busy."""
        return self.compute_seconds / self.total_seconds if self.total_seconds else 0.0

    @property
    def overlap_efficiency(self) -> float:
        """1.0 means transfers fully hidden behind compute."""
        serial = self.compute_seconds + self.transfer_seconds
        return (serial - self.total_seconds) / self.transfer_seconds if self.transfer_seconds else 1.0


#: Buffer depth per op kind (double vs quadruple buffering).
BUFFER_DEPTH = {"mult": 2, "keyswitch": 4, "ntt": 2}


class HostScheduler:
    """Discrete-event simulation of the CPU->PCIe->FPGA pipeline."""

    def __init__(self, pcie: PcieModel, message_bytes: int):
        self.pcie = pcie
        self.message_bytes = message_bytes

    def run(self, ops: List[ScheduledOp]) -> ScheduleReport:
        """Simulate a stream of operations with per-kind input buffering.

        Transfers for op ``i+depth`` may overlap compute of op ``i`` but
        not overtake it by more than the buffer depth; the writer stalls
        (and we count it) when every buffer slot still holds unread data.
        """
        transfer_done = [0.0] * len(ops)
        compute_done = [0.0] * len(ops)
        writer_free_at = 0.0
        stalls = 0
        compute_total = 0.0
        transfer_total = 0.0
        for i, op in enumerate(ops):
            depth = BUFFER_DEPTH.get(op.kind, 2)
            t = self.pcie.transfer_time(op.input_bytes, self.message_bytes)
            transfer_total += t
            start_write = writer_free_at
            # Buffer back-pressure: slot (i mod depth) is free only after
            # the op that last used it finished computing.
            if i >= depth:
                if start_write < compute_done[i - depth]:
                    stalls += 1
                    start_write = compute_done[i - depth]
            transfer_done[i] = start_write + t
            writer_free_at = transfer_done[i]
            ready = transfer_done[i]
            prev_compute = compute_done[i - 1] if i else 0.0
            compute_start = max(ready, prev_compute)
            compute_done[i] = compute_start + op.compute_seconds
            compute_total += op.compute_seconds
        total = compute_done[-1] if ops else 0.0
        return ScheduleReport(
            total_seconds=total,
            compute_seconds=compute_total,
            transfer_seconds=transfer_total,
            writer_stalls=stalls,
            ops=len(ops),
        )

    def run_executed(self, execution) -> ScheduleReport:
        """Simulate a *measured* batch execution through the pipeline.

        ``execution`` is any object with a ``scheduled_ops()`` method
        returning the measured :class:`ScheduledOp` stream -- in practice
        a :class:`repro.plan.PlanRun` or a serving
        :class:`repro.serving.server.ServingReport`.  This is the bridge
        that lets the discrete-event model consume real compute times
        instead of analytic ones.
        """
        return self.run(execution.scheduled_ops())

    def batch_polynomials(self, n: int, count: int) -> List[int]:
        """Split ``count`` polynomials into PCIe messages of >= one poly.

        Implements "we transfer (at least) a complete polynomial in each
        request": messages are whole multiples of the polynomial size.
        """
        poly = polynomial_bytes(n)
        per_message = max(1, self.message_bytes // poly)
        sizes = []
        remaining = count
        while remaining > 0:
            take = min(per_message, remaining)
            sizes.append(take * poly)
            remaining -= take
        return sizes


class MemoryMap:
    """CPU-side map of ciphertexts resident in FPGA DRAM (Figure 7).

    Results that later operations will consume are parked in device DRAM
    instead of crossing PCIe back and forth; the host only keeps the
    address.
    """

    def __init__(self, dram_capacity_bytes: int):
        self.capacity = dram_capacity_bytes
        self._entries: Dict[str, Tuple[int, int]] = {}
        self._next_addr = 0

    @property
    def used_bytes(self) -> int:
        return sum(size for _, size in self._entries.values())

    def store(self, name: str, size_bytes: int) -> int:
        """Allocate a DRAM region for a ciphertext; returns its address."""
        if name in self._entries:
            raise KeyError(f"ciphertext {name!r} already mapped")
        if self.used_bytes + size_bytes > self.capacity:
            raise MemoryError("FPGA DRAM capacity exceeded")
        addr = self._next_addr
        self._entries[name] = (addr, size_bytes)
        self._next_addr += size_bytes
        return addr

    def address_of(self, name: str) -> int:
        return self._entries[name][0]

    def release(self, name: str) -> None:
        del self._entries[name]

    def saved_pcie_bytes(self, name: str, reuses: int) -> int:
        """PCIe traffic avoided by keeping this ciphertext device-side."""
        _, size = self._entries[name]
        return 2 * size * reuses  # skip both the read-back and the re-send
