"""Discrete-event dataflow simulation of KeySwitch buffering.

Section 4.3 derives two buffer multiplicities from the pipeline's data
dependencies:

* **f1** input-polynomial buffers (Data Dependency 1): the synchronized
  input-poly DyadMult reads the op's input for the *k-th* time long
  after the next operations have started streaming in, so each input
  must stay resident across several pipeline slots.
* **f2** DyadMult-output buffers (Data Dependency 2): the accumulator
  contents feed the Modulus-Switch tail while subsequent operations are
  already overwriting the banks.

This module *validates* those formulas rather than restating them: a
discrete-event simulation runs a train of KeySwitch operations through
the stage schedule with a finite buffer pool and writer back-pressure
("we stop the writing process if the buffer has not been read yet").
With the provisioned buffer count the pipeline sustains its ideal
period; with fewer buffers the achieved period degrades -- exactly the
behaviour the f1/f2 sizing exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.arch import KeySwitchArchitecture


@dataclass
class DataflowReport:
    """Steady-state outcome of a buffered KeySwitch stream."""

    buffers: int
    ops: int
    ideal_period_cycles: float
    achieved_period_cycles: float
    writer_stall_cycles: float

    @property
    def throughput_loss(self) -> float:
        """Fractional slowdown vs the ideal pipeline period."""
        return self.achieved_period_cycles / self.ideal_period_cycles - 1.0

    @property
    def sustains_full_rate(self) -> bool:
        return self.throughput_loss < 1e-9


class KeySwitchDataflowSim:
    """Event-driven model of the input-buffer loop (Data Dependency 1)."""

    def __init__(self, arch: KeySwitchArchitecture):
        self.arch = arch
        t = arch.stage_cycles()
        self.t_intt0, self.t_ntt0, self.t_dyad = t["INTT0"], t["NTT0"], t["DyadMult"]
        #: ideal pipeline period: the INTT0 busy time per op.
        self.ideal_period = arch.busy_cycles(arch.k)["INTT0"]

    def input_lifetime(self) -> float:
        """Cycles an input polynomial must stay buffered.

        From the moment the writer hands it over until the k-th
        (synchronized) input-poly DyadMult finishes reading it: the k
        INTT0 iterations plus the NTT0 latency of the final iteration
        plus its DyadMult pass.
        """
        k = self.arch.k
        return k * self.t_intt0 + self.t_ntt0 + self.t_dyad

    def run(self, buffers: int, ops: int = 64, transfer_cycles: float = None) -> DataflowReport:
        """Stream ``ops`` KeySwitch operations through ``buffers`` slots.

        ``transfer_cycles`` models the PCIe write of one input.  The
        default is one pipeline period: at steady state the host streams
        exactly one input per KeySwitch slot (any faster and PCIe
        bandwidth is wasted; any slower and the link, not the buffers,
        is the bottleneck), so each buffer slot spends a full period
        being written before its lifetime as a readable input begins.
        """
        if buffers < 1:
            raise ValueError("need at least one buffer")
        if transfer_cycles is None:
            transfer_cycles = self.ideal_period
        lifetime = self.input_lifetime()
        # per-op events
        start = [0.0] * ops  # compute (INTT0) start
        freed = [0.0] * ops  # input buffer release (last input-dyad read)
        writer_free_at = 0.0
        stall = 0.0
        engine_free_at = 0.0
        for j in range(ops):
            # the writer may reuse slot (j - buffers) only after release
            earliest_write = writer_free_at
            if j >= buffers:
                if earliest_write < freed[j - buffers]:
                    stall += freed[j - buffers] - earliest_write
                    earliest_write = freed[j - buffers]
            transfer_done = earliest_write + transfer_cycles
            writer_free_at = transfer_done
            start[j] = max(transfer_done, engine_free_at)
            engine_free_at = start[j] + self.ideal_period
            freed[j] = start[j] + lifetime
        # steady-state period from the second half of the train
        half = ops // 2
        achieved = (start[ops - 1] - start[half]) / (ops - 1 - half)
        return DataflowReport(
            buffers=buffers,
            ops=ops,
            ideal_period_cycles=self.ideal_period,
            achieved_period_cycles=achieved,
            writer_stall_cycles=stall,
        )

    def minimum_sufficient_buffers(self) -> int:
        """Smallest buffer count (at most 16) that sustains the ideal period."""
        for b in range(1, 17):
            if self.run(b).sustains_full_rate:
                return b
        raise RuntimeError("no sufficient buffer count found")  # pragma: no cover


class AccumulatorDataflowSim:
    """Occupancy model for the DyadMult-output banks (Data Dependency 2).

    Each operation's accumulated polynomials live from their first
    DyadMult write until the Modulus-Switch tail finishes consuming
    them; consecutive operations arrive every pipeline period.  The
    peak number of concurrently-live operations bounds how many output
    buffer sets the design needs -- the quantity f2 provisions
    (in single-polynomial buffer units).
    """

    def __init__(self, arch: KeySwitchArchitecture):
        self.arch = arch
        busy = arch.busy_cycles(arch.k)
        self.period = busy["INTT0"]
        #: accumulate phase + MS tail
        self.lifetime = self.period + busy["INTT1"] + busy["NTT1"] + busy["MS"]

    def peak_live_operations(self) -> int:
        """Operations whose accumulator state is simultaneously live."""
        return -(-int(self.lifetime) // int(self.period))

    def required_buffer_polys(self) -> int:
        """Live ops x 2 column sets, in one-poly buffer units."""
        return self.peak_live_operations() * 2
