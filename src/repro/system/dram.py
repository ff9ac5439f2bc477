"""Off-chip DRAM model and the Set-C key-streaming plan (Section 5.1).

For n = 2^14 the key-switching keys do not fit in BRAM; HEAX stores them
in DRAM because (i) ksk grows as O(n k^2) ~ O(n^3) -- the fastest-growing
memory component -- and (ii) each ksk element is read exactly once per
KeySwitch (twiddle factors, by contrast, are read k times each).

The keys are striped over all four DDR4 channels and streamed in burst
mode, fully pipelined with compute.  The paper's arithmetic:
two ksk column sets of k(k+1) n-word vectors = ~151 Mb must arrive
within one KeySwitch period (383 us at 2616 ops/s), requiring
>= 49.28 GB/s -- below the four channels' combined 64 GB/s.
:class:`KskStreamingPlan` reproduces exactly this calculation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class DramModel:
    """A bank of DDR channels with burst/random efficiency factors."""

    channels: int
    #: DDR4 per-channel unidirectional bandwidth on Board-B (Section 6.1).
    channel_bytes_per_sec = 16e9
    #: Efficiency of long burst-mode reads (row-activation overhead amortized).
    burst_efficiency = 0.94
    #: Random (non-burst) access efficiency, for the contrast case the paper
    #: cites when arguing against off-chip intermediate storage.
    random_efficiency = 0.15

    @property
    def peak_bytes_per_sec(self) -> float:
        return self.channels * self.channel_bytes_per_sec

    def streaming_bandwidth(self) -> float:
        """Achievable bytes/second for striped burst reads."""
        return self.peak_bytes_per_sec * self.burst_efficiency

    def random_bandwidth(self) -> float:
        """Achievable bytes/second for scattered intermediate-value I/O."""
        return self.peak_bytes_per_sec * self.random_efficiency


@dataclass(frozen=True)
class KskStreamingPlan:
    """The Section 5.1 requirement check for DRAM-resident ksk.

    Parameters mirror the paper's Set-C numbers: ``n = 2^14``, ``k = 8``,
    64-bit wire words, two column sets per KeySwitch.
    """

    n: int
    k: int
    keyswitch_ops_per_sec: float
    word_bits: int = 64
    column_sets = 2

    @property
    def bits_per_keyswitch(self) -> int:
        """Two sets of k(k+1) vectors of n words each."""
        return self.column_sets * self.k * (self.k + 1) * self.n * self.word_bits

    @property
    def budget_seconds(self) -> float:
        """One KeySwitch period -- the streaming deadline."""
        return 1.0 / self.keyswitch_ops_per_sec

    @property
    def required_bytes_per_sec(self) -> float:
        return self.bits_per_keyswitch / 8 / self.budget_seconds

    def feasible(self, dram: DramModel) -> bool:
        """Does the striped burst bandwidth cover the requirement?"""
        return dram.streaming_bandwidth() >= self.required_bytes_per_sec

    def summary(self, dram: DramModel) -> Dict[str, float]:
        return {
            "megabits_per_keyswitch": self.bits_per_keyswitch / 1e6,
            "budget_us": self.budget_seconds * 1e6,
            "required_gbps": self.required_bytes_per_sec / 1e9,
            "available_gbps": dram.streaming_bandwidth() / 1e9,
            "feasible": float(self.feasible(dram)),
        }
