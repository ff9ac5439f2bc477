"""Calibrated model of the CPU baseline (SEAL 3.3, Xeon Silver 4108).

The paper measures single-threaded Microsoft SEAL at 1.80 GHz.  We cannot
rerun that exact binary, but its Table 7 primitive throughputs imply
remarkably stable per-element costs, which this model encodes:

* NTT/INTT:  time = c * n log2(n)    (c ~ 2.7 ns per butterfly across all
  three parameter sets: 7222 ops/s at n=2^12 -> 2.82 ns; 3437 at 2^13 ->
  2.73 ns; 1631 at 2^14 -> 2.67 ns)
* Dyadic:    time = c * n            (c ~ 6.6 ns per coefficient pair)

High-level operations are *composed* from primitive counts exactly as
Algorithm 7 executes them on a CPU (k INTTs, k*k NTTs because the i == j
transform is skipped, 2k(k+1) dyadic multiply-accumulates, and a final
two-polynomial Floor), which lands within ~20% of the paper's measured
Table 8 CPU rates -- close enough to reproduce every speedup trend.

Calibration constants are fitted from Table 7 at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.analysis.paper_data import TABLE7_LOW_LEVEL


def _fit_constant(values):
    return sum(values) / len(values)


@dataclass
class SealCpuModel:
    """Per-primitive cost model of SEAL on the paper's Xeon."""

    ntt_ns_per_unit: float = field(init=False)
    intt_ns_per_unit: float = field(init=False)
    dyadic_ns_per_coeff: float = field(init=False)

    def __post_init__(self):
        ntt, intt, dyad = [], [], []
        for row in TABLE7_LOW_LEVEL.values():
            if row.device != "Stratix10":
                continue  # the Arria row repeats the same CPU numbers
            n = {"Set-A": 4096, "Set-B": 8192, "Set-C": 16384}[row.param_set]
            units = n * math.log2(n)
            ntt.append(1e9 / row.ntt_cpu / units)
            intt.append(1e9 / row.intt_cpu / units)
            dyad.append(1e9 / row.dyadic_cpu / n)
        self.ntt_ns_per_unit = _fit_constant(ntt)
        self.intt_ns_per_unit = _fit_constant(intt)
        self.dyadic_ns_per_coeff = _fit_constant(dyad)

    # ------------------------------------------------------------------
    # primitive times (seconds)
    # ------------------------------------------------------------------
    def ntt_seconds(self, n: int) -> float:
        return self.ntt_ns_per_unit * n * math.log2(n) * 1e-9

    def intt_seconds(self, n: int) -> float:
        return self.intt_ns_per_unit * n * math.log2(n) * 1e-9

    def dyadic_seconds(self, n: int) -> float:
        return self.dyadic_ns_per_coeff * n * 1e-9

    # ------------------------------------------------------------------
    # composed operations (operation counts of Algorithms 5-7)
    # ------------------------------------------------------------------
    def keyswitch_seconds(self, n: int, k: int) -> float:
        """Algorithm 7 on the CPU.

        Per digit i: one INTT, (k-1) data-prime NTTs + 1 special NTT with
        the i == j case free (k NTTs counted as k per digit minus the
        reuse -> k*k total), 2(k+1) dyadic MACs; then the Floor tail:
        2 x (one INTT + k NTTs + k dyadic scalings).
        """
        main = (
            k * self.intt_seconds(n)
            + k * k * self.ntt_seconds(n)
            + 2 * k * (k + 1) * self.dyadic_seconds(n)
        )
        floor_tail = 2 * (
            self.intt_seconds(n)
            + k * self.ntt_seconds(n)
            + k * self.dyadic_seconds(n)
        )
        return main + floor_tail

    def multiply_seconds(self, n: int, k: int) -> float:
        """Algorithm 5: 4 dyadic products + 1 addition per RNS component."""
        return k * 4 * self.dyadic_seconds(n)

    def mult_relin_seconds(self, n: int, k: int) -> float:
        return self.multiply_seconds(n, k) + self.keyswitch_seconds(n, k)

    def rescale_seconds(self, n: int, k: int) -> float:
        """Algorithm 6: one INTT + (k-1) NTTs + (k-1) subtract/scale passes."""
        return (
            self.intt_seconds(n)
            + (k - 1) * self.ntt_seconds(n)
            + (k - 1) * self.dyadic_seconds(n)
        )

    # ------------------------------------------------------------------
    # ops/second view (comparable with Tables 7/8)
    # ------------------------------------------------------------------
    def low_level_row(self, n: int) -> Dict[str, float]:
        return {
            "NTT": 1.0 / self.ntt_seconds(n),
            "INTT": 1.0 / self.intt_seconds(n),
            "Dyadic": 1.0 / self.dyadic_seconds(n),
        }

    def high_level_row(self, n: int, k: int) -> Dict[str, float]:
        return {
            "KeySwitch": 1.0 / self.keyswitch_seconds(n, k),
            "MULT+ReLin": 1.0 / self.mult_relin_seconds(n, k),
        }
