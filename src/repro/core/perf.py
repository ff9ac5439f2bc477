"""Closed-form performance model, validated against Tables 7 and 8.

Every HEAX throughput number in the paper is a deterministic function of
the architecture:

* NTT/INTT:   ``n log n / (2 nc)`` cycles per transform
* Dyadic:     ``n / nc`` cycles per polynomial pair
* KeySwitch:  ``k * n log n / (2 nc_INTT0)`` cycles per operation
  (the first INTT module is the pipeline bottleneck of every balanced
  Table 5 design)
* MULT+ReLin: pipelined behind KeySwitch, hence the same steady-state
  rate

at 275 MHz (Arria 10) / 300 MHz (Stratix 10).  For example Stratix 10 /
Set-A NTT: ``4096 * 12 / 32 = 1536`` cycles -> ``300e6 / 1536 = 195312``
ops/s, matching Table 7's 195313.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.arch import (
    KeySwitchArchitecture,
    STANDALONE_MODULE_CORES,
    TABLE5_ARCHITECTURES,
)

#: Final achieved clock frequencies (Section 6.3).
CLOCK_HZ: Dict[str, float] = {
    "Arria10": 275e6,
    "Stratix10": 300e6,
}


def ntt_cycles(n: int, num_cores: int) -> float:
    """Cycles for one NTT/INTT of size ``n`` with ``num_cores`` cores."""
    log_n = n.bit_length() - 1
    return n * log_n / (2 * num_cores)


def dyadic_cycles(n: int, num_cores: int) -> float:
    """Cycles for one dyadic product of a polynomial pair."""
    return n / num_cores


def keyswitch_cycles(n: int, k: int, nc_intt0: int) -> float:
    """Steady-state cycles per KeySwitch for a balanced design.

    The first INTT runs once per RNS component (``k`` iterations), and
    every other layer is provisioned to keep up, so the INTT0 busy time
    is the pipeline period.
    """
    return k * ntt_cycles(n, nc_intt0)


def rescale_cycles(arch: KeySwitchArchitecture, level_count: int) -> float:
    """Cycles for one rescale (Algorithm 6) on the KeySwitch engine's
    transform modules: one INTT plus ``level_count - 1`` NTTs per
    polynomial, both polynomials."""
    return 2 * (
        ntt_cycles(arch.n, arch.nc_intt0)
        + (level_count - 1) * ntt_cycles(arch.n, arch.ntt1[1])
    )


@dataclass(frozen=True)
class PerformanceModel:
    """HEAX throughputs for one (device, parameter set) instantiation."""

    device: str
    n: int
    k: int

    @property
    def clock_hz(self) -> float:
        return CLOCK_HZ[self.device]

    @property
    def arch(self) -> KeySwitchArchitecture:
        set_name = {4096: "Set-A", 8192: "Set-B", 16384: "Set-C"}[self.n]
        return TABLE5_ARCHITECTURES[(self.device, set_name)]

    # -- low-level (Table 7) -------------------------------------------
    def _standalone_cores(self, op: str) -> int:
        return STANDALONE_MODULE_CORES[self.device][op]

    def ntt_ops_per_sec(self, num_cores: int = None) -> float:
        nc = num_cores or self._standalone_cores("ntt")
        return self.clock_hz / ntt_cycles(self.n, nc)

    def intt_ops_per_sec(self, num_cores: int = None) -> float:
        nc = num_cores or self._standalone_cores("intt")
        return self.clock_hz / ntt_cycles(self.n, nc)

    def dyadic_ops_per_sec(self, num_cores: int = None) -> float:
        nc = num_cores or self._standalone_cores("dyadic")
        return self.clock_hz / dyadic_cycles(self.n, nc)

    # -- high-level (Table 8) ------------------------------------------
    def keyswitch_ops_per_sec(self) -> float:
        return self.clock_hz / keyswitch_cycles(self.n, self.k, self.arch.nc_intt0)

    def mult_relin_ops_per_sec(self) -> float:
        """MULT+ReLin rate: the MULT module overlaps the KeySwitch
        pipeline, so the composite rate equals the KeySwitch rate."""
        return self.keyswitch_ops_per_sec()

    # -- reporting ------------------------------------------------------
    def low_level_row(self) -> Dict[str, float]:
        return {
            "NTT": self.ntt_ops_per_sec(),
            "INTT": self.intt_ops_per_sec(),
            "Dyadic": self.dyadic_ops_per_sec(),
        }

    def high_level_row(self) -> Dict[str, float]:
        return {
            "KeySwitch": self.keyswitch_ops_per_sec(),
            "MULT+ReLin": self.mult_relin_ops_per_sec(),
        }


#: The four (device, set) rows evaluated in Tables 7/8.
EVALUATED_CONFIGS = [
    ("Arria10", 4096, 2),
    ("Stratix10", 4096, 2),
    ("Stratix10", 8192, 4),
    ("Stratix10", 16384, 8),
]


def all_performance_models():
    """PerformanceModel for every evaluated (device, set) combination."""
    return [PerformanceModel(d, n, k) for d, n, k in EVALUATED_CONFIGS]
