"""Top-level HEAX device model.

Binds together one board (Table 1), one HE parameter set (Table 2), the
matching KeySwitch architecture (Table 5), the performance model
(Tables 7/8) and the resource model (Table 6), and -- when given a CKKS
context -- executes operations *functionally* through the module
simulators while accounting cycles and host transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.paper_data import TABLE1_BOARDS, TABLE2_PARAM_SETS
from repro.ckks.context import CkksContext
from repro.ckks.keys import KswitchKey
from repro.ckks.poly import RnsPolynomial
from repro.core.arch import (
    KeySwitchArchitecture,
    STANDALONE_MODULE_CORES,
    TABLE5_ARCHITECTURES,
)
from repro.core.keyswitch_module import KeySwitchModuleSim, KeySwitchStats
from repro.core.perf import PerformanceModel
from repro.core.resources import ResourceModel, ResourceVector


@dataclass
class OpCounters:
    """Running operation/cycle tallies for an accelerator instance."""

    ntt_ops: int = 0
    dyadic_ops: int = 0
    keyswitch_ops: int = 0
    total_cycles: float = 0.0


class HeaxAccelerator:
    """One HEAX instantiation: (device, parameter set)."""

    def __init__(
        self,
        device: str,
        param_set: str,
        context: Optional[CkksContext] = None,
    ):
        if device not in TABLE1_BOARDS:
            raise ValueError(f"unknown device {device!r}")
        if (device, param_set) not in TABLE5_ARCHITECTURES:
            raise ValueError(
                f"the paper provides no architecture for {device}/{param_set}"
            )
        self.device = device
        self.param_set = param_set
        self.board = TABLE1_BOARDS[device]
        self.spec = TABLE2_PARAM_SETS[param_set]
        self.arch: KeySwitchArchitecture = TABLE5_ARCHITECTURES[(device, param_set)]
        self.perf = PerformanceModel(device, self.spec.n, self.spec.k)
        self.resources = ResourceModel()
        self.context = context
        self.counters = OpCounters()
        self._keyswitch_sim = (
            KeySwitchModuleSim(context, self.arch) if context is not None else None
        )

    # ------------------------------------------------------------------
    # throughput surface (Tables 7/8)
    # ------------------------------------------------------------------
    @property
    def clock_hz(self) -> float:
        return self.perf.clock_hz

    # ------------------------------------------------------------------
    # functional execution (requires a context)
    # ------------------------------------------------------------------
    def _require_context(self) -> CkksContext:
        if self.context is None:
            raise RuntimeError(
                "functional execution needs a CkksContext; construct the "
                "accelerator with one"
            )
        return self.context

    def execute_keyswitch(
        self, target: RnsPolynomial, ksk: KswitchKey
    ) -> Tuple[Tuple[RnsPolynomial, RnsPolynomial], KeySwitchStats]:
        """Run Algorithm 7 through the KeySwitch module simulator."""
        self._require_context()
        result, stats = self._keyswitch_sim.run(target, ksk)
        self.counters.keyswitch_ops += 1
        self.counters.total_cycles += stats.throughput_cycles
        return result, stats

    # ------------------------------------------------------------------
    # resources & reporting
    # ------------------------------------------------------------------
    def resource_vector(self, resident_ksks: int = 1) -> ResourceVector:
        return self.resources.complete_design(
            self.device, self.arch, resident_ksks=resident_ksks
        )

    def utilization(self, resident_ksks: int = 1) -> Dict[str, float]:
        return self.resource_vector(resident_ksks).utilization(self.device)

    def describe(self) -> str:
        """Text rendering of the block structure (Figures 1/3/5/7)."""
        mult_nc = STANDALONE_MODULE_CORES[self.device]["dyadic"]
        ks = self.arch
        lines = [
            f"HEAX on {self.board.chip} ({self.device}), {self.param_set}: "
            f"n=2^{int(math.log2(self.spec.n))}, k={self.spec.k}, "
            f"clock {self.clock_hz / 1e6:.0f} MHz",
            f"  MULT module: {mult_nc} Dyadic cores "
            f"(ct1/ct2 banked BRAM -> {mult_nc}-wide dyadic lanes -> output bank)",
            f"  KeySwitch module: {ks.describe()}",
            f"    buffers: f1={ks.f1} input-poly, f2={ks.f2} DyadMult-output",
            f"  Host link: PCIe Gen3 x{self.board.pcie_lanes} "
            f"({self.board.pcie_gbps:.2f} GB/s each way); "
            f"DRAM: {self.board.dram_channels} channels, "
            f"{self.board.dram_bandwidth_gbps:.0f} GB/s aggregate",
        ]
        return "\n".join(lines)
