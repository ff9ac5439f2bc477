"""FPGA resource estimation, calibrated against Tables 3, 4 and 6.

The model works at two granularities:

* **Module level** -- DSP usage is exactly ``nc x per-core DSP``
  (Table 3); REG/ALM are the per-core costs plus a control/MUX overhead
  that grows as ``O(nc log nc)`` (the customized multiplexer argument of
  Section 4.2).  Where the paper reports a module configuration directly
  (Table 4: 4/8/16/32 cores), the calibrated value is returned; other
  core counts use a least-squares fit of the overhead on
  ``(1, nc, nc log2(2 nc))`` over the Table 4 rows.
* **Design level** -- a complete HEAX instance is the KeySwitch
  architecture's modules + the standalone MULT module + the shell
  (Table 4, shell rows).  This composition reproduces the DSP column of
  Table 6 exactly (e.g. Arria 10 / Set-A: 832 + 352 + 1 = 1185).

BRAM is modelled structurally (polynomial/twiddle/accumulator/key
storage from :mod:`repro.core.memory` layouts); the paper's BRAM totals
additionally depend on how many key-switching keys were resident, which
Table 6 does not state -- EXPERIMENTS.md records the resulting deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.paper_data import (
    TABLE1_BOARDS,
    TABLE4_MODULES,
    TABLE4_SHELLS,
)
from repro.core.arch import KeySwitchArchitecture, STANDALONE_MODULE_CORES
from repro.core.cores import CORE_SPECS
from repro.core.memory import COEFF_BITS, MemoryLayout


@dataclass(frozen=True)
class ResourceVector:
    """A bundle of the five FPGA resource quantities."""

    dsp: int = 0
    reg: int = 0
    alm: int = 0
    bram_bits: int = 0
    m20k: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.dsp + other.dsp,
            self.reg + other.reg,
            self.alm + other.alm,
            self.bram_bits + other.bram_bits,
            self.m20k + other.m20k,
        )

    def scaled(self, factor: int) -> "ResourceVector":
        return ResourceVector(
            self.dsp * factor,
            self.reg * factor,
            self.alm * factor,
            self.bram_bits * factor,
            self.m20k * factor,
        )

    def utilization(self, device: str) -> Dict[str, float]:
        """Fractional utilization of a Table 1 board."""
        board = TABLE1_BOARDS[device]
        return {
            "dsp": self.dsp / board.dsp,
            "reg": self.reg / board.reg,
            "alm": self.alm / board.alm,
            "bram_bits": self.bram_bits / board.bram_bits,
            "m20k": self.m20k / board.m20k,
        }

    def fits(self, device: str) -> bool:
        return all(v <= 1.0 for v in self.utilization(device).values())


_KIND_ALIASES = {
    "ntt": "ntt",
    "intt": "intt",
    "mult": "mult",
    "dyad": "mult",  # DyadMult modules are MULT modules
    "ms": "mult",  # the final multiply-subtract layer uses dyadic cores
}

#: Table 4 reference ring size for its BRAM columns.
_TABLE4_N = 8192


def _core_for(kind: str):
    return CORE_SPECS["dyadic" if _KIND_ALIASES[kind] == "mult" else _KIND_ALIASES[kind]]


class _OverheadFit:
    """Least-squares REG/ALM overhead model ``a + b nc + c nc log2(2nc)``."""

    def __init__(self, kind: str):
        core = _core_for(kind)
        rows = [
            row
            for (k, nc), row in TABLE4_MODULES.items()
            if k == _KIND_ALIASES[kind]
        ]
        ncs = np.array([r.cores for r in rows], dtype=float)
        basis = np.stack(
            [np.ones_like(ncs), ncs, ncs * np.log2(2 * ncs)], axis=1
        )
        reg_overhead = np.array([r.reg - r.cores * core.reg for r in rows], dtype=float)
        alm_overhead = np.array([r.alm - r.cores * core.alm for r in rows], dtype=float)
        self.reg_coeffs, *_ = np.linalg.lstsq(basis, reg_overhead, rcond=None)
        self.alm_coeffs, *_ = np.linalg.lstsq(basis, alm_overhead, rcond=None)

    def overhead(self, nc: int) -> Tuple[int, int]:
        v = np.array([1.0, nc, nc * math.log2(2 * nc)])
        return (
            max(0, int(round(float(self.reg_coeffs @ v)))),
            max(0, int(round(float(self.alm_coeffs @ v)))),
        )


class ResourceModel:
    """Module- and design-level resource estimation."""

    def __init__(self):
        self._fits = {kind: _OverheadFit(kind) for kind in ("ntt", "intt", "mult")}

    # ------------------------------------------------------------------
    # module level
    # ------------------------------------------------------------------
    def module_resources(
        self, kind: str, num_cores: int, n: int = _TABLE4_N
    ) -> ResourceVector:
        """Resources of one module instance.

        ``kind`` is one of ``ntt``, ``intt``, ``mult`` (aliases ``dyad``,
        ``ms``).  Logic (DSP/REG/ALM) is ring-size independent; BRAM
        scales with ``n``.
        """
        base_kind = _KIND_ALIASES[kind]
        core = _core_for(base_kind)
        calibrated = TABLE4_MODULES.get((base_kind, num_cores))
        if calibrated is not None:
            reg, alm = calibrated.reg, calibrated.alm
        else:
            o_reg, o_alm = self._fits[base_kind].overhead(num_cores)
            reg = num_cores * core.reg + o_reg
            alm = num_cores * core.alm + o_alm
        dsp = num_cores * core.dsp
        bram_bits = self.module_bram_bits(base_kind, n)
        m20k = self.module_m20k(base_kind, num_cores, n)
        return ResourceVector(dsp, reg, alm, bram_bits, m20k)

    @staticmethod
    def module_bram_bits(kind: str, n: int) -> int:
        """Module-internal BRAM payload, scaled from the Table 4 reference.

        Table 4 reports per-module BRAM for n = 2^13 and notes it is
        core-count independent; all the stored structures (data, output,
        twiddle memories) are linear in n.
        """
        base = TABLE4_MODULES[(_KIND_ALIASES[kind], 8)].bram_bits
        return base * n // _TABLE4_N

    @staticmethod
    def module_m20k(kind: str, num_cores: int, n: int) -> int:
        """M20K units for one module: Table 4 calibration when available,
        otherwise the width-packing model of Section 4.2."""
        row = TABLE4_MODULES.get((_KIND_ALIASES[kind], num_cores))
        if row is not None and n == _TABLE4_N:
            return row.m20k
        # Structural fallback: data + output (2nc-wide MEs) and, for
        # transform modules, two twiddle memories (nc-wide MEs).
        data = MemoryLayout(n, min(2 * num_cores, n), COEFF_BITS)
        units = 2 * data.m20k_units
        if _KIND_ALIASES[kind] in ("ntt", "intt"):
            twiddle = MemoryLayout(n, min(num_cores, n), COEFF_BITS)
            units += 2 * twiddle.m20k_units
        return units

    # ------------------------------------------------------------------
    # design level
    # ------------------------------------------------------------------
    def keyswitch_resources(self, arch: KeySwitchArchitecture) -> ResourceVector:
        """Sum of every module instance of a Table 5 KeySwitch design."""
        total = ResourceVector()
        for kind, (count, nc) in (
            ("intt", arch.intt0),
            ("ntt", arch.ntt0),
            ("dyad", arch.dyad),
            ("intt", arch.intt1),
            ("ntt", arch.ntt1),
            ("ms", arch.ms),
        ):
            total = total + self.module_resources(kind, nc, arch.n).scaled(count)
        return total

    def complete_design(
        self,
        device: str,
        arch: KeySwitchArchitecture,
        resident_ksks: int = 1,
    ) -> ResourceVector:
        """Full HEAX instance: KeySwitch + standalone MULT + shell + keys.

        ``resident_ksks`` counts the key-switching keys held in on-chip
        BRAM (relinearization plus any rotation keys); the paper does not
        state how many were resident, so Table 6 BRAM comparisons treat
        this as a free parameter (EXPERIMENTS.md).
        """
        shell_spec = TABLE4_SHELLS[device]
        shell = ResourceVector(
            shell_spec.dsp,
            shell_spec.reg,
            shell_spec.alm,
            shell_spec.bram_bits,
            shell_spec.m20k,
        )
        total = (
            self.keyswitch_resources(arch)
            + self.module_resources(
                "mult", STANDALONE_MODULE_CORES[device]["dyadic"], arch.n
            )
            + shell
        )
        extra_bits = self.keyswitch_storage_bits(arch, resident_ksks)
        extra_m20k = extra_bits // (512 * 40)
        return ResourceVector(
            total.dsp,
            total.reg,
            total.alm,
            total.bram_bits + extra_bits,
            total.m20k + extra_m20k,
        )

    @staticmethod
    def keyswitch_storage_bits(
        arch: KeySwitchArchitecture, resident_ksks: int = 1
    ) -> int:
        """Design-level storage beyond module internals.

        * key-switching keys: ``k`` digits x 2 columns x (k+1) residues
          x n coefficients (only when resident on-chip);
        * the two accumulator bank sets: 2 x (k+1) polynomials;
        * ``f1`` input-polynomial buffers and ``f2`` DyadMult output
          buffers (Data Dependencies 1 and 2).
        """
        n, k = arch.n, arch.k
        poly_bits = n * COEFF_BITS
        ksk_bits = resident_ksks * k * 2 * (k + 1) * poly_bits
        accum_bits = 2 * (k + 1) * poly_bits
        f1_bits = arch.f1 * poly_bits
        f2_bits = arch.f2 * 2 * poly_bits
        return ksk_bits + accum_bits + f1_bits + f2_bits
