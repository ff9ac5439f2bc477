"""Computation-core models: Dyadic, NTT and INTT cores.

Table 3 gives each core's FPGA footprint and pipeline depth:

    Core    DSP   REG    ALM    #Stages
    Dyadic  22    4526   1663   23
    NTT     10    6297   2066   50
    INTT    10    5449   2119   49

The functional methods compute exactly what the hardware datapath
computes -- a MulRed-based dyadic product (Figure 1's Dyadic core: two
operands, two precomputed ratios, one prime) or one butterfly of
Algorithm 3/4 (Figure 3's NTT core: two coefficients in, two out) -- so
the module simulators built from these cores can be checked bit-exactly
against :mod:`repro.ckks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.ckks.modarith import Modulus, MulRedConstant


@dataclass(frozen=True)
class CoreSpec:
    """Static per-core resource footprint and pipeline depth (Table 3)."""

    name: str
    dsp: int
    reg: int
    alm: int
    pipeline_stages: int


#: Table 3 verbatim.
CORE_SPECS: Dict[str, CoreSpec] = {
    "dyadic": CoreSpec("dyadic", dsp=22, reg=4526, alm=1663, pipeline_stages=23),
    "ntt": CoreSpec("ntt", dsp=10, reg=6297, alm=2066, pipeline_stages=50),
    "intt": CoreSpec("intt", dsp=10, reg=5449, alm=2119, pipeline_stages=49),
}


class DyadicCore:
    """One dyadic multiplier lane (Figure 1).

    Inputs per cycle: two coefficients, two precomputed MulRed ratios and
    the prime; output: ``op1 * op2 mod p``.  The hardware computes the
    product via the high/low word decomposition of Algorithm 2; here the
    same algorithm is invoked through :class:`MulRedConstant`.
    """

    spec = CORE_SPECS["dyadic"]

    def __init__(self, modulus: Modulus):
        self.modulus = modulus

    def compute(self, op1: int, op2: int) -> int:
        """Dyadic product of two already-reduced operands."""
        return self.modulus.mul(op1, op2)


class NTTCore:
    """One Cooley-Tukey butterfly lane (Figure 3).

    Per cycle: coefficients ``(a, b)``, twiddle ``w`` (+ its MulRed
    ratio), prime ``p``; outputs ``(a + w b, a - w b) mod p``.
    """

    spec = CORE_SPECS["ntt"]

    def __init__(self, modulus: Modulus):
        self.modulus = modulus

    def butterfly(self, a: int, b: int, twiddle: MulRedConstant) -> Tuple[int, int]:
        v = twiddle.mul(b)
        return self.modulus.add(a, v), self.modulus.sub(a, v)


class INTTCore:
    """One Gentleman-Sande butterfly lane with folded halving (Algorithm 4).

    Per cycle: ``(a, b)`` in, ``((a + b)/2, (a - b) * w) mod p`` out,
    where the stored ``w`` is an inverse twiddle pre-divided by two.
    """

    spec = CORE_SPECS["intt"]

    def __init__(self, modulus: Modulus):
        self.modulus = modulus

    def butterfly(self, a: int, b: int, twiddle_div2: MulRedConstant) -> Tuple[int, int]:
        m = self.modulus
        return m.div2(m.add(a, b)), twiddle_div2.mul(m.sub(a, b))
