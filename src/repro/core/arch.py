"""KeySwitch architecture parameters and the balancing equations.

Section 4.3 ("Balancing Throughput") derives, for each FPGA and HE
parameter set, how many cores each pipeline component needs so that the
whole KeySwitch dataflow is rate-matched with no FIFO build-up:

* ``ncNTT0_total = k * ncINTT0``                -- one INTT triggers k NTTs
* split into ``m0`` modules of ``ncNTT0`` cores -- >32-core modules fail
  place-and-route and cost O(nc log nc) ALMs, so several smaller modules
  are preferred at the price of extra BRAM
* ``ncDYD >= 4 * ncNTT0 / log n``               -- DyadMult must keep up
  with each NTT module's output (two key columns per polynomial)
* ``ncINTT1 = ceil(ncINTT0 / k)``               -- the Floor tail sees one
  special-prime polynomial per k-iteration KeySwitch
* ``ncNTT1 = ncINTT0``
* ``ncMS  >= 2 * ncNTT1 / log n``               -- final multiply-subtract
* ``f1 = ceil(3 + ncINTT0 / ncNTT0)``           -- input-poly buffer depth
  (Data Dependency 1; evaluates to 4 for every Table 5 design, which is
  why Section 5.2 performs *quadruple* buffering)
* ``f2 = ceil(1 + m0 * ncINTT1 / ncNTT1 + ncINTT1 * log n / ncMS)``
                                                -- DyadMult output buffers
  (Data Dependency 2)

Core counts are rounded up to powers of two (hardware ME widths must be
powers of two).  :data:`TABLE5_ARCHITECTURES` records the paper's Table 5
verbatim; :func:`derive_architecture` re-derives configurations from the
equations so the bench can diff the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple


def ntt_cycles(n: int, num_cores: int) -> float:
    """Cycles for one NTT/INTT of size ``n`` with ``num_cores`` cores."""
    log_n = n.bit_length() - 1
    return n * log_n / (2 * num_cores)


def dyadic_cycles(n: int, num_cores: int) -> float:
    """Cycles for one dyadic product of a polynomial pair."""
    return n / num_cores


def next_power_of_two(x: int) -> int:
    """Smallest power of two >= x (x >= 1)."""
    if x < 1:
        raise ValueError("x must be positive")
    return 1 << (x - 1).bit_length()


@dataclass(frozen=True)
class KeySwitchArchitecture:
    """One row of Table 5: the module/core layout of a KeySwitch engine.

    ``(modules, cores)`` pairs follow the paper's notation
    ``m x NTT(nc)``: ``m`` independent module instances of ``nc`` cores.
    """

    name: str
    n: int
    k: int
    intt0: Tuple[int, int]  # (modules, cores) -- first INTT layer
    ntt0: Tuple[int, int]  # first NTT layer (fan-out to all primes)
    dyad: Tuple[int, int]  # DyadMult layer (incl. input-poly module)
    intt1: Tuple[int, int]  # Modulus-Switch INTT layer
    ntt1: Tuple[int, int]  # Modulus-Switch NTT layer
    ms: Tuple[int, int]  # final multiply-subtract (Mult) layer

    @property
    def log_n(self) -> int:
        return self.n.bit_length() - 1

    @property
    def nc_intt0(self) -> int:
        return self.intt0[1]

    @property
    def m0(self) -> int:
        """Number of first-layer NTT modules."""
        return self.ntt0[0]

    @property
    def nc_ntt0(self) -> int:
        return self.ntt0[1]

    @property
    def total_ntt0_cores(self) -> int:
        return self.ntt0[0] * self.ntt0[1]

    @property
    def f1(self) -> int:
        """Input-polynomial buffer multiplicity (Data Dependency 1)."""
        return math.ceil(3 + self.nc_intt0 / self.nc_ntt0)

    @property
    def f2(self) -> int:
        """DyadMult-output buffer multiplicity (Data Dependency 2)."""
        m0 = self.m0
        nc_intt1 = self.intt1[1]
        nc_ntt1 = self.ntt1[1]
        nc_ms = self.ms[1]
        return math.ceil(
            1 + m0 * nc_intt1 / nc_ntt1 + nc_intt1 * self.log_n / nc_ms
        )

    def stage_cycles(self) -> Dict[str, float]:
        """Cycles of one pass through one module of each Figure 5 layer:
        one transform per INTT/NTT module, one product against both key
        columns per DyadMult module, one prime per MS module."""
        n = self.n
        return {
            "INTT0": ntt_cycles(n, self.intt0[1]),
            "NTT0": ntt_cycles(n, self.ntt0[1]),
            "DyadMult": 2 * n / self.dyad[1],
            "INTT1": ntt_cycles(n, self.intt1[1]),
            "NTT1": ntt_cycles(n, self.ntt1[1]),
            "MS": dyadic_cycles(n, self.ms[1]),
        }

    def busy_cycles(self, level_count: int) -> Dict[str, float]:
        """Busy cycles of one module of each layer per key switch of a
        ``level_count``-prime polynomial: the INTT0 runs once per
        component, each of the ``m0`` NTT0 (and DyadMult) modules takes
        its share of the ``level_count`` fan-out transforms, the
        synchronized input-poly DyadMult runs once per component, and
        the Modulus-Switch tail runs once (INTT1, one poly per module)
        over ``level_count`` data primes (NTT1, MS)."""
        k, t = level_count, self.stage_cycles()
        per_module_transforms = k / self.m0
        return {
            "INTT0": k * t["INTT0"],
            "NTT0": k * per_module_transforms * t["NTT0"],
            "DyadMult": k * per_module_transforms * t["DyadMult"],
            "DyadMult(input)": k * t["DyadMult"],
            "INTT1": t["INTT1"],
            "NTT1": k * t["NTT1"],
            "MS": k * t["MS"],
        }

    def throughput_balanced(self) -> bool:
        """Check every rate inequality of Section 4.3.

        Returns True when each downstream layer consumes at least as fast
        as its producer, so the pipeline never accumulates backlog.
        """
        k, t = self.k, self.stage_cycles()
        # NTT0 must run k transforms per INTT0 output.
        if k * t["NTT0"] / self.m0 > t["INTT0"]:
            return False
        # Each Dyad module multiplies each NTT module's output by 2 keys.
        if t["DyadMult"] > t["NTT0"]:
            return False
        # The MS tail runs once per KeySwitch (k INTT0 iterations).
        keyswitch_cycles = k * t["INTT0"]
        if t["INTT1"] > keyswitch_cycles:
            return False
        if k * t["NTT1"] / self.ntt1[0] > keyswitch_cycles:
            return False
        return k * 2 * t["MS"] / self.ms[0] <= keyswitch_cycles

    def describe(self) -> str:
        """Render in the paper's Table 5 notation."""
        parts = [
            f"{self.intt0[0]}xINTT({self.intt0[1]})",
            f"{self.ntt0[0]}xNTT({self.ntt0[1]})",
            f"{self.dyad[0]}xDyad({self.dyad[1]})",
            f"{self.intt1[0]}xINTT({self.intt1[1]})",
            f"{self.ntt1[0]}xNTT({self.ntt1[1]})",
            f"{self.ms[0]}xMult({self.ms[1]})",
        ]
        return " -> ".join(parts)


def choose_module_split(total_ntt0_cores: int) -> int:
    """The paper's NTT0 module-split rule, inferred from Table 5.

    Every Table 5 design splits the first NTT layer into at least two
    modules of at most 16 cores (large modules cost O(nc log nc) ALMs
    and fail place-and-route beyond 32 cores): Set-A uses 2 modules,
    Set-B/C use 4.  Hence ``m0 = max(2, total / 16)`` whenever the split
    divides evenly, falling back to the largest feasible divisor.
    """
    if total_ntt0_cores < 2:
        return 1
    target = max(2, -(-total_ntt0_cores // 16))
    m0 = target
    while total_ntt0_cores % m0:
        m0 += 1
    return m0


def derive_architecture(
    name: str, n: int, k: int, nc_intt0: int, m0: int
) -> KeySwitchArchitecture:
    """Apply the Section 4.3 balancing equations.

    ``nc_intt0`` (the first INTT's core count) and ``m0`` (how many NTT0
    modules to split across) are the two free design choices; everything
    else follows.
    """
    log_n = n.bit_length() - 1
    total_ntt0 = k * nc_intt0
    if total_ntt0 % m0:
        raise ValueError("m0 must divide k * nc_intt0")
    nc_ntt0 = total_ntt0 // m0
    nc_dyd = next_power_of_two(math.ceil(4 * nc_ntt0 / log_n))
    nc_intt1 = math.ceil(nc_intt0 / k)
    nc_ntt1 = nc_intt0
    nc_ms = next_power_of_two(math.ceil(2 * nc_ntt1 / log_n))
    return KeySwitchArchitecture(
        name=name,
        n=n,
        k=k,
        intt0=(1, nc_intt0),
        ntt0=(m0, nc_ntt0),
        dyad=(m0 + 1, nc_dyd),
        intt1=(2, nc_intt1),
        ntt1=(2, nc_ntt1),
        ms=(2, nc_ms),
    )


#: Table 5 verbatim: KeySwitch architectures the paper instantiated.
TABLE5_ARCHITECTURES: Dict[Tuple[str, str], KeySwitchArchitecture] = {
    ("Arria10", "Set-A"): KeySwitchArchitecture(
        "Arria10/Set-A", 4096, 2,
        intt0=(1, 8), ntt0=(2, 8), dyad=(3, 4),
        intt1=(2, 4), ntt1=(2, 8), ms=(2, 2),
    ),
    ("Stratix10", "Set-A"): KeySwitchArchitecture(
        "Stratix10/Set-A", 4096, 2,
        intt0=(1, 16), ntt0=(2, 16), dyad=(3, 8),
        intt1=(2, 8), ntt1=(2, 16), ms=(2, 4),
    ),
    ("Stratix10", "Set-B"): KeySwitchArchitecture(
        "Stratix10/Set-B", 8192, 4,
        intt0=(1, 16), ntt0=(4, 16), dyad=(5, 8),
        intt1=(2, 4), ntt1=(2, 16), ms=(2, 4),
    ),
    ("Stratix10", "Set-C"): KeySwitchArchitecture(
        "Stratix10/Set-C", 16384, 8,
        intt0=(1, 8), ntt0=(4, 16), dyad=(5, 8),
        intt1=(2, 1), ntt1=(2, 8), ms=(2, 4),
    ),
}

#: MULT-module core counts used for the standalone low-level ops of
#: Table 7 ("On Stratix 10, 16-core modules are instantiated ... On Arria
#: 10, a 16-core MULT and 8-core NTT/INTT modules are used").
STANDALONE_MODULE_CORES: Dict[str, Dict[str, int]] = {
    "Arria10": {"ntt": 8, "intt": 8, "dyadic": 16},
    "Stratix10": {"ntt": 16, "intt": 16, "dyadic": 16},
}
