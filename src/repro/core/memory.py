"""On-chip memory model: M20K units, word packing, memory elements.

Section 4.2 ("Memory Utilization and Word-Packing"):

* An **M20K** BRAM unit stores 512 words of 40 bits and supports one read
  and one write per cycle.
* A **memory element (ME)** is the aggregation of one row across the
  parallel BRAMs holding a polynomial; the optimized NTT pipeline stores
  ``2 * nc`` consecutive 54-bit coefficients per ME.
* Packing β coefficients into ``ceil(54β / 40)`` M20Ks reaches
  ``54β / (40 * ceil(54β / 40))`` width utilization (98%+ for β = 8)
  versus 68% for one-coefficient-per-BRAM.
* Depth-wise an M20K is fully used as long as ``n / β >= 512``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: M20K geometry (Section 6.1).
M20K_DEPTH = 512
M20K_WIDTH = 40
M20K_BITS = M20K_DEPTH * M20K_WIDTH

#: HEAX coefficient width.
COEFF_BITS = 54


@dataclass(frozen=True)
class MemoryLayout:
    """Physical layout of one logical memory holding ``n`` values.

    Parameters
    ----------
    n:
        Number of stored values (polynomial coefficients or twiddles).
    lanes:
        β -- how many values are packed side by side into one ME row.
    value_bits:
        Width of one stored value (54 for coefficients; twiddle entries
        pair the factor with its MulRed ratio elsewhere).
    """

    n: int
    lanes: int
    value_bits: int = COEFF_BITS

    def __post_init__(self):
        if self.n % self.lanes:
            raise ValueError("lane count must divide the value count")

    @property
    def row_bits(self) -> int:
        """Bits per ME row."""
        return self.lanes * self.value_bits

    @property
    def depth(self) -> int:
        """Number of ME rows."""
        return self.n // self.lanes

    @property
    def m20k_width_units(self) -> int:
        """Parallel M20K units needed for one row (width packing)."""
        return math.ceil(self.row_bits / M20K_WIDTH)

    @property
    def m20k_depth_units(self) -> int:
        """M20K stacks needed to cover the depth."""
        return math.ceil(self.depth / M20K_DEPTH)

    @property
    def m20k_units(self) -> int:
        """Total M20K units."""
        return self.m20k_width_units * self.m20k_depth_units

    @property
    def logical_bits(self) -> int:
        """Raw payload bits (the paper's "BRAM bits" accounting)."""
        return self.n * self.value_bits

    @property
    def width_utilization(self) -> float:
        """Fraction of M20K width carrying payload."""
        return self.row_bits / (self.m20k_width_units * M20K_WIDTH)

    @property
    def depth_utilization(self) -> float:
        """Fraction of M20K depth carrying payload."""
        return self.depth / (self.m20k_depth_units * M20K_DEPTH)

    @property
    def utilization(self) -> float:
        """Overall payload fraction of the allocated M20K bits."""
        return self.logical_bits / (self.m20k_units * M20K_BITS)


def naive_layout_utilization() -> float:
    """Width utilization of one 54-bit coefficient in two 40-bit BRAMs.

    The paper's contrast case: "By storing each coefficient in a separate
    physical BRAM, we will only reach 54 / (2*40) = 68% utilization."
    """
    return COEFF_BITS / (2 * M20K_WIDTH)


class BankedMemory:
    """A behavioural banked memory for the module simulators.

    Stores values as ME rows of ``lanes`` entries with one-read-one-write
    per cycle semantics per bank; the simulators charge one cycle per ME
    access, which is what makes their cycle counts meaningful.
    """

    def __init__(self, n: int, lanes: int, name: str = "mem"):
        if n % lanes:
            raise ValueError("lanes must divide n")
        self.n = n
        self.lanes = lanes
        self.name = name
        self.rows = [[0] * lanes for _ in range(n // lanes)]
        self.reads = 0
        self.writes = 0

    @property
    def depth(self) -> int:
        return len(self.rows)

    def load(self, values) -> None:
        """Bulk-load ``n`` values (row-major), no cycle accounting."""
        if len(values) != self.n:
            raise ValueError(f"{self.name}: expected {self.n} values")
        for r in range(self.depth):
            self.rows[r] = list(values[r * self.lanes : (r + 1) * self.lanes])

    def dump(self):
        """Return all values row-major (no cycle accounting)."""
        out = []
        for row in self.rows:
            out.extend(row)
        return out

    def read_row(self, addr: int):
        """Read one ME (counts one BRAM read)."""
        self.reads += 1
        return list(self.rows[addr])

    def write_row(self, addr: int, values) -> None:
        """Write one ME (counts one BRAM write)."""
        if len(values) != self.lanes:
            raise ValueError(f"{self.name}: ME width mismatch")
        self.writes += 1
        self.rows[addr] = list(values)

    def layout(self) -> MemoryLayout:
        return MemoryLayout(self.n, self.lanes)
