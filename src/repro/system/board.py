"""FPGA board descriptions (Table 1)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.paper_data import TABLE1_BOARDS, BoardSpec


@dataclass(frozen=True)
class Board:
    """A board and its link characteristics."""

    spec: BoardSpec

    @property
    def pcie_bytes_per_sec(self) -> float:
        """Per-direction PCIe bandwidth in bytes/second."""
        return self.spec.pcie_gbps * 1e9

    @property
    def dram_bytes_per_sec(self) -> float:
        """Aggregate unidirectional DRAM bandwidth in bytes/second."""
        return self.spec.dram_bandwidth_gbps * 1e9


def get_board(device: str) -> Board:
    """Board model by device key ('Arria10' or 'Stratix10')."""
    try:
        return Board(TABLE1_BOARDS[device])
    except KeyError:
        raise ValueError(
            f"unknown device {device!r}; expected one of {sorted(TABLE1_BOARDS)}"
        ) from None
