"""Application workloads expressed in accelerator-visible primitives.

The paper evaluates primitive throughput (Tables 7/8); real deployments
run *applications* -- encrypted inference, statistics, dot products --
that decompose into those primitives.  This module generates such
workloads and projects their end-to-end runtime on both the HEAX model
and the CPU baseline, closing the loop between the paper's
microbenchmarks and its MLaaS motivation.

A workload is a bag of primitive counts:

* ``keyswitch``  -- rotations and relinearizations (Algorithm 7);
* ``cc_mult``    -- ciphertext-ciphertext products (MULT module, 4
  dyadic passes per RNS component);
* ``cp_mult``    -- ciphertext-plaintext products (2 passes);
* ``rescale``    -- Algorithm 6 (one INTT + k-1 NTT per component pair);
* ``add``        -- additions (bandwidth-bound; negligible compute).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.arch import STANDALONE_MODULE_CORES
from repro.core.perf import PerformanceModel, dyadic_cycles, keyswitch_cycles, rescale_cycles
from repro.system.cpu_model import SealCpuModel

PRIMITIVES = ("keyswitch", "cc_mult", "cp_mult", "rescale", "add")


@dataclass
class Workload:
    """A named bag of primitive operation counts."""

    name: str
    counts: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for key in self.counts:
            if key not in PRIMITIVES:
                raise ValueError(f"unknown primitive {key!r}")
        for p in PRIMITIVES:
            self.counts.setdefault(p, 0)

    def __add__(self, other: "Workload") -> "Workload":
        merged = {p: self.counts[p] + other.counts[p] for p in PRIMITIVES}
        return Workload(f"{self.name}+{other.name}", merged)

    def scaled(self, factor: int) -> "Workload":
        return Workload(
            f"{factor}x {self.name}",
            {p: c * factor for p, c in self.counts.items()},
        )

    def op_sequence(self) -> List[str]:
        """Deterministic round-robin interleaving of the primitive bag.

        Interleaving (rather than emitting each kind in a block) is what
        the host actually does -- mixed op kinds keep the different
        accelerator input buffers busy simultaneously -- and it gives the
        plan executor chains where multiplications and key switches
        alternate naturally.
        """
        remaining = dict(self.counts)
        seq: List[str] = []
        while any(remaining.values()):
            for p in PRIMITIVES:
                if remaining[p]:
                    seq.append(p)
                    remaining[p] -= 1
        return seq


class WorkloadGenerator:
    """Builds workloads for the application patterns the paper motivates."""

    @staticmethod
    def dot_product(dim: int) -> Workload:
        """The primitives of :func:`repro.plan.lower.dot_plain`: one
        ``cp_mult`` + rescale, then one rotation and add per reduction
        step."""
        from repro.plan.lower import reduction_steps

        rotations = len(reduction_steps(dim))
        return Workload(
            f"dot-{dim}",
            {"keyswitch": rotations, "cp_mult": 1, "rescale": 1, "add": rotations},
        )

    @staticmethod
    def matvec(dim: int) -> Workload:
        """The primitives of :func:`repro.plan.lower.matvec_graph` on a
        dense matrix: ``dim - 1`` rotations, ``dim`` plaintext products
        summed, one rescale."""
        return Workload(
            f"matvec-{dim}",
            {"keyswitch": dim - 1, "cp_mult": dim, "rescale": 1, "add": dim - 1},
        )

    @staticmethod
    def polynomial_activation(degree: int) -> Workload:
        """Power-basis activation: degree-1 cc_mults (+relins), one
        cp_mult + rescale per nonzero term."""
        if degree < 1:
            raise ValueError("degree must be >= 1")
        return Workload(
            f"poly-{degree}",
            {
                "keyswitch": degree - 1,  # relinearizations
                "cc_mult": degree - 1,
                "cp_mult": degree,
                "rescale": 2 * degree - 1,
                "add": degree,
            },
        )

    @classmethod
    def logistic_inference(cls, dim: int, sigmoid_degree: int = 3) -> Workload:
        """One encrypted logistic-regression score (the paper's MLaaS
        scenario): dot product + bias + polynomial sigmoid."""
        w = cls.dot_product(dim) + cls.polynomial_activation(sigmoid_degree)
        w.name = f"logistic-{dim}d{sigmoid_degree}"
        return w

    @classmethod
    def dense_layer(cls, dim: int) -> Workload:
        """One square dense NN layer with a square (degree-2) activation."""
        w = cls.matvec(dim) + cls.polynomial_activation(2)
        w.name = f"dense-{dim}"
        return w


class RuntimeProjection:
    """Project a workload's runtime on HEAX and on the CPU baseline."""

    def __init__(self, device: str, n: int, k: int):
        self.device = device
        self.n = n
        self.k = k
        self.perf = PerformanceModel(device, n, k)
        self.cpu = SealCpuModel()

    # ------------------------------------------------------------------
    def heax_seconds(self, workload: Workload) -> float:
        """Steady-state pipelined time on the accelerator.

        KeySwitch ops run at the pipeline period; MULT/rescale work
        overlaps the KeySwitch pipeline unless it dominates, so the
        projection takes the max of the two streams (the device-level
        analogue of the Section 4.3 balance argument).
        """
        clock = self.perf.clock_hz
        arch = self.perf.arch
        ks = workload.counts["keyswitch"] * keyswitch_cycles(
            self.n, self.k, arch.nc_intt0
        )
        mult = (
            workload.counts["cc_mult"] * 4 * self.k
            + workload.counts["cp_mult"] * 2 * self.k
        ) * dyadic_cycles(self.n, STANDALONE_MODULE_CORES[self.device]["dyadic"])
        # Rescale reuses the KeySwitch engine's INTT/NTT modules.
        rescale = workload.counts["rescale"] * rescale_cycles(arch, self.k)
        return max(ks, mult + rescale) / clock

    def cpu_seconds(self, workload: Workload) -> float:
        c = workload.counts
        return (
            c["keyswitch"] * self.cpu.keyswitch_seconds(self.n, self.k)
            + c["cc_mult"] * self.cpu.multiply_seconds(self.n, self.k)
            + c["cp_mult"] * self.cpu.multiply_seconds(self.n, self.k) / 2
            + c["rescale"] * self.cpu.rescale_seconds(self.n, self.k)
            + c["add"] * self.cpu.dyadic_seconds(self.n) * self.k / 4
        )

    def speedup(self, workload: Workload) -> float:
        return self.cpu_seconds(workload) / self.heax_seconds(workload)

    def report_row(self, workload: Workload) -> List:
        return [
            workload.name,
            workload.counts["keyswitch"],
            workload.counts["cc_mult"] + workload.counts["cp_mult"],
            round(self.cpu_seconds(workload) * 1e3, 3),
            round(self.heax_seconds(workload) * 1e6, 1),
            round(self.speedup(workload), 1),
        ]
