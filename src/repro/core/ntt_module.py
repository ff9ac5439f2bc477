"""Functional, cycle-accurate simulator of the HEAX NTT/INTT module.

Models the architecture of Section 4.2 / Figure 3:

* The polynomial lives in a banked **data memory** whose rows ("memory
  elements", MEs) hold ``2 * nc`` consecutive coefficients -- the doubled
  ME width of the *optimized* two-stage read/compute/write pipeline
  (Figure 4) that removes the 50% bubble of Type-1 stages.
* Each of the ``log n`` stages is processed in place in
  ``n / (2 nc)`` cycles, giving the paper's throughput formula
  ``n log n / (2 nc)`` cycles per transform.
* **Type 1 stages** (butterfly distance ``t >= 2 nc``): partners live in
  two different MEs; the module reads the pair over two cycles, computes
  ``2 nc`` butterflies over the next two, and writes both rows back.
  A single twiddle factor per ME pair is broadcast to every core.
* **Type 2 stages** (``t < 2 nc``): partners are within one ME; each row
  is read, permuted through the customized multiplexer network to the
  ``nc`` cores, and written back, one row per cycle.  Per-core twiddles
  are selected from the batched twiddle memories.
* The customized MUX network is modelled explicitly:
  :meth:`NTTModuleSim.mux_fanin_report` enumerates, for every core input,
  the set of ME lanes it must ever select from -- the quantity whose
  ``<= log(2 nc)`` bound justifies replacing the naive ``2nc:1``
  crossbar with small muxes.

The simulator is *functional*: it executes real butterflies via
:class:`repro.core.cores.NTTCore` and is asserted bit-exact against
:class:`repro.ckks.ntt.NTTTables` by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ckks.ntt import NTTTables
from repro.core.cores import CORE_SPECS, INTTCore, NTTCore
from repro.core.memory import BankedMemory, MemoryLayout


@dataclass
class StageStats:
    """Cycle/access accounting for one NTT stage."""

    index: int
    stage_type: int  # 1 or 2
    butterfly_distance: int
    cycles: int
    me_reads: int
    me_writes: int
    twiddle_reads: int


@dataclass
class TransformStats:
    """Aggregate accounting for one full transform."""

    n: int
    num_cores: int
    direction: str
    stages: List[StageStats] = field(default_factory=list)

    @property
    def throughput_cycles(self) -> int:
        """Steady-state cycles (the paper's ``n log n / (2 nc)``)."""
        return sum(s.cycles for s in self.stages)

    @property
    def latency_cycles(self) -> int:
        """Throughput cycles plus the core pipeline fill."""
        spec = CORE_SPECS["ntt" if self.direction == "forward" else "intt"]
        return self.throughput_cycles + spec.pipeline_stages

    @property
    def basic_pipeline_cycles(self) -> int:
        """Cycle count of the *un*-optimized pipeline (Figure 4, top).

        With single-width MEs, every Type-1 stage needs two reads before
        each batch of butterflies can start, halving core utilization for
        those stages.
        """
        total = 0
        for s in self.stages:
            total += s.cycles * (2 if s.stage_type == 1 else 1)
        return total


@dataclass(frozen=True)
class AccessEvent:
    """One scheduled ME access (used to render Figure 2)."""

    stage: int
    step: int
    stage_type: int
    me_addresses: Tuple[int, ...]
    twiddle_indices: Tuple[int, ...]


class NTTModuleSim:
    """Cycle-accurate NTT/INTT module with ``num_cores`` butterfly lanes."""

    def __init__(
        self,
        tables: NTTTables,
        num_cores: int,
        record_trace: bool = False,
    ):
        n = tables.n
        if num_cores < 1 or num_cores & (num_cores - 1):
            raise ValueError("core count must be a power of two")
        if 2 * num_cores > n:
            raise ValueError(f"{num_cores} cores need n >= {2 * num_cores}")
        self.tables = tables
        self.n = n
        self.log_n = n.bit_length() - 1
        self.nc = num_cores
        self.me_width = 2 * num_cores  # optimized doubled MEs
        self.depth = n // self.me_width
        self.record_trace = record_trace
        self.trace: List[AccessEvent] = []
        self._ntt_core = NTTCore(tables.modulus)
        self._intt_core = INTTCore(tables.modulus)
        self.data_memory = BankedMemory(n, self.me_width, "data")
        self.output_memory = BankedMemory(n, self.me_width, "output")
        # Twiddle memories hold (factor, ratio) pairs batched nc-wide.
        self.twiddle_layout = MemoryLayout(n, num_cores)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run_forward(self, values: Sequence[int]) -> Tuple[List[int], TransformStats]:
        """Transform standard-order input; bit-reversed output (Alg 3)."""
        return self._run(values, forward=True)

    def run_inverse(self, values: Sequence[int]) -> Tuple[List[int], TransformStats]:
        """Transform bit-reversed input; standard-order output (Alg 4)."""
        return self._run(values, forward=False)

    def expected_throughput_cycles(self) -> int:
        """The closed-form ``n log n / (2 nc)`` the simulator must match."""
        return self.n * self.log_n // (2 * self.nc)

    # ------------------------------------------------------------------
    # stage schedule
    # ------------------------------------------------------------------
    def _stage_distances(self, forward: bool) -> List[int]:
        """Butterfly partner distances per stage, in execution order."""
        dists = [self.n >> (i + 1) for i in range(self.log_n)]
        return dists if forward else list(reversed(dists))

    def stage_type(self, distance: int) -> int:
        """Type 1 when partners span MEs, else Type 2."""
        return 1 if distance >= self.me_width else 2

    def _run(self, values, forward: bool) -> Tuple[List[int], TransformStats]:
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} coefficients")
        self.trace = []
        self.data_memory.load(list(values))
        stats = TransformStats(
            self.n, self.nc, "forward" if forward else "inverse"
        )
        distances = self._stage_distances(forward)
        for idx, t in enumerate(distances):
            last = idx == len(distances) - 1
            if self.stage_type(t) == 1:
                st = self._run_type1_stage(idx, t, forward, last)
            else:
                st = self._run_type2_stage(idx, t, forward, last)
            stats.stages.append(st)
        out = self.output_memory.dump()
        return out, stats

    # ------------------------------------------------------------------
    # butterflies
    # ------------------------------------------------------------------
    def _twiddle_index(self, coeff_index: int, distance: int, forward: bool) -> int:
        """Table index of the twiddle driving this butterfly.

        For a stage with partner distance ``t`` the coefficient block of
        size ``2t`` starting at ``2t * g`` belongs to group ``g``; the
        forward (CT) schedule with ``m`` groups uses ``root_powers[m+g]``
        and the inverse (GS) schedule with ``h`` groups uses
        ``inv_root_powers_div2[h+g]`` -- both equal ``n/(2t) + g``.
        """
        del forward  # identical indexing either direction
        groups = self.n // (2 * distance)
        return groups + coeff_index // (2 * distance)

    def _butterfly(self, a: int, b: int, tw_index: int, forward: bool) -> Tuple[int, int]:
        if forward:
            return self._ntt_core.butterfly(a, b, self.tables.root_powers[tw_index])
        return self._intt_core.butterfly(
            a, b, self.tables.inv_root_powers_div2[tw_index]
        )

    # ------------------------------------------------------------------
    # Type 1: partners in different MEs
    # ------------------------------------------------------------------
    def _run_type1_stage(
        self, stage_idx: int, t: int, forward: bool, last: bool
    ) -> StageStats:
        W = self.me_width
        stride = t // W  # partner offset in ME units
        cycles = me_reads = me_writes = twiddle_reads = 0
        step = 0
        for base in range(self.depth):
            if (base // stride) % 2 == 1:
                continue  # this ME is a partner, handled with its upper half
            partner = base + stride
            row_a = self.data_memory.read_row(base)
            row_b = self.data_memory.read_row(partner)
            me_reads += 2
            # One twiddle broadcast: all 2nc butterflies of this ME pair
            # share a group because the group block (2t >= 2W) covers both
            # rows entirely.
            tw = self._twiddle_index(base * W, t, forward)
            twiddle_reads += 1
            out_a, out_b = [], []
            for lane in range(W):
                ra, rb = self._butterfly(row_a[lane], row_b[lane], tw, forward)
                out_a.append(ra)
                out_b.append(rb)
            target = self.output_memory if last else self.data_memory
            target.write_row(base, out_a)
            target.write_row(partner, out_b)
            me_writes += 2
            cycles += 2  # 2nc butterflies at nc lanes/cycle, fully pipelined
            if self.record_trace:
                self.trace.append(
                    AccessEvent(stage_idx, step, 1, (base, partner), (tw,))
                )
            step += 1
        return StageStats(stage_idx, 1, t, cycles, me_reads, me_writes, twiddle_reads)

    # ------------------------------------------------------------------
    # Type 2: partners inside one ME
    # ------------------------------------------------------------------
    def type2_core_sources(self, t: int) -> List[Tuple[int, int]]:
        """Lane pair feeding each core in a Type-2 stage of distance ``t``.

        Core ``c`` computes butterfly ``(l, l + t)`` with
        ``l = (c // t) * 2t + (c % t)`` -- the in-row pairing the
        customized MUX network must realize.
        """
        return [
            ((c // t) * 2 * t + (c % t), (c // t) * 2 * t + (c % t) + t)
            for c in range(self.nc)
        ]

    def _run_type2_stage(
        self, stage_idx: int, t: int, forward: bool, last: bool
    ) -> StageStats:
        W = self.me_width
        cycles = me_reads = me_writes = twiddle_reads = 0
        sources = self.type2_core_sources(t)
        for addr in range(self.depth):
            row = self.data_memory.read_row(addr)
            me_reads += 1
            out = list(row)
            tw_used: Set[int] = set()
            for lane_a, lane_b in sources:
                tw = self._twiddle_index(addr * W + lane_a, t, forward)
                tw_used.add(tw)
                out[lane_a], out[lane_b] = self._butterfly(
                    row[lane_a], row[lane_b], tw, forward
                )
            # Batched twiddle memory: one ME fetch covers up to nc factors.
            twiddle_reads += -(-len(tw_used) // self.nc)
            target = self.output_memory if last else self.data_memory
            target.write_row(addr, out)
            me_writes += 1
            cycles += 1  # nc butterflies per cycle
            if self.record_trace:
                self.trace.append(
                    AccessEvent(
                        stage_idx, addr, 2, (addr,), tuple(sorted(tw_used))
                    )
                )
        return StageStats(stage_idx, 2, t, cycles, me_reads, me_writes, twiddle_reads)

    # ------------------------------------------------------------------
    # MUX network analysis
    # ------------------------------------------------------------------
    def mux_fanin_report(self) -> Dict[str, int]:
        """Fan-in each core input needs across all Type-2 stages.

        Returns the maximum number of distinct ME lanes any single core
        input must select from.  The paper's customized-MUX argument is
        that this is at most ``log(2 nc)`` possibilities (versus the
        ``2 nc`` of a naive crossbar), keeping MUX area ``O(nc log nc)``.
        """
        fanin_a: List[Set[int]] = [set() for _ in range(self.nc)]
        fanin_b: List[Set[int]] = [set() for _ in range(self.nc)]
        t = self.me_width >> 1
        while t >= 1:
            for core, (la, lb) in enumerate(self.type2_core_sources(t)):
                fanin_a[core].add(la)
                fanin_b[core].add(lb)
            t >>= 1
        max_fanin = max(
            max(len(s) for s in fanin_a), max(len(s) for s in fanin_b)
        )
        naive = 2 * self.nc
        return {
            "max_fanin": max_fanin,
            "naive_crossbar_inputs": naive,
            "total_mux_inputs": sum(len(s) for s in fanin_a + fanin_b),
            "naive_total_inputs": 2 * self.nc * naive,
        }

    def describe(self) -> str:
        """One-line structural summary (Figure 3 rendered as text)."""
        return (
            f"NTT module: {self.nc} cores, ME width {self.me_width}, "
            f"data mem {self.depth}x{self.me_width}, "
            f"{self.log_n} stages "
            f"({sum(1 for i in range(self.log_n) if (self.n >> (i + 1)) >= self.me_width)}"
            f" Type-1 + rest Type-2)"
        )
