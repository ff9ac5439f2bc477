"""Functional, pipelined simulator of the HEAX KeySwitch module.

Models Section 4.3 / Figures 5 and 6.  The dataflow for one key switch of
a level-``k`` polynomial (all data kept in NTT form, one RNS component
entering at a time):

1. **INTT0** -- the incoming component ``c_i`` returns to coefficient
   form (Algorithm 7, line 3).
2. **NTT0 layer** (``m0`` modules) -- the coefficient polynomial is
   reduced mod every *other* prime (including the special prime) and
   transformed back (lines 6-7); the ``i == j`` case reuses the input
   (line 9).
3. **DyadMult layer** (``m0 + 1`` modules) -- products against both key
   columns accumulate into two BRAM bank sets (lines 11-12, 16-17); the
   extra module handles the original input polynomial and is
   *synchronized* with the others, which is what creates Data
   Dependency 1 and the ``f1`` input buffers.
4. After ``k`` iterations, **Modulus Switch**: INTT1 brings the
   special-prime row back to coefficient form, NTT1 re-expands it to all
   data primes, and the MS module multiplies by ``p^{-1}`` and subtracts
   (Algorithm 7 line 19 / Algorithm 6), producing Output Poly 0/1.

The functional path is asserted equal to
:meth:`repro.ckks.evaluator.Evaluator.keyswitch_polynomial`; the timing
path implements the Section 4.3 rate equations, reproducing the
KeySwitch throughput of Table 8 (``k * n log n / (2 nc_INTT0)`` cycles
per operation for the balanced designs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ckks.context import CkksContext
from repro.ckks.keys import KswitchKey
from repro.ckks.poly import RnsPolynomial, restrict_to_moduli
from repro.core.arch import KeySwitchArchitecture


@dataclass(frozen=True)
class PipelineInterval:
    """One module-occupancy interval (used to render Figure 6)."""

    module: str
    op_index: int
    start: float
    end: float
    label: str


@dataclass
class KeySwitchStats:
    """Timing summary of one (or a train of) KeySwitch operations."""

    n: int
    level_count: int
    arch_name: str
    stage_busy_cycles: Dict[str, float]
    throughput_cycles: float
    latency_cycles: float
    timeline: List[PipelineInterval] = field(default_factory=list)

    @property
    def bottleneck(self) -> str:
        return max(self.stage_busy_cycles, key=self.stage_busy_cycles.get)


class KeySwitchModuleSim:
    """KeySwitch engine for one architecture over one CKKS context."""

    def __init__(self, context: CkksContext, arch: KeySwitchArchitecture):
        if context.n != arch.n and context.n >= 4096:
            raise ValueError(
                f"architecture {arch.name} is for n={arch.n}, context has "
                f"n={context.n}"
            )
        self.context = context
        self.arch = arch

    # ------------------------------------------------------------------
    # functional path (bit-exact vs the evaluator)
    # ------------------------------------------------------------------
    def run(
        self, target: RnsPolynomial, ksk: KswitchKey
    ) -> Tuple[Tuple[RnsPolynomial, RnsPolynomial], KeySwitchStats]:
        """Key-switch one NTT-form polynomial; return outputs and stats."""
        ctx = self.context
        if not target.is_ntt:
            raise ValueError("KeySwitch input must be in NTT form")
        lc = target.level_count
        data_moduli = list(target.moduli)
        special = ctx.special_modulus
        ext_moduli = data_moduli + [special]
        n = target.n

        be = ctx.backend
        zeros = be.from_rows([[0] * n for _ in ext_moduli])
        # Two accumulation bank sets (Figure 5 "Output Mem" BRAM banks).
        acc0, acc1 = zeros, zeros
        for i, p_i in enumerate(data_moduli):
            c_i = be.select_rows(target.rows, [i])
            # --- INTT0 -----------------------------------------------
            a = be.ntt_inverse_stack(ctx.tables(p_i), c_i)
            # --- NTT0 fan-out: one row per extended-basis prime --------
            def fan_out(m_j):
                if m_j.value == p_i.value:
                    return c_i  # the synchronized input-poly DyadMult module
                return be.ntt_forward_stack(
                    ctx.tables(m_j), be.reduce_mod_stack(m_j, a)
                )

            fan = be.from_rows([fan_out(m_j)[0] for m_j in ext_moduli])
            # --- DyadMult accumulation against both key columns -------
            key0, key1 = (
                restrict_to_moduli(d, ext_moduli, backend=be).rows
                for d in ksk.digit(i)
            )
            acc0 = be.dyadic_mac_rows(ext_moduli, acc0, fan, key0)
            acc1 = be.dyadic_mac_rows(ext_moduli, acc1, fan, key1)

        # --- Modulus Switch (INTT1 -> NTT1 -> MS) ---------------------
        out0 = self._modulus_switch(acc0, ext_moduli)
        out1 = self._modulus_switch(acc1, ext_moduli)
        stats = self.timing(level_count=lc)
        return (out0, out1), stats

    def _modulus_switch(self, acc, moduli) -> RnsPolynomial:
        """Floor by the special prime (Algorithm 6 on the accumulator)."""
        ctx = self.context
        be = ctx.backend
        special, out_moduli = moduli[-1], moduli[:-1]
        a = be.ntt_inverse_stack(
            ctx.tables(special), be.select_rows(acc, [len(out_moduli)])
        )
        rows = []
        for i, m in enumerate(out_moduli):
            r_ntt = be.ntt_forward_stack(ctx.tables(m), be.reduce_mod_stack(m, a))
            diff = be.sub_stack(m, be.select_rows(acc, [i]), r_ntt)
            rows.append(
                be.scalar_mul_stack(m, diff, ctx.rescale_inverse(special, m))[0]
            )
        return RnsPolynomial(ctx.n, out_moduli, be.from_rows(rows), is_ntt=True)

    # ------------------------------------------------------------------
    # timing path (Section 4.3 rate equations)
    # ------------------------------------------------------------------
    def timing(self, level_count: Optional[int] = None) -> KeySwitchStats:
        """Per-KeySwitch busy cycles of every module layer.

        Uses the *architecture's* ring size ``n`` (the hardware is built
        for it) and the requested ``level_count`` (defaults to the
        architecture's ``k``): lower-level ciphertexts iterate fewer
        times, exactly as in the hardware.
        """
        arch = self.arch
        n, log_n = arch.n, arch.log_n
        k = arch.k if level_count is None else level_count
        transforms_per_component = k  # (k-1 other data primes + special)

        t_intt0 = n * log_n / (2 * arch.intt0[1])
        t_ntt0_single = n * log_n / (2 * arch.ntt0[1])
        per_module_transforms = transforms_per_component / arch.m0
        t_dyad_pair = 2 * n / arch.dyad[1]  # two key columns
        t_intt1 = n * log_n / (2 * arch.intt1[1])
        t_ntt1_single = n * log_n / (2 * arch.ntt1[1])
        t_ms_prime = n / arch.ms[1]

        busy = {
            "INTT0": k * t_intt0,
            "NTT0": k * per_module_transforms * t_ntt0_single,
            "DyadMult": k * per_module_transforms * t_dyad_pair,
            "DyadMult(input)": k * t_dyad_pair,
            "INTT1": t_intt1,  # one poly per module (two modules)
            "NTT1": k * t_ntt1_single,  # k data primes per poly
            "MS": k * t_ms_prime,
        }
        throughput = max(busy.values())
        latency = (
            k * t_intt0
            + per_module_transforms * t_ntt0_single
            + t_dyad_pair
            + t_intt1
            + k * t_ntt1_single
            + k * t_ms_prime
        )
        return KeySwitchStats(
            n=n,
            level_count=k,
            arch_name=arch.name,
            stage_busy_cycles=busy,
            throughput_cycles=throughput,
            latency_cycles=latency,
        )

    def hoisted_timing(
        self, num_rotations: int, level_count: Optional[int] = None
    ) -> Dict[str, float]:
        """Cycle model of hoisted rotations on this architecture.

        With hoisting, the INTT0/NTT0 fan-out layers (the dominant busy
        cycles of Figure 5) run **once** per source ciphertext; each of
        the ``num_rotations`` rotations then occupies only the DyadMult
        layer (NTT-domain permutations are wiring/addressing, not compute
        modules) and the Modulus-Switch tail (INTT1/NTT1/MS).  Mirrors
        the software split ``Evaluator.decompose`` /
        ``Evaluator.apply_keyswitch``.

        Returns per-rotation amortized cycles next to the naive
        (rotate-``num_rotations``-times) cost, so benches and the
        analysis layer can report the modeled hoisting speedup alongside
        the measured one.
        """
        if num_rotations < 1:
            raise ValueError("need at least one rotation")
        stats = self.timing(level_count=level_count)
        busy = stats.stage_busy_cycles
        decompose = busy["INTT0"] + busy["NTT0"]
        # per-module occupancy, the same convention timing() uses
        # throughout: INTT1 is one poly per module (two modules run the
        # two output polys in parallel), NTT1/MS busy entries already
        # cover the Modulus-Switch stream
        dyadmult = busy["DyadMult"] + busy["DyadMult(input)"]
        modulus_switch = busy["INTT1"] + busy["NTT1"] + busy["MS"]
        per_rotation = dyadmult + modulus_switch
        naive = decompose + per_rotation
        hoisted_total = decompose + num_rotations * per_rotation
        return {
            "rotations": float(num_rotations),
            "decompose_cycles": decompose,
            "apply_cycles_per_rotation": per_rotation,
            # its two shares: a ``linear_sweep`` pays the first per
            # rotation and the second once (the sum is floored once)
            "dyadmult_cycles_per_rotation": dyadmult,
            "modulus_switch_cycles": modulus_switch,
            "naive_cycles_per_rotation": naive,
            "hoisted_cycles_per_rotation": hoisted_total / num_rotations,
            "speedup": naive * num_rotations / hoisted_total,
        }

    def pipeline_timeline(self, num_ops: int = 3) -> List[PipelineInterval]:
        """Module-occupancy schedule for a train of KeySwitch ops (Fig 6).

        Consecutive operations are issued at the steady-state period, so
        the rendered timeline shows several key switches in flight in
        different pipeline layers simultaneously, including the delayed,
        synchronized input-poly DyadMult that motivates ``f1``-deep
        input buffering.
        """
        stats = self.timing()
        arch = self.arch
        k = arch.k
        period = stats.throughput_cycles
        t_intt0 = stats.stage_busy_cycles["INTT0"] / k
        t_ntt0 = stats.stage_busy_cycles["NTT0"] / k
        t_dyad = stats.stage_busy_cycles["DyadMult"] / k
        intervals: List[PipelineInterval] = []
        for op in range(num_ops):
            base = op * period
            for i in range(k):
                s = base + i * t_intt0
                intervals.append(
                    PipelineInterval("INTT0", op, s, s + t_intt0, f"c[{i}]")
                )
                intervals.append(
                    PipelineInterval(
                        "NTT0", op, s + t_intt0, s + t_intt0 + t_ntt0, f"c[{i}]"
                    )
                )
                d0 = s + t_intt0 + t_ntt0
                intervals.append(
                    PipelineInterval("DyadMult", op, d0, d0 + t_dyad, f"c[{i}]")
                )
                # the synchronized input-poly product of iteration i
                intervals.append(
                    PipelineInterval(
                        "DyadMult(input)", op, d0, d0 + t_dyad, f"c[{i}]"
                    )
                )
            tail0 = base + k * t_intt0 + t_ntt0 + t_dyad
            intervals.append(
                PipelineInterval(
                    "INTT1", op, tail0, tail0 + stats.stage_busy_cycles["INTT1"], "MS"
                )
            )
            t1 = tail0 + stats.stage_busy_cycles["INTT1"]
            intervals.append(
                PipelineInterval(
                    "NTT1", op, t1, t1 + stats.stage_busy_cycles["NTT1"], "MS"
                )
            )
            t2 = t1 + stats.stage_busy_cycles["NTT1"]
            intervals.append(
                PipelineInterval(
                    "MS", op, t2, t2 + stats.stage_busy_cycles["MS"], "MS"
                )
            )
        return intervals

    def buffer_requirements(self) -> Dict[str, int]:
        """The f1/f2 buffer multiplicities of the two data dependencies."""
        return {"f1_input_poly_buffers": self.arch.f1, "f2_dyad_output_buffers": self.arch.f2}


