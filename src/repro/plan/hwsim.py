"""Replay a measured plan execution through the HEAX module models.

The planner's promise is that one plan serves two audiences: the
executor measures real software seconds (scalar or batched evaluator),
and the *same* :class:`repro.plan.executor.PlanRun` step stream replays
through the :mod:`repro.core` timing models, so every planner benchmark
reports software-measured time next to modeled-FPGA time for the
paper's parameter sets (Table 5 architectures, Section 6).

The step-to-module mapping follows the established accounting:

* a fused rotation sweep -- :meth:`KeySwitchModuleSim.hoisted_timing`:
  one INTT0/NTT0 decomposition plus N DyadMult + Modulus-Switch
  applications (hoisting pays the fan-out once in hardware exactly as
  in software);
* a ``linear_sweep`` lane (a diagonal matvec) -- per node one
  decomposition, one DyadMult application per rotated term and **one**
  Modulus-Switch tail for the whole sum, plus the dyadic passes of its
  plaintext products (per rotated term both ``level + 1``-row
  accumulators and the ``level`` rows of ``c0``; the unrotated term's
  two components);
* scalar/batched key-switch ops (rotate, conjugate, square,
  mul_relin) -- one KeySwitch pipeline period each
  (:meth:`KeySwitchModuleSim.timing`);
* dyadic ops (mul_plain, add, sub, negate, add_const, "mixed") -- the
  standalone MULT module (``STANDALONE_MODULE_CORES[device]["dyadic"]``
  cores), one pass per component per prime;
* rescale -- :func:`repro.core.perf.rescale_cycles`, as in
  :meth:`repro.system.workload.RuntimeProjection.heax_seconds`.

Level counts are clamped to the architecture's ``k``: a toy-context run
(say ``k = 4`` at ``n = 1024``) replays on Set-A hardware (``k = 2``)
as the deepest ciphertext that hardware supports, which keeps the
modeled numbers meaningful for every set from one measured run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.ckks.context import CkksContext
from repro.core.arch import KeySwitchArchitecture, STANDALONE_MODULE_CORES, TABLE5_ARCHITECTURES
from repro.core.keyswitch_module import KeySwitchModuleSim
from repro.core.perf import CLOCK_HZ, dyadic_cycles, rescale_cycles
from repro.plan.executor import PlanRun, PlanStep
from repro.plan.graph import KEYSWITCH_OPS

#: Paper parameter-set names in repro.ckks.context order.
PAPER_SET_NAMES = ("Set-A", "Set-B", "Set-C")


@dataclass(frozen=True)
class ModeledReplay:
    """Modeled-FPGA cost of one plan run on one Table 5 architecture."""

    set_name: str
    device: str
    n: int
    k: int
    cycles: float
    seconds: float
    #: cycles per schedule-step kind, for reporting.
    cycles_by_kind: Dict[str, float]


def architecture_for(set_name: str, device: str = "Stratix10") -> KeySwitchArchitecture:
    return TABLE5_ARCHITECTURES[(device, set_name)]


def _step_cycles(
    sim: KeySwitchModuleSim, arch: KeySwitchArchitecture, dyadic_cores: int, step: PlanStep
) -> float:
    lc = min(step.level_count, arch.k)
    if step.mode == "sweep":
        ht = sim.hoisted_timing(step.rotations, level_count=lc)
        return ht["decompose_cycles"] + step.rotations * ht[
            "apply_cycles_per_rotation"
        ]
    if step.op == "linear_sweep":
        passes = (3 * lc + 2) * step.rotations + 2 * lc * step.width
        cycles = passes * dyadic_cycles(arch.n, dyadic_cores)
        if step.rotations:
            ht = sim.hoisted_timing(step.rotations, level_count=lc)
            cycles += step.rotations * ht["dyadmult_cycles_per_rotation"]
            cycles += step.width * (ht["decompose_cycles"] + ht["modulus_switch_cycles"])
        return cycles
    if step.op in KEYSWITCH_OPS:
        return step.width * sim.timing(level_count=lc).throughput_cycles
    if step.op == "rescale":
        return step.width * rescale_cycles(arch, lc)
    # dyadic family: one pass per component (2) per prime
    return step.width * 2 * lc * dyadic_cycles(arch.n, dyadic_cores)


def modeled_replay(
    run: PlanRun,
    context: CkksContext,
    set_name: str,
    device: str = "Stratix10",
) -> ModeledReplay:
    """Replay one measured plan run on one paper architecture.

    ``context`` is the context the run executed under; the module sim
    enforces the paper's ring-size discipline (a >= 4096 context must
    match the architecture's ``n``; toy contexts replay on any set).
    """
    arch = architecture_for(set_name, device)
    sim = KeySwitchModuleSim(context, arch)
    dyadic_cores = STANDALONE_MODULE_CORES[device]["dyadic"]
    by_kind: Dict[str, float] = {}
    total = 0.0
    for step in run.steps:
        cycles = _step_cycles(sim, arch, dyadic_cores, step)
        kind = "sweep" if step.mode == "sweep" or step.op == "linear_sweep" else step.op
        by_kind[kind] = by_kind.get(kind, 0.0) + cycles
        total += cycles
    return ModeledReplay(
        set_name=set_name,
        device=device,
        n=arch.n,
        k=arch.k,
        cycles=total,
        seconds=total / CLOCK_HZ[device],
        cycles_by_kind=by_kind,
    )


def modeled_replays(run: PlanRun, context: CkksContext) -> Dict[str, ModeledReplay]:
    """Replay one run across every paper set on the Stratix10 (toy
    contexts only -- a paper-scale context replays only on its own set)."""
    return {s: modeled_replay(run, context, s) for s in PAPER_SET_NAMES}
