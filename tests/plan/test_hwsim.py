"""Modeled-FPGA replay of measured plan runs on the Table 5 sets."""

import numpy as np
import pytest

from repro.core.keyswitch_module import KeySwitchModuleSim
from repro.core.perf import CLOCK_HZ, dyadic_cycles
from repro.plan.executor import PlanExecutor
from repro.plan.hwsim import (
    PAPER_SET_NAMES,
    architecture_for,
    modeled_replay,
    modeled_replays,
)
from repro.plan.lower import matvec_graph
from repro.plan.passes import compile_plan

DIM = 8


@pytest.fixture(scope="module")
def matvec_run(plan_context, plan_encoder, plan_encryptor, plan_relin, plan_galois):
    rng = np.random.default_rng(3)
    graph, _ = matvec_graph(rng.uniform(0.1, 1.0, (DIM, DIM)))
    placed = compile_plan(graph, plan_context, rescale_outputs=False)
    packed = np.zeros(plan_encoder.slot_count)
    packed[: 2 * DIM] = 0.25
    ct = plan_encryptor.encrypt(plan_encoder.encode(packed))
    ex = PlanExecutor(plan_context, plan_relin, plan_galois)
    return ex.run(placed, {"x": ct})


class TestModeledReplay:
    def test_replays_on_every_paper_set(self, matvec_run, plan_context):
        replays = modeled_replays(matvec_run, plan_context)
        assert set(replays) == set(PAPER_SET_NAMES)
        for r in replays.values():
            assert r.cycles > 0 and r.seconds > 0

    def test_deeper_sets_cost_more_cycles(self, matvec_run, plan_context):
        replays = modeled_replays(matvec_run, plan_context)
        a, b, c = (replays[s].cycles for s in PAPER_SET_NAMES)
        assert a < b < c

    def test_sweep_dominates_the_kind_breakdown(self, matvec_run, plan_context):
        r = modeled_replay(matvec_run, plan_context, "Set-B")
        # the 2-step shape: one linear_sweep (billed as a sweep), one rescale
        assert set(r.cycles_by_kind) == {"sweep", "rescale"}
        assert r.cycles_by_kind["sweep"] > r.cycles_by_kind["rescale"]
        assert r.cycles == pytest.approx(sum(r.cycles_by_kind.values()))

    def test_linear_sweep_pays_one_modulus_switch_tail(self, matvec_run, plan_context):
        """One decomposition + R DyadMult applications + ONE MS tail +
        the plaintext products' dyadic passes."""
        arch = architecture_for("Set-B")
        sim = KeySwitchModuleSim(plan_context, arch)
        (sweep, _) = matvec_run.steps
        assert sweep.op == "linear_sweep" and sweep.rotations == DIM - 1
        lc = min(sweep.level_count, arch.k)
        ht = sim.hoisted_timing(DIM - 1, level_count=lc)
        assert ht["apply_cycles_per_rotation"] == pytest.approx(
            ht["dyadmult_cycles_per_rotation"] + ht["modulus_switch_cycles"]
        )
        passes = (DIM - 1) * (2 * (lc + 1) + lc) + 2 * lc
        r = modeled_replay(matvec_run, plan_context, "Set-B")
        assert r.cycles_by_kind["sweep"] == pytest.approx(
            ht["decompose_cycles"]
            + (DIM - 1) * ht["dyadmult_cycles_per_rotation"]
            + ht["modulus_switch_cycles"]
            + passes * dyadic_cycles(arch.n, 16)
        )

    def test_seconds_follow_the_device_clock(self, matvec_run, plan_context):
        r = modeled_replay(matvec_run, plan_context, "Set-A", device="Stratix10")
        assert r.seconds == pytest.approx(r.cycles / CLOCK_HZ["Stratix10"])

    def test_level_counts_clamp_to_architecture(self, matvec_run, plan_context):
        # the k=4 toy run replays on Set-A (k=2) without error
        arch = architecture_for("Set-A")
        r = modeled_replay(matvec_run, plan_context, "Set-A")
        assert r.k == arch.k and r.n == arch.n
