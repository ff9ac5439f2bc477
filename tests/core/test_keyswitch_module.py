"""Tests for the KeySwitch module simulator (Section 4.3)."""

import pytest

from repro.ckks.evaluator import Evaluator
from repro.ckks.sampling import Sampler
from repro.core.arch import TABLE5_ARCHITECTURES, derive_architecture
from repro.core.keyswitch_module import KeySwitchModuleSim


@pytest.fixture(scope="module")
def toy_arch(toy_context):
    """A balanced architecture matching the toy context's k = 3."""
    return derive_architecture("toy", 4096, toy_context.k, nc_intt0=8, m0=1)


@pytest.fixture(scope="module")
def sim(toy_context, toy_arch):
    return KeySwitchModuleSim(toy_context, toy_arch)


class TestFunctionalEquivalence:
    def test_matches_evaluator_full_level(self, toy_context, sim, relin_key):
        target = Sampler(11).uniform_residues(
            toy_context.n, toy_context.data_basis.moduli
        )
        (f0, f1), _ = sim.run(target, relin_key)
        g0, g1 = Evaluator(toy_context).keyswitch_polynomial(target, relin_key)
        assert f0 == g0
        assert f1 == g1

    def test_matches_evaluator_lower_level(self, toy_context, sim, relin_key):
        target = Sampler(12).uniform_residues(
            toy_context.n, toy_context.basis_at_level(2).moduli
        )
        (f0, f1), _ = sim.run(target, relin_key)
        g0, g1 = Evaluator(toy_context).keyswitch_polynomial(target, relin_key)
        assert f0 == g0
        assert f1 == g1

    def test_rejects_coefficient_form(self, toy_context, sim, relin_key):
        from repro.ckks.poly import RnsPolynomial

        coeff = RnsPolynomial.from_int_coeffs(
            [1] * toy_context.n, toy_context.data_basis.moduli
        )
        with pytest.raises(ValueError):
            sim.run(coeff, relin_key)

    def test_galois_key_switch(self, toy_context, sim, keygen):
        """The module works for rotation keys too, not just relin keys."""
        elt = toy_context.galois_element_for_step(1)
        gk = keygen.galois_key(elt)
        target = Sampler(13).uniform_residues(
            toy_context.n, toy_context.data_basis.moduli
        )
        (f0, f1), _ = sim.run(target, gk)
        g0, g1 = Evaluator(toy_context).keyswitch_polynomial(target, gk)
        assert f0 == g0 and f1 == g1


class TestTiming:
    @pytest.mark.parametrize("key", sorted(TABLE5_ARCHITECTURES))
    def test_intt0_is_bottleneck_for_paper_archs(self, toy_context, key):
        arch = TABLE5_ARCHITECTURES[key]
        sim = KeySwitchModuleSim(toy_context, arch)
        stats = sim.timing()
        assert max(stats.stage_busy_cycles, key=stats.stage_busy_cycles.get) == "INTT0"

    @pytest.mark.parametrize("key", sorted(TABLE5_ARCHITECTURES))
    def test_throughput_equals_closed_form(self, toy_context, key):
        """Pipeline period == k n log n / (2 nc_INTT0) -- the Table 8 rate."""
        arch = TABLE5_ARCHITECTURES[key]
        sim = KeySwitchModuleSim(toy_context, arch)
        stats = sim.timing()
        expected = arch.k * arch.n * arch.log_n / (2 * arch.nc_intt0)
        assert stats.throughput_cycles == pytest.approx(expected)

    def test_lower_level_unloads_intt0_but_not_the_tail(self, toy_context):
        """The designs are balanced for the *full* level: a lower-level
        ciphertext halves the INTT0 busy time, yet the Modulus-Switch
        tail (INTT1) is level-independent and keeps the pipeline period
        -- the throughput bound moves, it does not drop."""
        arch = TABLE5_ARCHITECTURES[("Stratix10", "Set-B")]
        sim = KeySwitchModuleSim(toy_context, arch)
        full = sim.timing()
        lower = sim.timing(level_count=2)
        assert lower.stage_busy_cycles["INTT0"] < full.stage_busy_cycles["INTT0"]
        assert lower.stage_busy_cycles["INTT1"] == full.stage_busy_cycles["INTT1"]
        assert lower.throughput_cycles == full.throughput_cycles
        assert max(lower.stage_busy_cycles, key=lower.stage_busy_cycles.get) == "INTT1"

    def test_latency_exceeds_throughput(self, toy_context, toy_arch):
        sim = KeySwitchModuleSim(toy_context, toy_arch)
        stats = sim.timing()
        assert stats.latency_cycles > stats.throughput_cycles


class TestPipelineTimeline:
    def test_consecutive_ops_overlap(self, toy_context):
        """Figure 6: multiple key switches in flight simultaneously."""
        arch = TABLE5_ARCHITECTURES[("Stratix10", "Set-B")]
        sim = KeySwitchModuleSim(toy_context, arch)
        timeline = sim.pipeline_timeline(num_ops=3)
        op0_end = max(iv.end for iv in timeline if iv.op_index == 0)
        op1_start = min(iv.start for iv in timeline if iv.op_index == 1)
        assert op1_start < op0_end  # overlap

    def test_all_modules_appear(self, toy_context, toy_arch):
        sim = KeySwitchModuleSim(toy_context, toy_arch)
        modules = {iv.module for iv in sim.pipeline_timeline(1)}
        assert modules == {
            "INTT0", "NTT0", "DyadMult", "DyadMult(input)", "INTT1", "NTT1", "MS"
        }

    def test_input_dyad_synchronized_with_key_dyads(self, toy_context, toy_arch):
        """Data Dependency 1: the input-poly product runs in lockstep."""
        sim = KeySwitchModuleSim(toy_context, toy_arch)
        timeline = sim.pipeline_timeline(1)
        dyad = sorted(
            (iv.start, iv.end) for iv in timeline if iv.module == "DyadMult"
        )
        dyad_in = sorted(
            (iv.start, iv.end)
            for iv in timeline
            if iv.module == "DyadMult(input)"
        )
        assert dyad == dyad_in

    def test_buffer_requirements(self, toy_context):
        arch = TABLE5_ARCHITECTURES[("Stratix10", "Set-B")]
        sim = KeySwitchModuleSim(toy_context, arch)
        bufs = sim.buffer_requirements()
        assert bufs["f1_input_poly_buffers"] == 4
        assert bufs["f2_dyad_output_buffers"] == 15


class TestHoistedTiming:
    """The decompose-once model behind Evaluator.rotate_hoisted."""

    def test_single_rotation_equals_naive(self, sim):
        t = sim.hoisted_timing(1)
        assert t["hoisted_cycles_per_rotation"] == pytest.approx(
            t["naive_cycles_per_rotation"]
        )
        assert t["speedup"] == pytest.approx(1.0)

    def test_per_rotation_cost_decreases_with_fanout_amortized(self, sim):
        t1 = sim.hoisted_timing(1)
        t8 = sim.hoisted_timing(8)
        assert (
            t8["hoisted_cycles_per_rotation"] < t1["hoisted_cycles_per_rotation"]
        )
        assert t8["speedup"] > 1.0
        # amortization saturates at naive / apply-only
        limit = t8["naive_cycles_per_rotation"] / t8["apply_cycles_per_rotation"]
        assert t8["speedup"] < limit
        assert sim.hoisted_timing(512)["speedup"] == pytest.approx(
            limit, rel=0.05
        )

    def test_decompose_is_the_dominant_phase(self, sim):
        """Hoisting helps because INTT0 + NTT0 dominate Figure 5's cycles;
        the model must reflect that structure."""
        t = sim.hoisted_timing(4)
        assert t["decompose_cycles"] > 0
        assert t["apply_cycles_per_rotation"] > 0
        stats = sim.timing()
        assert t["decompose_cycles"] == pytest.approx(
            stats.stage_busy_cycles["INTT0"] + stats.stage_busy_cycles["NTT0"]
        )

    def test_rejects_zero_rotations(self, sim):
        with pytest.raises(ValueError):
            sim.hoisted_timing(0)

    def test_level_count_scales_decompose(self, sim):
        shallow = sim.hoisted_timing(4, level_count=1)
        deep = sim.hoisted_timing(4)
        assert shallow["decompose_cycles"] < deep["decompose_cycles"]
