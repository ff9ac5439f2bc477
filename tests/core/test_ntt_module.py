"""Tests for the cycle-accurate NTT/INTT module simulator (Section 4.2)."""

import random

import pytest

from repro.ckks.modarith import Modulus
from repro.ckks.ntt import NTTTables
from repro.ckks.primes import generate_ntt_primes
from repro.core.ntt_module import NTTModuleSim

N = 256
P = generate_ntt_primes(N, 30, 1)[0]


@pytest.fixture(scope="module")
def tables():
    return NTTTables(N, Modulus(P))


def rand_poly(seed, n=N, p=P):
    rng = random.Random(seed)
    return [rng.randrange(p) for _ in range(n)]


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("nc", [1, 2, 4, 8, 16])
    def test_forward_matches_reference(self, tables, nc):
        sim = NTTModuleSim(tables, nc)
        a = rand_poly(nc)
        out, _ = sim.run_forward(a)
        assert out == tables.forward(a)

    @pytest.mark.parametrize("nc", [1, 2, 4, 8, 16])
    def test_inverse_matches_reference(self, tables, nc):
        sim = NTTModuleSim(tables, nc)
        a = rand_poly(100 + nc)
        out, _ = sim.run_inverse(a)
        assert out == tables.inverse(a)

    def test_roundtrip_through_hardware(self, tables):
        sim = NTTModuleSim(tables, 8)
        a = rand_poly(3)
        fwd, _ = sim.run_forward(a)
        back, _ = sim.run_inverse(fwd)
        assert back == a

    def test_input_length_checked(self, tables):
        sim = NTTModuleSim(tables, 4)
        with pytest.raises(ValueError):
            sim.run_forward([0] * (N - 1))


class TestCycleAccounting:
    @pytest.mark.parametrize("nc", [2, 4, 8, 16])
    def test_throughput_formula(self, tables, nc):
        """Simulated cycles == n log n / (2 nc) (the paper's formula)."""
        sim = NTTModuleSim(tables, nc)
        _, stats = sim.run_forward(rand_poly(nc + 50))
        assert stats.throughput_cycles == sim.expected_throughput_cycles()

    def test_inverse_same_cycles(self, tables):
        sim = NTTModuleSim(tables, 8)
        _, f = sim.run_forward(rand_poly(1))
        _, i = sim.run_inverse(rand_poly(2))
        assert f.throughput_cycles == i.throughput_cycles

    def test_stage_type_split(self, tables):
        """First log n - log nc - 1 stages are Type 1 (Section 4.2)."""
        nc = 8
        sim = NTTModuleSim(tables, nc)
        _, stats = sim.run_forward(rand_poly(4))
        log_n = N.bit_length() - 1
        log_nc = nc.bit_length() - 1
        assert sum(1 for s in stats.stages if s.stage_type == 1) == log_n - log_nc - 1
        assert sum(1 for s in stats.stages if s.stage_type == 2) == log_nc + 1

    def test_latency_includes_pipeline_fill(self, tables):
        sim = NTTModuleSim(tables, 8)
        _, stats = sim.run_forward(rand_poly(5))
        assert stats.latency_cycles == stats.throughput_cycles + 50  # Table 3

    def test_basic_pipeline_slower(self, tables):
        """The unoptimized pipeline doubles Type-1 stage time (Figure 4)."""
        sim = NTTModuleSim(tables, 8)
        _, stats = sim.run_forward(rand_poly(6))
        per_stage = N // (2 * 8)
        expected = (
            sum(1 for s in stats.stages if s.stage_type == 1) * 2 * per_stage
            + sum(1 for s in stats.stages if s.stage_type == 2) * per_stage
        )
        assert stats.basic_pipeline_cycles == expected
        assert stats.basic_pipeline_cycles > stats.throughput_cycles

    def test_memory_access_counts_balance(self, tables):
        """Every ME read is matched by exactly one write (in-place stages)."""
        sim = NTTModuleSim(tables, 8)
        _, stats = sim.run_forward(rand_poly(7))
        for s in stats.stages:
            assert s.me_reads == s.me_writes


class TestAccessPatterns:
    def test_trace_records_type1_pairs(self, tables):
        sim = NTTModuleSim(tables, 8, record_trace=True)
        sim.run_forward(rand_poly(8))
        type1 = [e for e in sim.trace if e.stage_type == 1]
        assert type1, "expected Type-1 events"
        for e in type1:
            assert len(e.me_addresses) == 2
            a, b = e.me_addresses
            assert b > a  # partner ME strictly later in memory

    def test_trace_records_type2_single_me(self, tables):
        sim = NTTModuleSim(tables, 8, record_trace=True)
        sim.run_forward(rand_poly(9))
        type2 = [e for e in sim.trace if e.stage_type == 2]
        assert type2
        for e in type2:
            assert len(e.me_addresses) == 1

    def test_first_stage_partner_distance(self, tables):
        """Stage 0 pairs x[j] with x[j + n/2] (the Figure 2 pattern)."""
        sim = NTTModuleSim(tables, 8, record_trace=True)
        sim.run_forward(rand_poly(10))
        stage0 = [e for e in sim.trace if e.stage == 0]
        W = sim.me_width
        for e in stage0:
            a, b = e.me_addresses
            assert (b - a) * W == N // 2

    def test_every_me_visited_every_stage(self, tables):
        sim = NTTModuleSim(tables, 4, record_trace=True)
        sim.run_forward(rand_poly(11))
        log_n = N.bit_length() - 1
        for stage in range(log_n):
            visited = set()
            for e in sim.trace:
                if e.stage == stage:
                    visited.update(e.me_addresses)
            assert visited == set(range(sim.depth))


class TestMuxNetwork:
    @pytest.mark.parametrize("nc", [2, 4, 8, 16, 32])
    def test_fanin_bounded_by_log(self, nc):
        """Customized MUXes need <= log2(2 nc) inputs (Section 4.2)."""
        n = max(4 * nc, 64)
        p = generate_ntt_primes(n, 30, 1)[0]
        sim = NTTModuleSim(NTTTables(n, Modulus(p)), nc)
        report = sim.mux_fanin_report()
        import math

        assert report["max_fanin"] <= math.log2(2 * nc) + 1
        assert report["max_fanin"] < report["naive_crossbar_inputs"]

    def test_total_mux_inputs_subquadratic(self):
        """Total MUX inputs grow O(nc log nc), not O(nc^2)."""
        sizes = {}
        for nc in (4, 8, 16):
            n = 64 * nc
            p = generate_ntt_primes(n, 30, 1)[0]
            sim = NTTModuleSim(NTTTables(n, Modulus(p)), nc)
            sizes[nc] = sim.mux_fanin_report()["total_mux_inputs"]
        # doubling nc should grow total inputs by < 4x (quadratic would be 4x)
        assert sizes[8] < 3 * sizes[4]
        assert sizes[16] < 3 * sizes[8]

    def test_type2_sources_are_valid_pairs(self, tables):
        sim = NTTModuleSim(tables, 8)
        for t in (1, 2, 4):
            for la, lb in sim.type2_core_sources(t):
                assert lb - la == t
                assert 0 <= la < sim.me_width
                assert lb < sim.me_width


class TestConstruction:
    def test_rejects_non_power_of_two_cores(self, tables):
        with pytest.raises(ValueError):
            NTTModuleSim(tables, 3)

    def test_rejects_too_many_cores(self, tables):
        with pytest.raises(ValueError):
            NTTModuleSim(tables, N)

    def test_describe_mentions_core_count(self, tables):
        assert "8 cores" in NTTModuleSim(tables, 8).describe()
