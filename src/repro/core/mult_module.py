"""Functional, cycle-accurate simulator of the HEAX MULT module.

Models Section 4.1 / Figure 1: ``nc`` Dyadic cores fed by banked memories
holding one RNS residue of every ciphertext component.

* Operands: ciphertext 1 with α components and ciphertext 2 (or a
  plaintext) with β components, one RNS residue each; the homomorphic
  product has ``α + β - 1`` components (Algorithm 5 generalized).
* Every clock cycle one memory element (``nc`` coefficients) is read from
  each operand bank and one result ME is written, so a single dyadic
  polynomial product takes ``n / nc`` cycles -- the Table 7 "Dyadic"
  throughput.
* BRAM policy: the paper allocates α + β input memories (one per
  component) instead of the minimum one-residue-at-a-time scheme, cutting
  CPU->FPGA transfers from ``(αβ + min(α, β)) n`` to ``(α + β) n`` words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.ckks.modarith import Modulus
from repro.core.cores import DyadicCore
from repro.core.memory import BankedMemory


@dataclass
class MultStats:
    """Cycle/transfer accounting for one MULT-module operation."""

    n: int
    num_cores: int
    alpha: int
    beta: int
    cycles: int
    me_reads: int
    me_writes: int

    @property
    def output_components(self) -> int:
        return self.alpha + self.beta - 1


class MultModuleSim:
    """MULT module with ``num_cores`` dyadic lanes over one modulus."""

    def __init__(self, modulus: Modulus, n: int, num_cores: int):
        if num_cores < 1 or num_cores & (num_cores - 1):
            raise ValueError("core count must be a power of two")
        if n % num_cores:
            raise ValueError("core count must divide n")
        self.modulus = modulus
        self.n = n
        self.nc = num_cores
        self.core = DyadicCore(modulus)

    # ------------------------------------------------------------------
    def dyadic_multiply(
        self, poly_a: Sequence[int], poly_b: Sequence[int]
    ) -> Tuple[List[int], MultStats]:
        """One polynomial pair: the Table 7 "Dyadic" primitive."""
        out, stats = self.ciphertext_multiply([list(poly_a)], [list(poly_b)])
        return out[0], stats

    def ciphertext_multiply(
        self,
        ct1_residues: List[Sequence[int]],
        ct2_residues: List[Sequence[int]],
    ) -> Tuple[List[List[int]], MultStats]:
        """General (α, β) homomorphic product of one RNS residue.

        Implements the full pairwise-combination schedule: each of the
        ``α β`` component pairs streams through the dyadic cores ME by
        ME, accumulating into the ``α + β - 1`` output banks.  Output
        index ``t = i + j`` receives its first contribution from the
        row-major-first pair, i.e. when ``i == 0`` or ``j == β - 1``;
        later pairs read-modify-write the bank.
        """
        alpha, beta = len(ct1_residues), len(ct2_residues)
        n, nc = self.n, self.nc
        banks1 = [BankedMemory(n, nc, f"ct1[{i}]") for i in range(alpha)]
        banks2 = [BankedMemory(n, nc, f"ct2[{j}]") for j in range(beta)]
        for bank, r in zip(banks1, ct1_residues):
            bank.load(list(r))
        for bank, r in zip(banks2, ct2_residues):
            bank.load(list(r))
        out_banks = [
            BankedMemory(n, nc, f"out[{t}]") for t in range(alpha + beta - 1)
        ]
        cycles = me_reads = me_writes = 0
        p = self.modulus.value
        for i in range(alpha):
            for j in range(beta):
                target = out_banks[i + j]
                first_contribution = i == 0 or j == beta - 1
                for addr in range(n // nc):
                    me1 = banks1[i].read_row(addr)
                    me2 = banks2[j].read_row(addr)
                    me_reads += 2
                    prod = [self.core.compute(a, b) for a, b in zip(me1, me2)]
                    if not first_contribution:
                        old = target.read_row(addr)
                        me_reads += 1
                        acc = []
                        for x, y in zip(old, prod):
                            v = x + y
                            acc.append(v - p if v >= p else v)
                        prod = acc
                    target.write_row(addr, prod)
                    me_writes += 1
                    cycles += 1
        outputs = [bank.dump() for bank in out_banks]
        stats = MultStats(n, nc, alpha, beta, cycles, me_reads, me_writes)
        return outputs, stats

    # ------------------------------------------------------------------
