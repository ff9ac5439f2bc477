"""CKKS parameter sets and the precomputation context.

:class:`CkksParameters` describes a scheme instance: ring degree ``n``,
the bit sizes of the RNS coefficient moduli (the last entry is the
*special modulus* ``p`` used only for key switching, per Section 3.4),
the encoding scale, and the native word size.

``SET_A``, ``SET_B`` and ``SET_C`` are the paper's Table 2 parameter
sets::

    Set-A:  n = 2^12, log(qp)+1 = 109, k = 2
    Set-B:  n = 2^13, log(qp)+1 = 218, k = 4
    Set-C:  n = 2^14, log(qp)+1 = 438, k = 8

where ``k`` is the number of RNS components of the ciphertext modulus
``q`` (the special modulus is the ``k+1``-th prime).

:class:`CkksContext` performs every precomputation the scheme needs:
the NTT-friendly modulus chain, per-prime twiddle tables, rescaling
constants and Galois (rotation) index maps.  It is also the backend
anchor: polynomial kernels routed through a context use its
``backend`` -- the process-wide active backend by default (see
:mod:`repro.ckks.backend` and the ``REPRO_BACKEND`` environment
variable), or one pinned at construction time with
``CkksContext(params, backend="reference")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ckks.backend import PolynomialBackend, get_backend, resolve_backend
from repro.ckks.modarith import HEAX_WORD_BITS, Modulus
from repro.ckks.ntt import NTTTables, bit_reversal
from repro.ckks.poly import RnsPolynomial
from repro.ckks.primes import make_modulus_chain
from repro.ckks.rns import RnsBasis

#: Minimum ring degree accepted without ``allow_insecure`` (the paper notes
#: n = 2^11 and below are never used in practice; 2^12 is the smallest
#: 128-bit-secure set).
MIN_SECURE_RING_DEGREE = 4096


@dataclass(frozen=True)
class CkksParameters:
    """Immutable description of a CKKS scheme instance.

    ``modulus_bits`` lists the bit sizes of all RNS primes including the
    trailing special modulus; ``k = len(modulus_bits) - 1`` data primes
    form the ciphertext modulus ``q``.
    """

    n: int
    modulus_bits: Tuple[int, ...]
    scale: float
    word_bits: int = HEAX_WORD_BITS
    allow_insecure: bool = False
    name: str = "custom"

    def __post_init__(self):
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError(f"ring degree must be a power of two >= 4, got {self.n}")
        if len(self.modulus_bits) < 2:
            raise ValueError("need at least one data prime and the special prime")
        if self.n < MIN_SECURE_RING_DEGREE and not self.allow_insecure:
            raise ValueError(
                f"n={self.n} is below the 128-bit security floor; "
                "pass allow_insecure=True for test-scale rings"
            )
        if self.scale <= 1:
            raise ValueError("scale must exceed 1")
        for b in self.modulus_bits:
            if b > self.word_bits - 2:
                raise ValueError(
                    f"{b}-bit modulus violates p < 2^{self.word_bits - 2}"
                )

    @property
    def k(self) -> int:
        """Number of RNS components of the ciphertext modulus ``q``."""
        return len(self.modulus_bits) - 1

    @property
    def total_modulus_bits(self) -> int:
        """``log2(qp)`` rounded the way the paper reports it (sum of sizes)."""
        return sum(self.modulus_bits)

    @property
    def slot_count(self) -> int:
        """Number of complex message slots, ``n / 2``."""
        return self.n // 2


def _table2_set(name: str, n: int, bits: Sequence[int], scale: float) -> CkksParameters:
    return CkksParameters(
        n=n, modulus_bits=tuple(bits), scale=scale, name=name
    )


# The paper's Table 2 fixes only n, k and the total log2(qp); the split
# into prime sizes follows SEAL practice: a first prime larger than the
# scale (decryption headroom at the last level), middle primes equal to
# the encoding scale (so rescaling keeps the scale stable), and a special
# prime at least as large as every data prime (key-switching noise is
# proportional to p_max / p_special).

#: Table 2, Set-A: n = 2^12, 109-bit qp, k = 2 (36 + 28 data, 45 special).
SET_A = _table2_set("Set-A", 4096, (36, 28, 45), 2.0**28)

#: Table 2, Set-B: n = 2^13, 218-bit qp, k = 4 (48 + 3x40 data, 50 special).
SET_B = _table2_set("Set-B", 8192, (48, 40, 40, 40, 50), 2.0**40)

#: Table 2, Set-C: n = 2^14, 438-bit qp, k = 8 (50 + 7x48 data, 52 special).
SET_C = _table2_set("Set-C", 16384, (50, 48, 48, 48, 48, 48, 48, 48, 52), 2.0**48)

PAPER_PARAMETER_SETS = {"Set-A": SET_A, "Set-B": SET_B, "Set-C": SET_C}


def toy_parameters(
    n: int = 64, k: int = 3, prime_bits: int = 30, scale: float = 2.0**28
) -> CkksParameters:
    """Small insecure parameters for unit tests and examples.

    The scale is kept close to the prime size so that rescaling (which
    divides the scale by one ~``prime_bits``-bit prime) leaves enough
    precision headroom; a scale far below the primes would drown the
    message in flooring error.
    """
    return CkksParameters(
        n=n,
        modulus_bits=tuple([prime_bits] * (k + 1)),
        scale=scale,
        allow_insecure=True,
        name=f"toy-n{n}-k{k}",
    )


class CkksContext:
    """All precomputed state shared by encoder, keys and evaluator."""

    def __init__(
        self,
        params: CkksParameters,
        backend: Union[PolynomialBackend, str, None] = None,
    ):
        self.params = params
        #: None means "follow the process-wide active backend"; anything
        #: else pins this context to one backend regardless of the global.
        self._backend: Optional[PolynomialBackend] = (
            resolve_backend(backend) if backend is not None else None
        )
        chain = make_modulus_chain(
            params.n, list(params.modulus_bits), params.word_bits
        )
        #: full key-switching basis: data primes then the special prime.
        self.key_basis = RnsBasis(chain)
        #: ciphertext basis at the top level (no special prime).
        self.data_basis = RnsBasis(chain[: params.k])
        self.special_modulus: Modulus = chain[-1]
        self._tables: Dict[int, NTTTables] = {
            m.value: NTTTables(params.n, m) for m in chain
        }
        #: galois_elt -> intp index array (see :meth:`galois_table_ntt`).
        self._galois_ntt_cache: Dict[int, np.ndarray] = {}
        #: inverse of each chain modulus against every other chain modulus,
        #: ``_mod_inverses[last][p] = (last mod p)^-1 mod p`` -- the rescale
        #: and Modulus-Switch flooring constants (Algorithm 6), precomputed
        #: once instead of a ``pow(..., -1, p)`` per flooring call.
        self._mod_inverses: Dict[int, Dict[int, int]] = {
            last.value: {
                m.value: pow(last.value % m.value, -1, m.value)
                for m in chain
                if m.value != last.value
            }
            for last in chain
        }

    # ------------------------------------------------------------------
    # basis helpers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def backend(self) -> PolynomialBackend:
        """The polynomial backend this context routes kernels through."""
        return self._backend if self._backend is not None else get_backend()

    def basis_at_level(self, level_count: int) -> RnsBasis:
        """The first ``level_count`` data primes as an RNS basis."""
        if not 1 <= level_count <= self.params.k:
            raise ValueError(
                f"level_count must be in [1, {self.params.k}], got {level_count}"
            )
        return RnsBasis(self.key_basis.moduli[:level_count])

    def key_basis_at_level(self, level_count: int) -> RnsBasis:
        """Data primes at a level plus the special prime (ksk domain)."""
        return self.basis_at_level(level_count).extend(self.special_modulus)

    def tables(self, modulus: Modulus) -> NTTTables:
        return self._tables[modulus.value]

    def rescale_inverse(self, last: Modulus, modulus: Modulus) -> int:
        """``(last mod p)^-1 mod p`` for two chain moduli (precomputed).

        The flooring constant of Algorithm 6 / the Modulus-Switch step of
        Algorithm 7 line 19; every rescale and key switch needs one per
        remaining prime, so they are computed once at context setup.
        """
        return self._mod_inverses[last.value][modulus.value]

    # ------------------------------------------------------------------
    # NTT transforms on RNS polynomials
    # ------------------------------------------------------------------
    def to_ntt(self, poly: RnsPolynomial) -> RnsPolynomial:
        """Transform every residue polynomial to NTT form (Algorithm 3)."""
        if poly.is_ntt:
            raise ValueError("polynomial already in NTT form")
        be = self.backend
        rows = be.ntt_forward_rows(
            [self._tables[m.value] for m in poly.moduli], poly.native_rows(be)
        )
        return RnsPolynomial(poly.n, poly.moduli, rows, is_ntt=True)

    def to_ntt_all(self, polys: Sequence[RnsPolynomial]) -> List[RnsPolynomial]:
        """:meth:`to_ntt` of polynomials over one basis, one forward stack
        per modulus holding that modulus's row of each (the same bits)."""
        be = self.backend
        moduli = polys[0].moduli
        rows = [poly.native_rows(be) for poly in polys]
        stacks = [
            be.ntt_forward_stack(self._tables[m.value], be.native_stack([r[j] for r in rows]))
            for j, m in enumerate(moduli)
        ]
        return [
            RnsPolynomial(polys[0].n, moduli, be.native_stack([s[i] for s in stacks]), is_ntt=True)
            for i in range(len(polys))
        ]

    def from_ntt(self, poly: RnsPolynomial) -> RnsPolynomial:
        """Transform every residue polynomial back (Algorithm 4)."""
        if not poly.is_ntt:
            raise ValueError("polynomial not in NTT form")
        be = self.backend
        rows = be.ntt_inverse_rows(
            [self._tables[m.value] for m in poly.moduli], poly.native_rows(be)
        )
        return RnsPolynomial(poly.n, poly.moduli, rows, is_ntt=False)

    # ------------------------------------------------------------------
    # Galois automorphisms (rotation / conjugation support)
    # ------------------------------------------------------------------
    def galois_element_for_step(self, step: int) -> int:
        """Map a slot-rotation step to the automorphism ``X -> X^g``.

        Uses the generator 3 of the rotation subgroup of ``Z_{2n}^*``
        (order ``n/2``); negative steps wrap around.
        """
        half_slots = self.n // 2
        step = step % half_slots
        return pow(3, step, 2 * self.n)

    @property
    def conjugation_element(self) -> int:
        """The automorphism element for complex conjugation, ``2n - 1``."""
        return 2 * self.n - 1

    def galois_table_ntt(self, galois_elt: int) -> np.ndarray:
        """The automorphism as an *NTT-domain* gather: ``out[i] = in[src[i]]``.

        The forward NTT's bit-reversed output slot ``i`` holds the
        evaluation of the polynomial at ``ψ^{2·brv(i)+1}`` (the odd powers
        of the primitive ``2n``-th root).  ``σ_g: a(X) -> a(X^g)`` maps the
        evaluation at exponent ``e`` to the input's evaluation at
        ``e·g mod 2n`` -- still an odd exponent because ``g`` is odd -- so
        in the NTT domain the automorphism is a pure permutation of the
        ``n`` values with *no sign corrections*, hence modulus-independent
        and far cheaper than the INTT -> signed-permute -> NTT round trip.

        Returns the cached ``intp`` index array -- shared, read-only by
        convention, and accepted directly by
        :meth:`PolynomialBackend.permute_ntt_stack`.
        """
        if galois_elt % 2 == 0 or not 0 < galois_elt < 2 * self.n:
            raise ValueError("Galois element must be an odd unit mod 2n")
        cached = self._galois_ntt_cache.get(galois_elt)
        if cached is None:
            brv = bit_reversal(self.n)
            exponent = (2 * brv + 1) * galois_elt % (2 * self.n)
            cached = brv[(exponent - 1) >> 1].astype(np.intp, copy=False)
            self._galois_ntt_cache[galois_elt] = cached
        return cached

    def apply_galois_ntt(self, poly: RnsPolynomial, galois_elt: int) -> RnsPolynomial:
        """Apply ``m(X) -> m(X^g)`` directly to an NTT-form polynomial.

        One gather permutation over all residue rows at once (the
        permutation carries no sign flips, so it is the same for every
        modulus and the whole RNS polynomial moves in a single stacked
        backend call).  Bit-identical to the coefficient-domain
        automorphism wrapped in ``from_ntt`` / ``to_ntt``, without the
        ``2·L`` transforms.
        """
        if not poly.is_ntt:
            raise ValueError("apply_galois_ntt operates on NTT-form polynomials")
        be = self.backend
        rows = be.permute_ntt_stack(
            poly.native_rows(be), self.galois_table_ntt(galois_elt)
        )
        return RnsPolynomial(poly.n, poly.moduli, rows, is_ntt=True)

    def __repr__(self) -> str:
        return (
            f"CkksContext({self.params.name}: n={self.n}, "
            f"k={self.k}+special, w={self.params.word_bits})"
        )
