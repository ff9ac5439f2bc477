"""Property/fuzz tests for the v2 bit-packing kernels and seed expansion.

Wire format v2 stands on two cross-backend bit-exactness contracts:

* ``pack_rows_bits`` / ``unpack_rows_bits`` -- every residue row packs
  to exactly ``ceil(n * width / 8)`` bytes and round-trips losslessly at
  every modulus width, on every backend, producing byte-identical wire
  bytes; truncation or corruption at *any bit* never decodes silently
  (padding bits must be zero, residues must stay below their modulus).
  The oracle is the big-int loop of ``tests/oracles.py``
  (``pack_row_bits`` / ``unpack_row_bits``): the word-level kernels must
  match it byte for byte at every width 1..64 and every row length.  Given a *destination*
  (``unpack_rows_bits(data, n, bounds, out)``: strided rows of a larger
  handle, how a serving flush fills its lane) the kernel decodes the
  same residues in place, leaves the rows it was not handed alone and
  raises the same errors (``_decode(..., dest=True)`` below);
* ``expand_uniform_poly`` -- the seed-expanded uniform column of a v2
  key must regenerate bit-identically everywhere, or a key uploaded
  from one backend decrypts to garbage on another.

Properties run over seeded ``random.Random`` cases only (no external
property-testing dependency; every run replays identical cases), the
convention of ``tests/serving/test_framing_property.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.ckks.backend.base import packed_row_bytes
from repro.ckks.backend.numpy_backend import NumpyBackend
from repro.ckks.backend.reference import ReferenceBackend
from repro.ckks.modarith import Modulus
from repro.ckks.sampling import KEY_SEED_BYTES, expand_uniform_poly

from oracles import pack_row_bits, unpack_row_bits

REF = ReferenceBackend()
NP = NumpyBackend()
BACKENDS = [REF, NP]

#: Odd bounds spanning every interesting width class: below/at/above
#: byte boundaries, the 30-bit toy primes, and the paper's 52-54-bit
#: range (capped at 52 so products fit the backends' uint64 paths).
WIDTH_BOUNDS = [
    3, 5, 13, 127, 255, 257, 8191, (1 << 29) + 11, (1 << 30) - 35,
    (1 << 51) + 129, (1 << 52) - 47,
]


#: The paper's Table 2 modulus widths (data primes, special prime) at
#: their ring sizes.
PAPER_WIDTHS = {
    "Set-A": (4096, (36, 28, 45)),
    "Set-B": (8192, (48, 40, 50)),
    "Set-C": (16384, (50, 48, 52)),
}


def _random_rows(rng: random.Random, bounds, n):
    return [[rng.randrange(b) for _ in range(n)] for b in bounds]


def _bound_of_width(width: int) -> int:
    """The largest bound of exactly ``width`` bits (1 for width 1)."""
    return (1 << width) - 1


def _oracle_pack(rows, bounds) -> bytes:
    return b"".join(
        pack_row_bits(row, bound, bound.bit_length())
        for row, bound in zip(rows, bounds)
    )


#: Destination decodes fill element ``LANE_SLOT`` of a lane this wide.
LANE, LANE_SLOT = 3, 1
#: every corruption case runs standalone and into a lane
DESTS = (False, True)


def _decode(be, data, n, bounds, dest=False):
    """``unpack_rows_bits`` as canonical rows: standalone, or (``dest``)
    into the strided rows ``[LANE_SLOT::LANE]`` of a larger native
    handle, whose other rows must come back untouched."""
    if not dest:
        return be.to_rows(be.unpack_rows_bits(data, n, bounds))
    filler = [[(r + c) % 3 for c in range(n)] for r in range(LANE * len(bounds))]
    handle = be.from_rows([list(row) for row in filler])
    out = handle[LANE_SLOT::LANE]
    assert be.unpack_rows_bits(data, n, bounds, out) is out
    rows = be.to_rows(handle)
    for slot in set(range(LANE)) - {LANE_SLOT}:
        assert rows[slot::LANE] == filler[slot::LANE], "unaddressed rows written"
    return rows[LANE_SLOT::LANE]


def _assert_matches_oracle(rows, bounds):
    """Both backends pack ``rows`` to the big-int oracle's bytes and
    decode them back; the oracle decodes what they packed."""
    n = len(rows[0])
    expected = _oracle_pack(rows, bounds)
    offset = 0
    for row, bound in zip(rows, bounds):
        size = packed_row_bytes(n, bound.bit_length())
        chunk = expected[offset : offset + size]
        assert unpack_row_bits(chunk, n, bound, bound.bit_length()) == row
        offset += size
    assert offset == len(expected)
    for be in BACKENDS:
        handle = be.from_rows([list(r) for r in rows])
        assert be.pack_rows_bits(handle, bounds) == expected, be.name
        assert _decode(be, expected, n, bounds) == rows
        assert _decode(be, expected, n, bounds, dest=True) == rows


# ----------------------------------------------------------------------
# round-trip at every width
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("width", range(1, 65))
    def test_every_width_roundtrips_on_both_backends(self, width):
        rng = random.Random(width)
        bound = _bound_of_width(width)
        n = 16
        rows = _random_rows(rng, [bound, bound], n)
        # force boundary values in: 0 and bound-1 must survive packing
        rows[0][0] = 0
        rows[0][1] = bound - 1
        blobs = []
        for be in BACKENDS:
            handle = be.from_rows([list(r) for r in rows])
            data = be.pack_rows_bits(handle, [bound, bound])
            assert len(data) == 2 * packed_row_bytes(n, width)
            back = be.unpack_rows_bits(data, n, [bound, bound])
            assert be.to_rows(back) == rows
            blobs.append(data)
        assert blobs[0] == blobs[1], "backends disagree on wire bytes"

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_widths_across_rows(self, seed):
        rng = random.Random(1000 + seed)
        bounds = rng.sample(WIDTH_BOUNDS, rng.randrange(2, 6))
        n = rng.choice([8, 24, 64])
        rows = _random_rows(rng, bounds, n)
        blobs = []
        for be in BACKENDS:
            handle = be.from_rows([list(r) for r in rows])
            data = be.pack_rows_bits(handle, bounds)
            expected = sum(
                packed_row_bytes(n, b.bit_length()) for b in bounds
            )
            assert len(data) == expected
            back = be.unpack_rows_bits(data, n, bounds)
            assert be.to_rows(back) == rows
            blobs.append(data)
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("width", range(1, 65))
    @pytest.mark.parametrize("n", [1, 3, 13, 100])
    def test_every_width_and_length_matches_the_bigint_oracle(self, width, n):
        """Row lengths that are no multiple of the group size (8
        coefficients at odd widths, up to 64 at width 1) end in a
        partial group; three rows make a stack of one width."""
        rng = random.Random(64 * n + width)
        bound = _bound_of_width(width)
        rows = _random_rows(rng, [bound] * 3, n)
        rows[0][0] = bound - 1
        rows[1][-1] = bound - 1
        _assert_matches_oracle(rows, [bound] * 3)

    @pytest.mark.parametrize("width", [1, 7, 8, 29, 36, 45, 53, 63, 64])
    def test_ring_sized_rows_match_the_bigint_oracle(self, width):
        rng = random.Random(width)
        bound = _bound_of_width(width)
        _assert_matches_oracle(_random_rows(rng, [bound], 4096), [bound])

    @pytest.mark.parametrize("width", range(1, 65))
    @pytest.mark.parametrize("n", [64, 4096])
    def test_destination_decode_equals_standalone_decode(self, width, n):
        """Whole groups at every width (``n`` a multiple of 64): windows
        are read in place from the wire bytes where a width's rows lie
        evenly spaced (the middle modulus here) and staged where they do
        not (the outer two), and land in the strided rows of a lane
        exactly as in a fresh matrix."""
        rng = random.Random(n + width)
        outer, middle = _bound_of_width(width), _bound_of_width(max(1, width - 8))
        bounds = [outer, middle, outer] * 2
        rows = _random_rows(rng, bounds, n)
        rows[0][0] = bounds[0] - 1
        rows[-1][-1] = bounds[-1] - 1
        data = NP.pack_rows_bits(NP.from_rows(rows), bounds)
        for be in BACKENDS:
            assert _decode(be, data, n, bounds) == rows
            assert _decode(be, data, n, bounds, dest=True) == rows

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_destination_shape_is_checked(self, be):
        """A destination brings exactly one ``n``-wide row per decoded
        row: numpy would broadcast a short one, ``zip`` drop a long one."""
        bounds = [(1 << 13) - 5] * 2
        data = be.pack_rows_bits(be.from_rows([[1] * 8, [2] * 8]), bounds)
        for count, n in ((1, 8), (3, 8), (2, 4), (2, 16)):
            out = be.from_rows([[0] * n for _ in range(count)])
            with pytest.raises(ValueError, match="destination|width"):
                be.unpack_rows_bits(data, 8, bounds, out)
            with pytest.raises(ValueError, match="destination|width"):
                be.unpack_rows(bytes(2 * 8 * 8), 2, 8, out)

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_word_rows_decode_into_a_destination(self, be):
        """The v1 kernel under the same contract."""
        rng = random.Random(8)
        rows = [[rng.randrange(1 << 64) for _ in range(16)] for _ in range(4)]
        data = be.pack_rows(be.from_rows(rows))
        assert be.to_rows(be.unpack_rows(data, 4, 16)) == rows
        handle = be.from_rows([[9] * 16 for _ in range(4 * LANE)])
        out = handle[LANE_SLOT::LANE]
        assert be.unpack_rows(data, 4, 16, out) is out
        back = be.to_rows(handle)
        assert back[LANE_SLOT::LANE] == rows
        assert back[0::LANE] == back[2::LANE] == [[9] * 16] * 4

    @pytest.mark.parametrize("name", sorted(PAPER_WIDTHS))
    def test_paper_width_lists_match_the_bigint_oracle(self, name):
        """A two-component object over the paper's moduli widths, at the
        paper's ring size: same-width rows pack as one stack."""
        n, widths = PAPER_WIDTHS[name]
        rng = random.Random(n)
        bounds = [(1 << w) - rng.randrange(1, 1 << (w - 2)) for w in widths] * 2
        assert [b.bit_length() for b in bounds] == list(widths) * 2
        _assert_matches_oracle(_random_rows(rng, bounds, n), bounds)

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_stacked_components_equal_per_component_calls(self, be):
        """Rows are byte-aligned and independent: one call over all the
        components of an object (bounds list repeated) produces, and
        decodes, the concatenation of one call per component."""
        rng = random.Random(36)
        bounds = [(1 << 36) - 5, (1 << 28) - 57, (1 << 45) - 55]
        n = 24
        comps = [_random_rows(rng, bounds, n) for _ in range(3)]
        handles = [be.from_rows([list(r) for r in rows]) for rows in comps]
        parts = [be.pack_rows_bits(h, bounds) for h in handles]
        stacked = be.pack_rows_bits(
            [row for h in handles for row in h], bounds * 3
        )
        assert stacked == b"".join(parts)
        for dest in DESTS:
            back = _decode(be, stacked, n, bounds * 3, dest)
            assert back == [row for rows in comps for row in rows]

    def test_pack_rejects_residue_at_or_above_bound(self):
        for be in BACKENDS:
            handle = be.from_rows([[0, 1, 7, 3]])
            with pytest.raises(ValueError, match="reduce rows before packing"):
                be.pack_rows_bits(handle, [7])  # 7 >= bound 7
            # list rows no 8-byte word can hold: the documented
            # ValueError, not numpy's OverflowError
            for bad in (-1, 1 << 64):
                with pytest.raises(
                    ValueError, match="reduce rows before packing"
                ):
                    be.pack_rows_bits([[0, bad, 3, 2]], [7])


# ----------------------------------------------------------------------
# truncation and corruption at every bit boundary
# ----------------------------------------------------------------------
class TestCorruption:
    def _packed(self, be, bounds, n, seed=7):
        rng = random.Random(seed)
        rows = _random_rows(rng, bounds, n)
        return be.pack_rows_bits(be.from_rows(rows), bounds)

    #: width 29 packs 8 coefficients per group; 13 leaves a partial
    #: group and 7 padding bits
    ODD_BOUND = (1 << 28) + 3
    ODD_N = 13

    def _check_every_truncation_raises(self, be, bounds, n):
        data = self._packed(be, bounds, n)
        for dest in DESTS:
            for cut in range(len(data)):
                with pytest.raises(ValueError, match="truncated"):
                    _decode(be, data[:cut], n, bounds, dest)

    def _check_no_bitflip_decodes_out_of_range(self, be, bound, n):
        data = self._packed(be, [bound], n)
        width = bound.bit_length()
        for dest in DESTS:
            for bit in range(8 * len(data)):
                corrupt = bytearray(data)
                corrupt[bit // 8] ^= 1 << (7 - bit % 8)
                try:
                    rows = _decode(be, bytes(corrupt), n, [bound], dest)
                except ValueError:
                    continue
                assert bit < n * width, "a flipped padding bit decoded"
                assert all(0 <= v < bound for v in rows[0])

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_every_truncation_raises(self, be):
        self._check_every_truncation_raises(
            be, [(1 << 13) - 5, (1 << 30) - 35], n=8
        )

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_every_truncation_raises_in_a_partial_group(self, be):
        self._check_every_truncation_raises(
            be, [self.ODD_BOUND, (1 << 13) - 5, self.ODD_BOUND], self.ODD_N
        )

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_trailing_bytes_raise(self, be):
        bounds = [(1 << 13) - 5]
        data = self._packed(be, bounds, n=8)
        for dest in DESTS:
            with pytest.raises(ValueError, match="trailing"):
                _decode(be, bytes(data) + b"\x00", 8, bounds, dest)

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_bitflip_never_decodes_silently_out_of_range(self, be):
        """Flip every bit of a packed row: the decode either raises or
        yields residues all strictly below the bound -- corrupt padding
        bits and out-of-range residues are always caught."""
        self._check_no_bitflip_decodes_out_of_range(be, (1 << 29) + 11, n=8)

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_bitflip_in_a_partial_group_never_decodes_silently(self, be):
        self._check_no_bitflip_decodes_out_of_range(
            be, self.ODD_BOUND, self.ODD_N
        )

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_residue_at_or_above_bound_raises(self, be):
        """A residue the width can hold but the modulus cannot: the
        kernel's own range check, on the wire bytes of a wider bound."""
        bound = (1 << 29) + 11
        rows = [[bound + 1, 0, 5, bound - 1] * 2]
        data = be.pack_rows_bits(be.from_rows(rows), [(1 << 30) - 1])
        for dest in DESTS:
            with pytest.raises(ValueError, match="packed residue .* corrupt row"):
                _decode(be, data, 8, [bound], dest)

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_nonzero_padding_bits_raise(self, be):
        """The zero pad completing the last byte is load-bearing: a set
        bit there is corruption, not slack."""
        bound = (1 << 29) + 11  # width 30 -> 8*30=240 bits, 0 pad at n=8
        n = 3  # 90 bits -> 6 padding bits in the last byte
        data = self._packed(be, [bound], n)
        assert len(data) == packed_row_bytes(n, 30)
        corrupt = bytearray(data)
        corrupt[-1] |= 0x01  # lowest padding bit
        for dest in DESTS:
            with pytest.raises(ValueError, match="padding"):
                _decode(be, bytes(corrupt), n, [bound], dest)


# ----------------------------------------------------------------------
# seeded key expansion
# ----------------------------------------------------------------------
class TestSeedExpansion:
    MODULI = [Modulus((1 << 30) - 35), Modulus((1 << 30) - 107)]

    def test_deterministic(self):
        seed = bytes(range(KEY_SEED_BYTES))
        a = expand_uniform_poly(seed, 3, 16, self.MODULI)
        b = expand_uniform_poly(seed, 3, 16, self.MODULI)
        assert a == b

    def test_index_and_seed_separate_streams(self):
        seed = bytes(range(KEY_SEED_BYTES))
        other = bytes(KEY_SEED_BYTES)
        assert expand_uniform_poly(seed, 0, 16, self.MODULI) != (
            expand_uniform_poly(seed, 1, 16, self.MODULI)
        )
        assert expand_uniform_poly(seed, 0, 16, self.MODULI) != (
            expand_uniform_poly(other, 0, 16, self.MODULI)
        )

    def test_wrong_seed_length_rejected(self):
        with pytest.raises(ValueError):
            expand_uniform_poly(b"short", 0, 16, self.MODULI)

    def test_residues_in_range(self):
        seed = b"\xab" * KEY_SEED_BYTES
        poly = expand_uniform_poly(seed, 0, 64, self.MODULI)
        for row, m in zip(poly.residues, self.MODULI):
            assert all(0 <= v < m.value for v in row)

    def test_bit_identical_across_backends(self):
        """The expansion is pure Python by construction, so the *wire
        bytes* of an expanded column agree across backends exactly."""
        from repro.ckks.backend import use_backend

        seed = b"\x5a" * KEY_SEED_BYTES
        blobs = []
        for name in ("reference", "numpy"):
            with use_backend(name):
                poly = expand_uniform_poly(seed, 2, 32, self.MODULI)
                blobs.append(tuple(tuple(r) for r in poly.residues))
        assert blobs[0] == blobs[1]
