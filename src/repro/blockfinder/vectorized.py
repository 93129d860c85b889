"""Vectorized Dynamic Block finder — NumPy as the bit-parallelism engine.

The paper accelerates its block finder with compile-time lookup tables and
bit-packed arithmetic (§3.4.2). The pure-Python analogue of that
"process many bits per instruction" idea is NumPy: this finder evaluates
the first *five* filter stages of the §3.4.2 chain for **every bit
position at once**:

1. final-block bit = 0,
2. block type = 0b10,
3. HLIT < 30,
4. packed precode histogram built by vectorized gathers (the 5-bit-field
   packing of the paper, as array arithmetic),
5. histogram validity/efficiency walk (Fig. 6), with the degenerate
   one-symbol special case.

Only survivors (a few hundred per MiB of random input, per Table 1's
"invalid Precode-encoded data" rate) reach the scalar strict parser for
the remaining checks. This is the production finder used by
:class:`~repro.blockfinder.combined.CombinedBlockFinder`; the scalar
variants remain available for the Table 1/2 component benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..deflate.block import read_block_header
from ..errors import FormatError
from ..io import BitReader, ensure_file_reader
from .base import BlockFinder, scan_windows

__all__ = ["VectorizedDynamicBlockFinder", "scan_dynamic_candidates"]

#: Bits a candidate needs for the vectorized checks: 17 header bits plus
#: 19 precode triplets.
_PROBE_BITS = 17 + 19 * 3
#: Largest window of positions one vectorized pass evaluates, in bytes.
_MAX_WINDOW = 512 * 1024

_HISTOGRAM_LUT_ARRAY = None


def _histogram_lut_array() -> np.ndarray:
    """The 12-bit (4-triplet) packed-histogram LUT as a NumPy gather table."""
    global _HISTOGRAM_LUT_ARRAY
    if _HISTOGRAM_LUT_ARRAY is None:
        from ..huffman.precode import _histogram_lut

        _HISTOGRAM_LUT_ARRAY = np.array(_histogram_lut(), dtype=np.uint64)
    return _HISTOGRAM_LUT_ARRAY


def scan_dynamic_candidates(data: bytes, start_bit: int, until_bit: int) -> np.ndarray:
    """Bit offsets in ``[start_bit, until_bit)`` passing filter stages 1-5.

    ``data`` holds the bytes covering the probed range; offsets are
    relative to ``data[0]``'s first bit. Positions whose probe window runs
    past ``data`` are not evaluated (callers re-scan the tail or hand it
    to a scalar finder).
    """
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    limit = min(until_bit, len(bits) - _PROBE_BITS)
    if limit <= start_bit:
        return np.empty(0, dtype=np.int64)

    # Stages 1-3: non-final, type 10 (LSB-first: 0 then 1), HLIT < 30.
    # Shifted slices, not a gather per position: no per-position index
    # array is ever built.
    mask = (bits[start_bit:limit] == 0) & (bits[start_bit + 1 : limit + 1] == 0)
    mask &= bits[start_bit + 2 : limit + 2] == 1
    candidates = np.flatnonzero(mask) + start_bit
    if not candidates.size:
        return candidates
    hlit = np.zeros(len(candidates), dtype=np.int32)
    for bit_index in range(5):
        hlit |= bits[candidates + 3 + bit_index].astype(np.int32) << bit_index
    candidates = candidates[hlit < 30]
    if not candidates.size:
        return candidates

    # Stage 4: the packed precode histogram (5-bit fields per code length),
    # exactly the paper's bit-packing. The 57 triplet bits are fetched as
    # one unaligned 64-bit load per candidate (8 byte-gathers + shift) and
    # histogrammed through the 4-triplet lookup table — triplets beyond
    # HCLEN+4 are masked to zero, which only inflates the ignored
    # length-0 field (19 zeros still fit its 5 bits).
    hclen = np.zeros(len(candidates), dtype=np.int32)
    for bit_index in range(4):
        hclen |= bits[candidates + 13 + bit_index].astype(np.int32) << bit_index
    num_triplets = (hclen + 4).astype(np.uint64)

    raw = np.frombuffer(data, dtype=np.uint8)
    triplet_bit = candidates + 17
    byte_base = triplet_bit >> 3
    bit_shift = (triplet_bit & 7).astype(np.uint64)
    window = np.zeros(len(candidates), dtype=np.uint64)
    for byte_index in range(8):
        window |= raw[byte_base + byte_index].astype(np.uint64) << np.uint64(
            8 * byte_index
        )
    triplets = (window >> bit_shift) & np.uint64((1 << 57) - 1)
    triplets &= (np.uint64(1) << (np.uint64(3) * num_triplets)) - np.uint64(1)

    lut = _histogram_lut_array()
    packed = (
        lut[triplets & np.uint64(0xFFF)]
        + lut[(triplets >> np.uint64(12)) & np.uint64(0xFFF)]
        + lut[(triplets >> np.uint64(24)) & np.uint64(0xFFF)]
        + lut[(triplets >> np.uint64(36)) & np.uint64(0xFFF)]
        + lut[triplets >> np.uint64(48)]
    ).astype(np.int64)

    # Stage 5: validity walk over the packed fields (Fig. 6).
    available = np.ones(len(candidates), dtype=np.int64)
    never_oversubscribed = np.ones(len(candidates), dtype=bool)
    for level in range(1, 8):
        count = (packed >> (5 * level)) & 31
        available = available * 2 - count
        never_oversubscribed &= available >= 0
    complete = never_oversubscribed & (available == 0)
    single_symbol = (packed >> 5) == 1  # one symbol of length 1, rest zero
    return candidates[complete | single_symbol]


class VectorizedDynamicBlockFinder(BlockFinder):
    """Production Dynamic Block finder: vectorized prefilter + strict parse."""

    def __init__(self, source, counter: dict = None):
        self._file_reader = ensure_file_reader(source)
        self._bit_reader = BitReader(self._file_reader)
        self.counter = counter if counter is not None else {}
        self.candidates_tested = 0

    def find_next(self, bit_offset: int, until: int = None):
        end = self._file_reader.size() * 8 - 7
        if until is not None:
            end = min(end, until)
        for start, stop in scan_windows(bit_offset, end, _MAX_WINDOW):
            base_bit = start // 8 * 8
            chunk = self._file_reader.pread(
                start // 8, (stop - base_bit + _PROBE_BITS + 7) // 8
            )
            candidates = scan_dynamic_candidates(
                chunk, start - base_bit, stop - base_bit
            )
            for candidate in candidates:
                offset = int(candidate) + base_bit
                self.candidates_tested += 1
                self._bit_reader.seek(offset)
                try:
                    read_block_header(
                        self._bit_reader, strict=True, counter=self.counter
                    )
                    return offset
                except FormatError:
                    continue
            probed_until = base_bit + len(chunk) * 8 - _PROBE_BITS
            if probed_until < stop:
                # Tail of the file: the probe window no longer fits, but a
                # candidate might still hide in the last bits — let the
                # scalar parser sweep them.
                return self._scalar_tail(max(start, probed_until), end - 1)
        return None

    def _scalar_tail(self, position: int, limit: int):
        while position <= limit:
            self._bit_reader.seek(position)
            try:
                read_block_header(self._bit_reader, strict=True, counter=self.counter)
                return position
            except FormatError:
                position += 1
        return None
