"""Differential tests: windowed block-finder scans == one whole-buffer scan.

The production finders scan a window that starts at 16 KiB and doubles
after every pass without a hit, capped at ``until``. The oracle here runs
a single ``scan_*_candidates`` over the whole buffer and then the strict
parse, so any candidate lost or duplicated at a window seam, or any
difference in what the strict parser was asked, shows up as a mismatch.
The inputs are larger than 2 MiB so that queries cross several window
boundaries, including the 512 KiB / 1 MiB caps.
"""

import gzip
import random
import zlib

import numpy as np
import pytest

from repro.blockfinder import (
    UncompressedBlockFinder,
    VectorizedDynamicBlockFinder,
    scan_dynamic_candidates,
    scan_nc_candidates,
)
from repro.datagen import generate_base64, generate_silesia_like
from repro.deflate import read_block_header
from repro.errors import FormatError
from repro.io import BitReader, MemoryFileReader

#: Bits the vectorized prefilter needs past a candidate position.
PROBE_BITS = 17 + 19 * 3
#: The fetcher's chunk size in the search workloads: ``until`` = chunk end.
CHUNK_BITS = 512 * 1024 * 8
#: Random starts per corpus, and starts within 200 KB of EOF.
RANDOM_STARTS = 8
TAIL_STARTS = 6
#: Known candidates per corpus placed on a window seam.
SEAM_CANDIDATES = 2


def _noise(size: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


CORPORA = {
    "base64-gzip": lambda: gzip.compress(generate_base64(2_900_000, seed=5), 6),
    "silesia-gzip": lambda: gzip.compress(generate_silesia_like(6_800_000, seed=5), 6),
    "noise": lambda: _noise(2_200_000, seed=5),
    # Level 1 over incompressible bytes: a stream of mostly stored blocks.
    "stored-zlib": lambda: zlib.compress(_noise(2_200_000, seed=6), 1),
}


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request):
    blob = CORPORA[request.param]()
    assert len(blob) >= 2 * 1024 * 1024
    return blob, scan_dynamic_candidates(blob, 0, len(blob) * 8), scan_nc_candidates(blob)


def queries(blob: bytes, candidates: np.ndarray):
    """(start, until) pairs: random, near-EOF and seam starts × four ``until``s.

    Seam starts put a known prefilter candidate exactly on either side of
    the boundary between the first and second pass (16 KiB in) or the
    second and third (48 KiB in), where an off-by-one would lose it.
    """
    rng = random.Random(len(blob))
    size_bits = len(blob) * 8
    starts = [rng.randrange(size_bits) for _ in range(RANDOM_STARTS)]
    starts += [size_bits - rng.randrange(1, 200_000 * 8) for _ in range(TAIL_STARTS)]
    known = [int(candidate) for candidate in candidates]
    for candidate in rng.sample(known, min(SEAM_CANDIDATES, len(known))):
        for seam in (16 * 1024 * 8, 48 * 1024 * 8):
            starts += [max(candidate - seam, 0), max(candidate - seam + 1, 0)]
    for start in starts:
        for until in (None, start + 1, start + 4096 * 8,
                      (start // CHUNK_BITS + 1) * CHUNK_BITS):
            yield start, until


def dynamic_oracle(blob: bytes, candidates: np.ndarray, start: int, until):
    """First strict-parse survivor, candidates tested and filter census."""
    end = len(blob) * 8 - 7 if until is None else min(len(blob) * 8 - 7, until)
    reader = BitReader(MemoryFileReader(blob))
    counter = {}
    tested = 0

    def accepts(position):
        reader.seek(position)
        try:
            read_block_header(reader, strict=True, counter=counter)
            return True
        except FormatError:
            return False

    first, last = np.searchsorted(candidates, [start, end])
    for candidate in candidates[first:last]:
        tested += 1
        if accepts(int(candidate)):
            return int(candidate), tested, counter
    # The last bits of the file, where the probe window no longer fits,
    # are swept by the scalar parser.
    for position in range(max(start, len(blob) * 8 - PROBE_BITS), end):
        if accepts(position):
            return position, tested, counter
    return None, tested, counter


def nc_oracle(blob: bytes, candidates: np.ndarray, start: int, until):
    end = len(blob) * 8 if until is None else min(len(blob) * 8, until)
    hits = candidates[(candidates >= max(start, 0)) & (candidates < end)]
    return int(hits[0]) if hits.size else None


def test_dynamic_finder_matches_whole_buffer_scan(corpus):
    blob, candidates, _ = corpus
    for start, until in queries(blob, candidates):
        finder = VectorizedDynamicBlockFinder(blob)
        found = finder.find_next(start, until)
        expected, tested, census = dynamic_oracle(blob, candidates, start, until)
        assert (found, finder.candidates_tested, finder.counter) == (
            expected, tested, census
        ), (start, until)


def test_uncompressed_finder_matches_whole_buffer_scan(corpus):
    blob, _, candidates = corpus
    for start, until in queries(blob, candidates):
        found = UncompressedBlockFinder(blob).find_next(start, until)
        assert found == nc_oracle(blob, candidates, start, until), (start, until)


class _RecordingReader(MemoryFileReader):
    """Logs every ``pread`` as ``(offset, bytes returned)``."""

    def __init__(self, data) -> None:
        super().__init__(data)
        self.reads = []

    def pread(self, offset: int, size: int) -> bytes:
        data = super().pread(offset, size)
        self.reads.append((offset, len(data)))
        return data


# All-zero bytes hold no candidate of either kind, so every pass misses
# and the finders walk their whole window schedule.
@pytest.mark.parametrize("finder_class, windows_kib", [
    (VectorizedDynamicBlockFinder, [16, 32, 64, 128, 256, 512, 512, 512]),
    (UncompressedBlockFinder, [16, 32, 64, 128, 256, 512, 1024, 1024]),
])
def test_passes_grow_from_16_kib_to_the_cap(finder_class, windows_kib):
    reader = _RecordingReader(bytes(4 * 1024 * 1024))
    assert finder_class(reader).find_next(8 * 1000) is None
    sizes = [size for _, size in reader.reads]
    # Each pass reads its window plus the few probe bytes past it.
    assert [size // 1024 for size in sizes[:len(windows_kib)]] == windows_kib
    assert sum(windows_kib) * 1024 <= sum(sizes) <= 4 * 1024 * 1024 + 64 * len(sizes)


@pytest.mark.parametrize("finder_class", [VectorizedDynamicBlockFinder,
                                          UncompressedBlockFinder])
def test_no_pass_reads_past_until(finder_class):
    reader = _RecordingReader(bytes(4 * 1024 * 1024))
    until = 8 * 5000
    assert finder_class(reader).find_next(8 * 1000, until) is None
    furthest = max(offset + size for offset, size in reader.reads)
    assert furthest <= until // 8 + (PROBE_BITS + 7) // 8 + 1
