"""Seeded benchmark inputs, generated once per (workload, seed, size).

Every input is a pure function of the workload's corpus settings and the
seed (``Workload.seed_of_corpus``). The first run for a key generates the
corpus, compresses it, writes the archive and the SHA-256 of the
generator's output into a cache directory inside the checkout (ignored by
git), and for the seek workload builds the persistent seek index through
the reader's ``index_cache=``.
Later runs only read the cache. Files land through a temporary name and
``os.replace``, and the digest is written last, so an interrupted run
leaves either a complete entry or one that is rebuilt.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import shutil
from dataclasses import dataclass

#: Bump when the generated bytes or the cache layout change.
FORMAT = 1

ARCHIVE = "input.gz"
DIGEST = "sha256.txt"  # "<hex digest> <decompressed length>"
INDEX_DIR = "index"


@dataclass(frozen=True)
class Inputs:
    archive: str  # path of the compressed input
    digest: str  # hex SHA-256 of the generator's output
    size: int  # decompressed bytes (generators may overshoot the target)
    compressed_size: int
    index_dir: str  # the reader's index_cache directory (seek workload)


def _generate(corpus: str, size: int, seed: int) -> bytes:
    from repro.datagen import (
        generate_base64,
        generate_fastq,
        generate_silesia_like,
    )

    generators = {
        "base64": generate_base64,
        "silesia": generate_silesia_like,
        "fastq": generate_fastq,
    }
    return generators[corpus](size, seed=seed)


def _compress(data: bytes, layout: str) -> bytes:
    if layout == "stdlib-gzip":
        return gzip.compress(data, compresslevel=6, mtime=0)
    if layout == "parallel-friendly":
        from repro.gz.parallel_writer import compress_parallel

        return compress_parallel(data, parallelization=1,
                                 layout="parallel-friendly")
    raise ValueError(f"unknown layout {layout!r}")


def _write_atomic(path: str, payload: bytes) -> None:
    partial = path + ".partial"
    with open(partial, "wb") as handle:
        handle.write(payload)
    os.replace(partial, path)


def entry_dir(workload, seed: int, cache_root: str) -> str:
    return os.path.join(
        cache_root,
        f"v{FORMAT}-{workload.name}-seed{workload.seed_of_corpus(seed)}"
        f"-{workload.size}",
    )


def is_prepared(workload, seed: int, cache_root: str) -> bool:
    return os.path.exists(
        os.path.join(entry_dir(workload, seed, cache_root), DIGEST)
    )


def prepare(workload, seed: int, cache_root: str) -> Inputs:
    """Return the cached inputs of ``workload`` for ``seed``, building
    them first if this (workload, seed, size) has not been seen."""
    entry = entry_dir(workload, seed, cache_root)
    archive = os.path.join(entry, ARCHIVE)
    digest_path = os.path.join(entry, DIGEST)
    index_dir = os.path.join(entry, INDEX_DIR)
    if not os.path.exists(digest_path):
        shutil.rmtree(entry, ignore_errors=True)
        os.makedirs(entry)
        data = _generate(workload.corpus, workload.size,
                         workload.seed_of_corpus(seed))
        _write_atomic(archive, _compress(data, workload.layout))
        record = f"{hashlib.sha256(data).hexdigest()} {len(data)}"
        del data
        if workload.build_index:
            _build_index(workload, archive, index_dir)
        _write_atomic(digest_path, record.encode())
    with open(digest_path, "rb") as handle:
        digest, size = handle.read().decode().split()
    return Inputs(
        archive=archive,
        digest=digest,
        size=int(size),
        compressed_size=os.path.getsize(archive),
        index_dir=index_dir,
    )


def _build_index(workload, archive: str, index_dir: str) -> None:
    from repro import ParallelGzipReader

    with ParallelGzipReader(
        archive,
        index_cache=index_dir,
        **workload.reader_settings(),
    ) as reader:
        while reader.read(8 << 20):
            pass
        if not reader.statistics()["index"]["exported"]:
            raise RuntimeError(f"index cache not written for {archive}")


def expected_bytes(inputs: Inputs) -> bytes:
    """The decompressed input, checked against the generator's digest.

    Decompressing the cached archive with zlib is far cheaper than
    regenerating the corpus; the digest ties the bytes to the seeded
    generator's output, so slices compared against them are compared
    against the generator.
    """
    with open(inputs.archive, "rb") as handle:
        data = gzip.decompress(handle.read())
    if len(data) != inputs.size or (
        hashlib.sha256(data).hexdigest() != inputs.digest
    ):
        raise RuntimeError(
            f"cached archive {inputs.archive} does not hold the generator's "
            "output; delete the cache entry"
        )
    return data
