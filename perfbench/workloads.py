"""The three workloads and one measured session of each.

A session is what a user does once: open a reader, consume the input the
workload's way, close it. Sequential workloads read the whole stream in
``read_size`` calls from a cold open; the seek workload opens warm on its
cached index and issues ``reads_per_session`` seeded uniform-random
``read_at`` calls from one client (a closed loop: the next read is sent
when the previous one returns). Every session checks its output and the
path the reader took, and reports failures instead of retrying them.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import asdict, dataclass, field

KiB = 1024
MiB = 1024 * KiB


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # repro.datagen generator: base64, silesia or fastq
    size: int  # target decompressed bytes
    layout: str  # "stdlib-gzip" or "parallel-friendly"
    path: str  # reader mode the workload must take: search, index, catalog
    backend: str
    parallelization: int
    chunk_size: int
    read_size: int
    reads_per_session: int = 0  # > 0: random read_at loop, else sequential
    build_index: bool = False  # warm index cache built at set-up
    remote_latency_s: float = None  # served over loopback HTTP when set
    remote_block_size: int = 64 * KiB
    corpus_seed: int = None  # fixed corpus; None: the run's --seed

    @property
    def random_access(self) -> bool:
        return self.reads_per_session > 0

    def seed_of_corpus(self, seed: int) -> int:
        return seed if self.corpus_seed is None else self.corpus_seed

    def reader_settings(self) -> dict:
        """Every reader knob the result depends on, pinned explicitly."""
        return {
            "parallelization": self.parallelization,
            "chunk_size": self.chunk_size,
            "backend": self.backend,
            "decoder": "fused",
            "max_memory": None,
            "index_validate": "eager",
            "verify": True,
        }

    def describe(self) -> dict:
        settings = asdict(self)
        settings["reader"] = self.reader_settings()
        return settings


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="base64-search",
            corpus="base64",
            size=8 * MiB,
            layout="stdlib-gzip",
            path="search",
            backend="processes",
            parallelization=2,
            chunk_size=512 * KiB,
            read_size=1 * MiB,
        ),
        Workload(
            name="silesia-index-seek",
            corpus="silesia",
            size=16 * MiB,
            layout="stdlib-gzip",
            path="index",
            backend="threads",
            parallelization=2,
            chunk_size=512 * KiB,
            read_size=64 * KiB,
            reads_per_session=1000,
            build_index=True,
            # On about a third of corpus seeds zlib delegation rejects the
            # final chunk ("truncated gzip footer") and it decodes in pure
            # Python, ~40x slower; p99 and seeks/s then split into two
            # modes by seed. One fixed corpus on which the fallback occurs
            # keeps it in every run; --seed picks the read offsets.
            corpus_seed=1,
        ),
        Workload(
            name="fastq-remote-catalog",
            corpus="fastq",
            size=16 * MiB,
            layout="parallel-friendly",
            path="catalog",
            backend="threads",
            parallelization=2,
            chunk_size=512 * KiB,
            read_size=1 * MiB,
            remote_latency_s=0.010,
        ),
    )
}


@dataclass
class Session:
    setup_s: float
    op_seconds: list = field(default_factory=list)  # successful reads only
    nbytes: int = 0
    wall_s: float = 0.0  # first read to EOF, or the whole read_at loop
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    stats: dict = None
    explain: dict = None
    self_peak_kb: int = 0  # this process's peak RSS during the session
    worker_peak_kb: int = 0  # largest live worker's peak RSS
    reader: object = None  # kept (closed) for traced sessions: save_trace


def open_reader(workload: Workload, inputs, url: str = None, *,
                traced: bool = False):
    from repro import ParallelGzipReader

    source = inputs.archive
    if url is not None:
        from repro.io.remote import open_remote

        source = open_remote(
            url,
            pool_size=workload.parallelization,
            block_size=workload.remote_block_size,
        )
    return ParallelGzipReader(
        source,
        index_cache=inputs.index_dir if workload.build_index else None,
        trace=traced,
        events=traced,
        **workload.reader_settings(),
    )


def time_open(workload: Workload, inputs, url: str = None) -> float:
    """Seconds from the start of open to a ready reader (then closed)."""
    started = time.perf_counter()
    reader = open_reader(workload, inputs, url)
    ready = time.perf_counter()
    reader.close()
    return ready - started


def run_session(workload: Workload, inputs, *, url: str = None,
                expected: bytes = None, rng: random.Random = None,
                traced: bool = False, limit: int = None) -> Session:
    """One open-consume-close cycle. ``limit`` caps the reads (warm-up)."""
    reset_self_peak()
    started = time.perf_counter()
    reader = open_reader(workload, inputs, url, traced=traced)
    session = Session(setup_s=time.perf_counter() - started)
    try:
        if workload.random_access:
            _random_reads(workload, reader, session, expected, rng, limit)
        else:
            _sequential_read(workload, inputs, reader, session, limit)
        session.stats = reader.statistics()
        if traced:
            session.explain = reader.explain()
            session.reader = reader
        session.worker_peak_kb = children_peak_kb()
    finally:
        reader.close()
    session.self_peak_kb = self_peak_kb()
    return session


def _sequential_read(workload, inputs, reader, session, limit) -> None:
    session.attempted = 1  # one pass over the stream
    pieces = []
    started = time.perf_counter()
    try:
        while limit is None or len(pieces) < limit:
            begun = time.perf_counter()
            piece = reader.read(workload.read_size)
            if not piece:
                break
            session.op_seconds.append(time.perf_counter() - begun)
            pieces.append(piece)
    except Exception as error:  # counted, never retried
        session.failed = 1
        session.errors.append(f"read at {sum(map(len, pieces))}: {error!r}")
        return
    finally:
        session.wall_s = time.perf_counter() - started
    session.nbytes = sum(map(len, pieces))
    if limit is not None:
        return
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    if session.nbytes != inputs.size or digest.hexdigest() != inputs.digest:
        session.failed = 1
        session.errors.append(
            f"stream mismatch: {session.nbytes} bytes, digest "
            f"{digest.hexdigest()[:16]} != {inputs.digest[:16]}"
        )


def _random_reads(workload, reader, session, expected, rng, limit) -> None:
    count = workload.reads_per_session if limit is None else limit
    size = workload.read_size
    view = memoryview(expected)
    started = time.perf_counter()
    for _ in range(count):
        offset = rng.randrange(0, len(expected) - size + 1)
        session.attempted += 1
        begun = time.perf_counter()
        try:
            piece = reader.read_at(offset, size)
        except Exception as error:  # counted, never retried
            session.failed += 1
            session.errors.append(f"read_at({offset}): {error!r}")
            continue
        session.op_seconds.append(time.perf_counter() - begun)
        session.nbytes += len(piece)
        if piece != view[offset:offset + size]:
            session.failed += 1
            session.errors.append(f"read_at({offset}) returned wrong bytes")
    session.wall_s = time.perf_counter() - started


def path_violations(workload: Workload, stats: dict) -> list:
    """Reasons the session did not run the path the workload names."""
    problems = []
    candidates = stats["encoding"]["blockfinder_searches"]
    markers = stats["encoding"]["markers_replaced"]
    if stats["backend"] != workload.backend:
        problems.append(f"backend {stats['backend']!r}")
    if stats["pool"]["workers"] != workload.parallelization:
        problems.append(f"{stats['pool']['workers']} pool workers")
    if workload.path == "search":
        if stats["mode"] != "search" or candidates == 0:
            problems.append(f"mode {stats['mode']!r}, {candidates} candidates")
    elif workload.path == "index":
        if not stats["index"]["imported"] or markers or candidates:
            problems.append(
                f"index imported {stats['index']['imported']}, "
                f"{markers} markers, {candidates} candidates"
            )
    elif workload.path == "catalog":
        if not stats["encoding"]["catalog_detected"] or markers or candidates:
            problems.append(
                f"catalog {stats['encoding']['catalog_detected']}, "
                f"{markers} markers, {candidates} candidates"
            )
    return [f"{workload.name} left the {workload.path} path: {problem}"
            for problem in problems]


def _status_kb(pid, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:  # the process has already exited
        pass
    return 0


def children_peak_kb() -> int:
    """Largest peak RSS (KiB) among this process's live children."""
    peak = 0
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids = handle.read().split()
        except OSError:
            continue
        for pid in pids:
            peak = max(peak, _status_kb(pid, "VmHWM"))
    return peak


def self_peak_kb() -> int:
    return _status_kb("self", "VmHWM")


def reset_self_peak() -> None:
    """Restart this process's peak-RSS mark at its current RSS, so earlier
    sessions are not counted (a kernel without the reset counts them)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass
