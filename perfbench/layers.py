"""Per-layer metrics, measured from outside the program.

Two sources feed them. Direct probes time the benchmark's own calls into
each layer's public functions on the workload's file. Traced sessions
(``trace=True, events=True``) contribute the reader's ``statistics()``
counters and its ``explain()`` stage split, which cover the work done
inside worker threads and processes. Nothing here instruments ``src/``.
"""

from __future__ import annotations

import gzip
import os
import statistics
import tempfile
import time

#: Repeats of each cheap direct probe; the median is reported.
PROBE_REPEATS = 5

#: Least share of read wall time explain() must attribute to a stage.
MIN_ATTRIBUTED = 0.99


def _timed(call, repeats: int = PROBE_REPEATS):
    """Median seconds of ``repeats`` calls, and the last call's result."""
    seconds = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def direct_probes(workload, inputs, url: str = None) -> dict:
    """Time direct calls into the layers on the workload's own file."""
    from repro.blockfinder.vectorized import VectorizedDynamicBlockFinder
    from repro.deflate.inflate import inflate
    from repro.gz.catalog import detect_catalog
    from repro.gz.crc32 import fast_crc32
    from repro.gz.header import parse_gzip_header
    from repro.index.store import load_index
    from repro.io import BitReader, ensure_file_reader

    with open(inputs.archive, "rb") as handle:
        blob = handle.read()
    metrics = {}

    # Baseline: single-threaded stdlib zlib over the same file.
    seconds, data = _timed(lambda: gzip.decompress(blob))
    metrics["ref.gzip_mb_s"] = len(data) / seconds / 1e6
    seconds, _ = _timed(lambda: fast_crc32(data))
    metrics["gz.crc32_mb_s"] = len(data) / seconds / 1e6
    del data

    # Block finder from each chunk boundary the fetcher would search at.
    finder = VectorizedDynamicBlockFinder(inputs.archive)
    boundaries = range(
        workload.chunk_size * 8, len(blob) * 8, workload.chunk_size * 8
    )
    find_seconds = []
    for bit in boundaries:
        started = time.perf_counter()
        finder.find_next(bit)
        find_seconds.append(time.perf_counter() - started)
    metrics["blockfinder.find_next_ms"] = (
        statistics.median(find_seconds) * 1e3 if find_seconds else 0.0
    )

    # One conventional inflate of the first member's Deflate stream.
    def inflate_first_stream():
        bits = BitReader(ensure_file_reader(blob))
        parse_gzip_header(bits)
        return inflate(bits, decoder="fused")

    seconds, result = _timed(inflate_first_stream, repeats=1)
    metrics["deflate.inflate_mb_s"] = len(result.data) / seconds / 1e6

    # Catalog probe on a fresh reader of the workload's source.
    detect_seconds = []
    for _ in range(PROBE_REPEATS):
        source = _fresh_source(workload, inputs, url)
        try:
            started = time.perf_counter()
            detect_catalog(source)
            detect_seconds.append(time.perf_counter() - started)
        finally:
            source.close()
    metrics["gz.catalog_detect_s"] = statistics.median(detect_seconds)

    # Eager index import: the cached index on the seek workload, else an
    # index this probe exports from one full untraced pass.
    with tempfile.TemporaryDirectory(dir=os.path.dirname(inputs.archive)) as scratch:
        index_path = _index_file(workload, inputs, scratch)
        metrics["index.load_s"], _ = _timed(
            lambda: load_index(index_path, source=inputs.archive,
                               validate="eager")
        )
    return metrics


def _fresh_source(workload, inputs, url):
    if url is not None:
        from repro.io.remote import open_remote

        return open_remote(url, pool_size=workload.parallelization,
                           block_size=workload.remote_block_size)
    from repro.io import ensure_file_reader

    return ensure_file_reader(inputs.archive)


def _index_file(workload, inputs, scratch: str) -> str:
    if workload.build_index:
        names = [name for name in os.listdir(inputs.index_dir)
                 if not name.endswith(".partial")]
        if len(names) != 1:
            raise RuntimeError(f"expected one cached index, found {names}")
        return os.path.join(inputs.index_dir, names[0])
    from repro import ParallelGzipReader

    path = os.path.join(scratch, "probe.rpzidx")
    with ParallelGzipReader(inputs.archive,
                            **workload.reader_settings()) as reader:
        reader.export_index_atomic(path)
    return path


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def session_metrics(session, inputs) -> dict:
    """Per-layer numbers of one traced session."""
    stats = session.stats
    counters = stats["metrics"]
    totals = session.explain["totals"]
    stages = totals["stages"]
    network = stats["network"] or {}
    block_cache = network.get("block_cache") or {}
    tested = stats["encoding"]["blockfinder_searches"]
    return {
        "blockfinder.find_s": stages["block-find"],
        "blockfinder.candidates_tested": tested,
        "blockfinder.accept_ratio": _ratio(
            counters.get("blockfinder.candidates_accepted", 0), tested
        ),
        "deflate.decode_s": stages["decode"],
        "deflate.window_propagation_s": stages["window-propagation"],
        "deflate.markers_replaced": stats["encoding"]["markers_replaced"],
        "pool.utilization": stats["pool"]["utilization"],
        "pool.queue_wait_s": counters.get(
            "pool.queue_wait_seconds", {}
        ).get("sum", 0.0),
        "fetcher.queue_wait_s": stages["queue-wait"],
        "fetcher.speculative_submitted": stats["speculative_submitted"],
        "fetcher.prefetch_useful_ratio": _ratio(
            stats["prefetch_cache"]["hits"], stats["speculative_submitted"]
        ),
        "fetcher.on_demand_decodes": stats["on_demand_decodes"],
        "fetcher.retries": stats["retries"],
        "cache.prefetch_hit_rate": stats["prefetch_cache"]["hit_rate"],
        "cache.access_hit_rate": stats["access_cache"]["hit_rate"],
        "cache.materialized_hit_rate": stats["materialized_cache"]["hit_rate"],
        "reader.serve_copy_s": stages["serve-copy"],
        "index.windows_validated": stats["index"]["windows_validated"],
        "io.network_s": stages["network-io"],
        "io.requests": network.get("requests", 0),
        "io.read_amplification": _ratio(
            network.get("wire_bytes", 0), inputs.compressed_size
        ),
        "io.block_hit_rate": block_cache.get("hit_rate", 0.0),
        "gz.verify_s": stages["verify"],
        "telemetry.attributed_fraction": totals["attributed_fraction"],
    }
