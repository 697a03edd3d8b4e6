"""Per-node shared-memory sharding of k-signature refinement rounds.

The experiment pool (:mod:`repro.experiments.parallel`) shards *cells* —
whole alignment runs — across workers.  The k-bisimulation family
(:mod:`repro.core.ksignature`) parallelizes one level deeper: within a
single run, each round's per-node signatures depend only on the previous
round's color buffer, so the subset is split into contiguous *node
shards* and every worker hashes its slice independently (the
embarrassingly parallel shape of Rau et al.).

The protocol mirrors the store pool's shared-memory contract:

* the parent publishes the immutable subset-restricted CSR arrays
  (subset ids, offsets, predicates, objects) into named segments
  **once**, plus one writable ``colors`` segment it refreshes before
  each round's fan-out;
* workers attach by name at pool start (zero-copy ``numpy`` views when
  numpy is importable, ``array("q")`` copies otherwise) and re-read the
  live colors view every invocation — only ``(lo, hi)`` bounds and the
  resulting ``(signatures, digests)`` bytes ever cross the process
  boundary;
* shard results are merged in shard order, which is subset order, so the
  pooled signature stream is byte-identical to the serial one and the
  interned colors — and hence the partition — are byte-identical for
  every ``jobs`` value.  The differential oracle's ``kbisim`` axis pins
  this.

Any pool failure (start failure, crashed worker, platform without
shared memory) falls back to the serial driver and recomputes from the
initial colors — same interner, same keys, same result.
"""

from __future__ import annotations

import multiprocessing
from array import array
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Collection

from ..core.ksignature import (
    SignatureStats,
    ksignature_colors,
    ksignature_rounds,
    prepare_signature_run,
    shard_signatures,
)
from ..model.csr import CSRGraph
from ..model.graph import NodeId, TripleGraph
from ..partition.coloring import Partition
from ..partition.interner import ColorInterner
from .parallel import default_start_method, in_worker, mark_worker, usable_cpus
from .shm import ShmRegistry, attach_bytes, attach_segment, shm_available

#: Attached shard state of one worker process (set by the initializer).
_WORKER_STATE: dict[str, Any] | None = None


def pooled_available() -> bool:
    """Can this process run the signature shard pool?

    Nested pools stay serial (a pool worker must not spawn its own
    pool), and platforms without named shared memory have no segment
    transport to offer.
    """
    return shm_available() and not in_worker()


def _attach_int64(manifest: dict, keepalive: list) -> Any:
    """A published int64 array as a numpy view, or an ``array`` copy."""
    try:
        from .shm import attach_index_array

        return attach_index_array(manifest, keepalive)
    except ImportError:  # pragma: no cover - numpy-less platforms
        return array("q", attach_bytes(manifest))


def _colors_view(segment: Any, count: int) -> Any:
    """A live int64 view over the parent-refreshed colors segment."""
    try:  # pragma: no cover - numpy-less branch exercised on bare CI
        import numpy
    except ImportError:
        return memoryview(segment.buf)[: count * 8].cast("q")
    view = numpy.frombuffer(segment.buf, dtype=numpy.int64, count=count)
    view.flags.writeable = False
    return view


def _shard_init(manifest: dict) -> None:
    """Worker initializer: attach every published segment by name."""
    global _WORKER_STATE
    mark_worker()
    keepalive: list = []
    state: dict[str, Any] = {"keepalive": keepalive, "engine": manifest["engine"]}
    for key in ("subset_ids", "sub_offsets", "sub_predicates", "sub_objects"):
        state[key] = _attach_int64(manifest[key], keepalive)
    segment = attach_segment(manifest["colors"])
    keepalive.append(segment)
    state["colors"] = _colors_view(segment, manifest["colors"]["count"])
    _WORKER_STATE = state


def _shard_invoke(lo: int, hi: int) -> tuple[bytes, bytes]:
    """Hash one contiguous shard against the current colors segment."""
    state = _WORKER_STATE
    assert state is not None, "worker used before _shard_init ran"
    sigs, digests = shard_signatures(
        state["colors"],
        state["subset_ids"],
        state["sub_offsets"],
        state["sub_predicates"],
        state["sub_objects"],
        lo,
        hi,
        engine=state["engine"],
    )
    return sigs.tobytes(), digests


def _shard_bounds(count: int, workers: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` shards covering ``range(count)``."""
    workers = max(1, min(workers, count))
    base, extra = divmod(count, workers)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for index in range(workers):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def pooled_ksignature_partition(
    graph: TripleGraph,
    interner: ColorInterner | None = None,
    k: int = 3,
    engine: str = "reference",
    subset: Collection[NodeId] | None = None,
    partition: Partition | None = None,
    csr: CSRGraph | None = None,
    stats: SignatureStats | None = None,
    jobs: int = 2,
) -> Partition:
    """:func:`~repro.core.ksignature.ksignature_partition`, sharded.

    Same contract and byte-identical output; *jobs* selects the worker
    count (``0`` = one per usable CPU).  Signature hashing fans out over
    per-node shards each round; everything else — validation, interning
    order, early exit — is the shared round loop.  On any pool failure
    the run restarts serially from the initial colors (the interner's
    memoization makes the replay byte-identical), so *jobs* can never
    change a result, only wall-clock.
    """
    csr, interner, stats, coloring, colors, subset_ids = prepare_signature_run(
        graph, interner, k, engine, subset, partition, csr, stats
    )
    workers = usable_cpus() if jobs == 0 else jobs
    workers = min(workers, len(subset_ids)) if subset_ids else 1

    rounds = 0
    converged = False
    classes = len(set(colors))
    done = False
    if workers > 1:
        try:
            out = _run_pooled(
                csr, colors, subset_ids, k, interner, engine, stats, workers
            )
            final_colors, rounds, converged, classes = out
            done = True
        except (OSError, RuntimeError, ValueError):
            # Pool start failure, worker crash (BrokenProcessPool is a
            # RuntimeError) or segment trouble: degrade to serial.
            stats.class_counts.clear()
    if not done:
        final_colors, rounds, converged, classes = ksignature_colors(
            csr, colors, subset_ids, k, interner, engine=engine, stats=stats
        )
    stats.rounds = rounds
    stats.converged = converged
    stats.final_classes = classes

    coloring.update(zip(csr.nodes, final_colors))
    return Partition(coloring)


def _run_pooled(
    csr: CSRGraph,
    colors: list[int],
    subset_ids: list[int],
    k: int,
    interner: ColorInterner,
    engine: str,
    stats: SignatureStats,
    workers: int,
) -> tuple[list[int], int, bool, int]:
    """One pooled run: publish segments, fan rounds out, merge in order."""
    sub_offsets, sub_predicates, sub_objects = csr.subgraph_pairs(subset_ids)
    count = len(colors)
    shards = _shard_bounds(len(subset_ids), workers)
    context = multiprocessing.get_context(default_start_method())

    with ShmRegistry() as registry:
        manifest = {
            "engine": engine,
            "subset_ids": registry.publish_array(array("q", subset_ids)),
            "sub_offsets": registry.publish_array(sub_offsets),
            "sub_predicates": registry.publish_array(sub_predicates),
            "sub_objects": registry.publish_array(sub_objects),
        }
        segment = registry.create(max(1, count * 8))
        manifest["colors"] = {"name": segment.name, "count": count}
        pool = ProcessPoolExecutor(
            max_workers=len(shards),
            mp_context=context,
            initializer=_shard_init,
            initargs=(manifest,),
        )
        try:
            def batch(current: list[int]) -> tuple[array, bytes]:
                segment.buf[: count * 8] = array("q", current).tobytes()
                futures = [
                    pool.submit(_shard_invoke, lo, hi) for lo, hi in shards
                ]
                sigs = array("q")
                digests = bytearray()
                for future in futures:
                    sig_bytes, digest_bytes = future.result()
                    sigs.frombytes(sig_bytes)
                    digests += digest_bytes
                return sigs, bytes(digests)

            return ksignature_rounds(
                list(colors), subset_ids, batch, k, interner, stats=stats
            )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
