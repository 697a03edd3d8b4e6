"""Batch execution: snapshot reuse + shared-memory fan-out.

Two workloads, two acceptance surfaces:

**Batch (store vs seed)** — the evaluation's bread and butter: the EFO
all-pairs matrices (a Figure-10-style trivial + deblank ratio grid *and*
a Figure-11-style deblank count grid — two figures sharing one dataset,
exactly the cross-figure redundancy the store eliminates) plus a
Figure-13-style consecutive-pair sweep (hybrid + overlap counts over a
GtoPdb chain).  Gates: snapshot reuse (store, jobs=1) is ≥ 1.3× over the
per-cell seed path, and ≥ 2× end to end.

**Shared-memory pool (jobs=N vs jobs=1)** — a scale-free synthetic
all-pairs matrix sized so the serial run takes ≥ 5 s, executed through
:func:`~repro.experiments.parallel.run_store_cells`: the parent
publishes the store once into named shm segments, persistent workers
attach by name, and only ``(cell, manifest, index)`` crosses the process
boundary.  Gates: results byte-identical at jobs ∈ {1, 2, 4}, no leaked
``/dev/shm`` segments, and — on machines with ≥ 4 usable CPUs — jobs=4
is ≥ 2× over jobs=1.  On smaller machines the ratio is recorded
(with the ``cpus`` context field) but not gated: a 1-CPU box cannot
honestly run four workers faster than one.

A summary table is written to ``results/parallel_runner.txt`` and every
measurement is appended to ``results/bench.json``.
"""

from __future__ import annotations

import gc
import json
import time

from repro.align import AlignConfig
from repro.core.deblank import deblank_partition
from repro.core.hybrid import hybrid_partition
from repro.core.trivial import trivial_partition
from repro.datasets import EFOGenerator, GtoPdbGenerator
from repro.evaluation.metrics import (
    aligned_edge_count,
    aligned_edge_ratio,
    matched_entity_count,
)
from repro.experiments.cells import edge_ratio_cell, method_counts_cell
from repro.experiments.parallel import (
    fork_available,
    run_store_cells,
    usable_cpus,
)
from repro.experiments.shm import list_segments, shm_available
from repro.experiments.store import GENERATOR_FAMILIES, VersionStore
from repro.model.union import combine
from repro.partition.interner import ColorInterner
from repro.similarity.overlap_alignment import overlap_partition

from .conftest import record_bench

EFO_SCALE, EFO_SEED, EFO_VERSIONS = 0.3, 777, 10
GTOPDB_SCALE, GTOPDB_SEED, GTOPDB_VERSIONS = 0.3, 7716, 4
THETA = 0.65

REQUIRED_SERIAL_SPEEDUP = 1.3
REQUIRED_END_TO_END_SPEEDUP = 2.0

#: The shm-pool workload: a scale-free synthetic history big enough that
#: the all-pairs hybrid+overlap matrix takes ≥ MIN_SERIAL_SECONDS
#: serially — the floor that makes the jobs=4 gate a statement about
#: sustained throughput rather than pool start-up noise.
SHM_FAMILY = "synthetic_scale_free"
SHM_SCALE, SHM_SEED, SHM_VERSIONS = 6.0, 300, 10
MIN_SERIAL_SECONDS = 5.0
REQUIRED_POOL_SPEEDUP = 2.0
POOL_GATE_CPUS = 4

REPORT_PATH = "parallel_runner.txt"


# ----------------------------------------------------------------------
# The seed (pre-batch) path, kept verbatim as the baseline
# ----------------------------------------------------------------------
def seed_path() -> tuple:
    """Per-cell rebuilds, exactly like the pre-VersionStore figures."""
    efo = EFOGenerator(scale=EFO_SCALE, seed=EFO_SEED, versions=EFO_VERSIONS)
    graphs = efo.graphs()
    matrix_rows = []
    for source in range(EFO_VERSIONS):
        for target in range(source, EFO_VERSIONS):
            # Figure-10-style cell: trivial + deblank ratios.
            union = combine(graphs[source], graphs[target])
            trivial_value = aligned_edge_ratio(
                union, trivial_partition(union, ColorInterner())
            )
            deblank_value = aligned_edge_ratio(
                union, deblank_partition(union, ColorInterner())
            )
            matrix_rows.append((source, target, trivial_value, deblank_value))
    count_rows = []
    for source in range(EFO_VERSIONS):
        for target in range(source, EFO_VERSIONS):
            # Figure-11-style cell: the absolute deblank count.  The seed
            # figures shared nothing, so the second figure re-built the
            # union and re-ran the deblank refinement on every pair.
            union = combine(graphs[source], graphs[target])
            count_rows.append(
                (
                    source,
                    target,
                    aligned_edge_count(
                        union, deblank_partition(union, ColorInterner())
                    ),
                )
            )

    gtopdb = GtoPdbGenerator(
        scale=GTOPDB_SCALE, seed=GTOPDB_SEED, versions=GTOPDB_VERSIONS
    )
    pair_rows = []
    for index in range(GTOPDB_VERSIONS - 1):
        union, _truth = gtopdb.combined(index, index + 1)
        interner = ColorInterner()
        hybrid = hybrid_partition(union, interner)
        overlap = overlap_partition(
            union, theta=THETA, interner=interner, base=hybrid
        )
        pair_rows.append(
            (
                index,
                matched_entity_count(union, hybrid),
                matched_entity_count(union, overlap.partition),
            )
        )
    return tuple(matrix_rows), tuple(count_rows), tuple(pair_rows)


# ----------------------------------------------------------------------
# The batch path (fresh stores per run so every measurement starts cold)
# ----------------------------------------------------------------------
def store_path() -> tuple:
    efo_store = VersionStore(
        EFOGenerator(scale=EFO_SCALE, seed=EFO_SEED, versions=EFO_VERSIONS)
    )
    efo_store.prepare(summaries=True, tokens=("trivial", "deblank"))
    pairs = [
        (source, target)
        for source in range(EFO_VERSIONS)
        for target in range(source, EFO_VERSIONS)
    ]
    matrix_rows = [
        (*pair, *ratios)
        for pair, ratios in zip(
            pairs, run_store_cells(efo_store, edge_ratio_cell, pairs)
        )
    ]
    count_rows = [
        (source, target, efo_store.aligned_edge_count(source, target, "deblank"))
        for source, target in pairs
    ]

    gtopdb_store = VersionStore(
        GtoPdbGenerator(
            scale=GTOPDB_SCALE, seed=GTOPDB_SEED, versions=GTOPDB_VERSIONS
        )
    )
    gtopdb_store.prepare(summaries=True)
    pair_rows = []
    for index in range(GTOPDB_VERSIONS - 1):
        context = gtopdb_store.cell_context(index, index + 1)
        weighted, _trace = gtopdb_store.overlap_result(
            index, index + 1, AlignConfig(theta=THETA)
        )
        pair_rows.append(
            (
                index,
                matched_entity_count(context.union, context.hybrid),
                matched_entity_count(context.union, weighted.partition),
            )
        )
    return tuple(matrix_rows), tuple(count_rows), tuple(pair_rows)


def _timed(function) -> tuple[float, tuple]:
    # Start from an empty collector so a path never pays for a full
    # collection of the garbage the previously timed path left behind.
    gc.collect()
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


def test_parallel_runner_speedup(results_dir):
    """Acceptance gates for the batch-execution subsystem (store vs seed)."""
    seed_seconds, seed_result = _timed(seed_path)
    serial_seconds, serial_result = _timed(store_path)

    # Correctness before speed: the store path reproduces the seed path's
    # trivial/deblank/hybrid numbers exactly (they are theorems, not
    # heuristics).
    seed_matrix, seed_counts, seed_pairs = seed_result
    serial_matrix, serial_counts, serial_pairs = serial_result
    assert tuple(serial_matrix) == seed_matrix
    assert tuple(serial_counts) == seed_counts
    assert tuple(r[:2] for r in serial_pairs) == tuple(r[:2] for r in seed_pairs)

    serial_speedup = seed_seconds / serial_seconds
    if serial_speedup < max(REQUIRED_SERIAL_SPEEDUP, REQUIRED_END_TO_END_SPEEDUP):
        # One noisy measurement should not go red: best-of-3 re-measure.
        for _ in range(2):
            seed_seconds = min(seed_seconds, _timed(seed_path)[0])
            serial_seconds = min(serial_seconds, _timed(store_path)[0])
        serial_speedup = seed_seconds / serial_seconds

    lines = [
        "Batch execution on the figure-matrix workload "
        f"(EFO {EFO_VERSIONS}x{EFO_VERSIONS} matrix @ scale {EFO_SCALE} + "
        f"GtoPdb consecutive pairs @ scale {GTOPDB_SCALE})",
        "",
        f"{'path':>24} {'seconds':>9} {'speedup':>8}",
        f"{'seed (per-cell rebuild)':>24} {seed_seconds:>9.3f} {'1.00':>8}",
        f"{'store, jobs=1':>24} {serial_seconds:>9.3f} {serial_speedup:>8.2f}",
        "",
        f"fork available: {fork_available()}",
    ]
    report = "\n".join(lines) + "\n"
    (results_dir / REPORT_PATH).write_text(report, encoding="utf-8")
    print()
    print(report)

    record_bench("parallel_runner/seed_path", seed_seconds, speedup=1.0)
    record_bench(
        "parallel_runner/store_batch", serial_seconds, speedup=serial_speedup,
        baseline_seconds=seed_seconds,
    )

    assert serial_speedup >= REQUIRED_SERIAL_SPEEDUP, (
        f"snapshot reuse alone gives {serial_speedup:.2f}x, below the "
        f"required {REQUIRED_SERIAL_SPEEDUP}x"
    )
    assert serial_speedup >= REQUIRED_END_TO_END_SPEEDUP, (
        f"end-to-end batch speedup {serial_speedup:.2f}x is below the "
        f"required {REQUIRED_END_TO_END_SPEEDUP}x"
    )


# ----------------------------------------------------------------------
# The shared-memory pool gate (jobs=N vs jobs=1 on one published store)
# ----------------------------------------------------------------------
def _fresh_shm_store() -> VersionStore:
    """A cold store over the (cached) shm workload generator.

    The generator is shared so graph synthesis is paid once per session;
    the store itself is rebuilt per measurement so every run derives its
    alignment artifacts from scratch — no measurement inherits another's
    warm caches.
    """
    generator = GENERATOR_FAMILIES[SHM_FAMILY].shared(
        scale=SHM_SCALE, seed=SHM_SEED, versions=SHM_VERSIONS
    )
    store = VersionStore(generator)
    store.prepare(summaries=True, tokens=("deblank",))
    return store


def _shm_measure(jobs: int) -> tuple[float, list]:
    pairs = [
        (source, target)
        for source in range(SHM_VERSIONS)
        for target in range(source, SHM_VERSIONS)
    ]
    store = _fresh_shm_store()
    config = AlignConfig(theta=THETA)
    started = time.perf_counter()
    # force=True pins the pool at the requested width even below the
    # economics threshold — the measurement *is* the point here.
    rows = run_store_cells(
        store, method_counts_cell, pairs,
        jobs=jobs, config=config, force=jobs > 1,
    )
    return time.perf_counter() - started, rows


def test_shm_pool_gate(results_dir):
    """jobs ∈ {1, 2, 4} over one published store: identical bytes, no
    leaked segments, and ≥ 2× at jobs=4 on machines with ≥ 4 CPUs."""
    assert shm_available(), "POSIX shared memory is required for this bench"

    seconds: dict[int, float] = {}
    results: dict[int, list] = {}
    for jobs in (1, 2, 4):
        seconds[jobs], results[jobs] = _shm_measure(jobs)

    # Byte-identity across every job count — the pool's determinism
    # contract, asserted unconditionally (CPU count is irrelevant to it).
    serial_blob = json.dumps(results[1], sort_keys=True)
    for jobs in (2, 4):
        assert json.dumps(results[jobs], sort_keys=True) == serial_blob, (
            f"jobs={jobs} results differ from serial"
        )

    # Cleanup contract: every pool unlinked its segments on close.
    leaked = list_segments()
    assert leaked == [], f"leaked shm segments: {leaked}"

    cpus = usable_cpus()
    gate_active = cpus >= POOL_GATE_CPUS
    speedup4 = seconds[1] / seconds[4]
    if gate_active and speedup4 < REQUIRED_POOL_SPEEDUP:
        # One noisy measurement should not go red: best-of-3 re-measure.
        for _ in range(2):
            seconds[1] = min(seconds[1], _shm_measure(1)[0])
            seconds[4] = min(seconds[4], _shm_measure(4)[0])
        speedup4 = seconds[1] / seconds[4]

    lines = [
        "",
        "Shared-memory pool on the synthetic all-pairs workload "
        f"({SHM_FAMILY} @ scale {SHM_SCALE}, "
        f"{SHM_VERSIONS}x{SHM_VERSIONS} matrix)",
        "",
        f"{'path':>24} {'seconds':>9} {'speedup':>8}",
        f"{'store, jobs=1':>24} {seconds[1]:>9.3f} {'1.00':>8}",
        f"{'store, jobs=2':>24} {seconds[2]:>9.3f} "
        f"{seconds[1] / seconds[2]:>8.2f}",
        f"{'store, jobs=4':>24} {seconds[4]:>9.3f} {speedup4:>8.2f}",
        "",
        f"usable cpus: {cpus}",
        f"serial floor (>= {MIN_SERIAL_SECONDS:.0f}s): "
        f"{'met' if seconds[1] >= MIN_SERIAL_SECONDS else 'NOT met'} "
        f"({seconds[1]:.1f}s)",
        f"jobs=4 gate (>= {REQUIRED_POOL_SPEEDUP}x): "
        + (
            "ACTIVE"
            if gate_active
            else f"recorded only ({cpus} < {POOL_GATE_CPUS} usable CPUs — "
            "four workers cannot beat one on this machine)"
        ),
        "results byte-identical at jobs=1/2/4: True",
        "leaked shm segments: none",
    ]
    report = "\n".join(lines) + "\n"
    path = results_dir / REPORT_PATH
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(report)
    print()
    print(report)

    record_bench(
        "parallel_runner/store_jobs1", seconds[1], speedup=1.0,
        jobs=1, cpus=cpus,
    )
    record_bench(
        "parallel_runner/store_jobs2", seconds[2],
        speedup=seconds[1] / seconds[2],
        baseline_seconds=seconds[1], jobs=2, cpus=cpus,
    )
    record_bench(
        "parallel_runner/store_jobs4", seconds[4], speedup=speedup4,
        baseline_seconds=seconds[1], jobs=4, cpus=cpus,
    )

    if gate_active:
        assert speedup4 >= REQUIRED_POOL_SPEEDUP, (
            f"jobs=4 gives {speedup4:.2f}x over jobs=1 on {cpus} CPUs, "
            f"below the required {REQUIRED_POOL_SPEEDUP}x"
        )
