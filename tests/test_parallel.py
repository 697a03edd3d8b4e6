"""Parallel experiment execution: determinism and sharding semantics.

The contract of :mod:`repro.experiments.parallel` is that ``jobs > 1``
changes wall-clock time only: results (matrices, figure rows, rendered
reports, traces) are byte-identical to the serial run, because cells are
pure functions of prepared per-version artifacts and the merge order is
the submission order.
"""

from __future__ import annotations

import pytest

from repro.align import AlignConfig
from repro.core.deblank import deblank_partition
from repro.datasets.efo import EFOGenerator
from repro.datasets.registry import clear_shared_generators
from repro.datasets.synthetic import SCENARIOS, SyntheticGenerator
from repro.evaluation.matrices import pairwise_matrix
from repro.evaluation.metrics import aligned_edge_ratio
from repro.experiments import (
    figure09,
    figure10,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    parallel,
)
from repro.experiments.cells import edge_ratio_cell, method_counts_cell
from repro.experiments.parallel import (
    effective_jobs,
    fork_available,
    pool_overhead,
    run_store_cells,
)
from repro.experiments.shm import list_segments, shm_available
from repro.experiments.store import VersionStore
from repro.model.csr import CSRGraph
from repro.partition.interner import ColorInterner
from repro.similarity.overlap_alignment import OverlapTrace, overlap_partition

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="parallel pool needs the fork start method"
)


needs_spawn = pytest.mark.skipif(
    "spawn" not in __import__("multiprocessing").get_all_start_methods(),
    reason="spawn start method unavailable",
)

#: Both start methods, each skipped where the platform lacks it.
START_METHODS = [
    pytest.param("fork", marks=needs_fork),
    pytest.param("spawn", marks=needs_spawn),
]


def _failing_cell(store, config, pair):
    """A cell whose failure is a bug, not a transient pool fault."""
    raise ValueError(f"cell {pair}")


def _deblank_ratio_cell(store, config, pair):
    """Deblank aligned-edge ratio of one pair, on ``config.engine``."""
    union = store.union(*pair)
    return _deblank_ratio(union, config.engine)


def _deblank_ratio(union, engine: str) -> float:
    csr = CSRGraph(union) if engine == "dense" else None
    kwargs = {"csr": csr} if csr is not None else {}
    partition = deblank_partition(union, ColorInterner(), engine=engine, **kwargs)
    return aligned_edge_ratio(union, partition)


def _overlap_trace_cell(store, config, pair):
    """The full Algorithm 2 diagnostics of one pair, on ``config.engine``."""
    union = store.union(*pair)
    csr = CSRGraph(union) if config.engine == "dense" else None
    trace = OverlapTrace()
    weighted = overlap_partition(
        union, theta=0.65, interner=ColorInterner(), trace=trace,
        engine=config.engine, csr=csr,
    )
    return (
        trace.literal_matches,
        tuple(trace.rounds),
        trace.stopped_by_round_limit,
        tuple(stats.rounds for stats in trace.weight_stats),
        weighted.partition.num_classes,
    )


class TestOverheadScheduling:
    """effective_jobs refuses to shard below the measured pool overhead."""

    @pytest.fixture(autouse=True)
    def four_cpus_and_pinned_overhead(self, monkeypatch):
        # Pin both sides of the economics so the decisions are exact:
        # the machine "has" 4 CPUs and a pool "costs" 0.5 s to start.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "_MEASURED_OVERHEAD", 0.5)

    def test_refuses_when_saving_below_overhead(self):
        # 10 cells x 1 ms x (1 - 1/4) = 7.5 ms of projected saving
        # against 500 ms of overhead: not worth a pool.
        assert effective_jobs(4, cells=10, est_cell_seconds=0.001) == 1

    def test_shards_when_saving_beats_overhead(self):
        # 10 cells x 1 s x (1 - 1/4) = 7.5 s >> 0.5 s: shard away.
        assert effective_jobs(4, cells=10, est_cell_seconds=1.0) == 4

    def test_breakeven_is_refused(self):
        # Saving exactly equal to the overhead still refuses (<=).
        est = 0.5 / (10 * (1 - 1 / 4))
        assert effective_jobs(4, cells=10, est_cell_seconds=est) == 1

    def test_single_usable_cpu_refuses_estimated_work(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        assert effective_jobs(4, cells=100, est_cell_seconds=10.0) == 1

    def test_no_estimate_keeps_plain_clamping(self):
        # Without an estimate the historical clamp-only behavior holds.
        assert effective_jobs(4, cells=10) == 4

    def test_effective_jobs(self):
        assert effective_jobs(1, cells=10) == 1
        assert effective_jobs(8, cells=3) == 3
        assert effective_jobs(None, cells=1) == 1
        assert effective_jobs(0, cells=2) <= 2

    def test_pool_overhead_is_measured_once(self, monkeypatch):
        monkeypatch.setattr(parallel, "_MEASURED_OVERHEAD", None)
        first = pool_overhead()
        assert first > 0.0
        assert pool_overhead() == first  # cached, not re-measured


@pytest.mark.skipif(not shm_available(), reason="needs POSIX shared memory")
class TestRunStoreCells:
    """The shm pool path: serial/fork/spawn parity and cleanup."""

    @pytest.fixture(scope="class")
    def store(self):
        store = VersionStore(SyntheticGenerator.shared(SCENARIOS["small_er"]))
        store.prepare(summaries=True, tokens=("trivial", "deblank"))
        return store

    @pytest.fixture(scope="class")
    def pairs(self, store):
        return [
            (source, target)
            for source in range(store.versions)
            for target in range(source, store.versions)
        ]

    def test_serial_path(self, store, pairs):
        rows = run_store_cells(store, edge_ratio_cell, pairs, jobs=1)
        assert rows == [edge_ratio_cell(store, None, pair) for pair in pairs]

    def test_empty_items(self, store):
        assert run_store_cells(store, edge_ratio_cell, [], jobs=4) == []

    @needs_fork
    def test_fork_pool_matches_serial(self, store, pairs):
        serial = run_store_cells(store, edge_ratio_cell, pairs, jobs=1)
        pooled = run_store_cells(
            store, edge_ratio_cell, pairs, jobs=2, context="fork", force=True
        )
        assert pooled == serial
        assert list_segments() == []

    @needs_spawn
    def test_spawn_pool_matches_serial(self, store, pairs):
        """The no-fork (Windows-style) fallback: attach under spawn."""
        config = AlignConfig(theta=0.65)
        serial = run_store_cells(
            store, method_counts_cell, pairs[:4], jobs=1, config=config
        )
        pooled = run_store_cells(
            store, method_counts_cell, pairs[:4],
            jobs=2, config=config, context="spawn", force=True,
        )
        assert pooled == serial
        assert list_segments() == []

    @pytest.mark.parametrize("context", START_METHODS)
    def test_worker_value_error_propagates(self, store, pairs, context):
        """A non-transient cell error is a bug: no retry, no degradation,
        the caller sees the worker's exception itself."""
        events: list = []
        with pytest.raises(ValueError, match=r"^cell \(\d+, \d+\)$"):
            run_store_cells(
                store, _failing_cell, pairs[:4],
                jobs=2, context=context, force=True, events=events,
            )
        assert events == []
        assert list_segments() == []

    @needs_fork
    def test_autotune_refuses_tiny_workload(self, store, pairs, monkeypatch):
        # With a realistic overhead and millisecond cells, the autotuned
        # path must fall back to serial rather than fork at a loss.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "_MEASURED_OVERHEAD", 10.0)
        calls: list = []
        monkeypatch.setattr(
            parallel, "SharedStorePool",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(
                AssertionError("pool started despite refusal")
            ),
        )
        rows = run_store_cells(store, edge_ratio_cell, pairs, jobs=4)
        assert rows == [edge_ratio_cell(store, None, pair) for pair in pairs]
        assert calls == []


@needs_fork
class TestPairwiseMatrixDeterminism:
    """Store cells in the pool reproduce the serial all-pairs matrix."""

    @pytest.fixture(scope="class")
    def generator(self):
        return EFOGenerator(scale=0.12, seed=234, versions=4)

    @pytest.mark.parametrize("engine", ["reference", "dense"])
    def test_jobs4_byte_identical_to_serial(self, generator, engine):
        serial = pairwise_matrix(
            generator.graphs(),
            lambda union: _deblank_ratio(union, engine),
            symmetric_fill=True,
        )
        pairs = [pair for pair in serial.values if pair[0] <= pair[1]]
        pooled = run_store_cells(
            VersionStore(generator), _deblank_ratio_cell, pairs,
            jobs=4, config=AlignConfig(engine=engine), force=True,
        )
        expected = [serial[pair] for pair in pairs]
        assert pooled == expected
        assert repr(pooled) == repr(expected)

    @pytest.mark.parametrize("engine", ["reference", "dense"])
    def test_overlap_traces_identical(self, generator, engine):
        """The full Algorithm 2 diagnostics match serial, cell for cell."""
        config = AlignConfig(engine=engine)
        store = VersionStore(generator)
        pairs = [(0, 1), (1, 2), (2, 3)]
        pooled = run_store_cells(
            store, _overlap_trace_cell, pairs, jobs=3, config=config, force=True
        )
        assert pooled == [_overlap_trace_cell(store, config, pair) for pair in pairs]


class TestFigureDeterminism:
    """``jobs>1`` figures equal ``jobs=1`` ones, with the pool really used.

    Autotune declines the pool for cheap cells (figures 9 and 12 only
    count), so the measured overhead is pinned to zero and the machine
    to four CPUs; ``pool_starts`` proves the pool then ran.
    """

    @pytest.fixture(autouse=True)
    def pool_always_pays(self, monkeypatch):
        monkeypatch.setattr(parallel, "_MEASURED_OVERHEAD", 0.0)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)

    @pytest.fixture
    def pool_starts(self, monkeypatch):
        starts: list = []
        real_init = parallel.SharedStorePool.__init__

        def counting_init(pool, *args, **kwargs):
            starts.append(kwargs.get("context") or parallel.default_start_method())
            real_init(pool, *args, **kwargs)

        monkeypatch.setattr(parallel.SharedStorePool, "__init__", counting_init)
        return starts

    @pytest.fixture
    def start_method(self, request, monkeypatch):
        monkeypatch.setattr(parallel, "default_start_method", lambda: request.param)
        return request.param

    def _serial_and_pooled(self, module, pool_starts, start_method, **kwargs):
        # The pooled run goes first, on a cold process-wide store, so it
        # publishes only what the figure itself warms (ground truth!).
        clear_shared_generators()
        pooled = module.run(config=AlignConfig(jobs=2), **kwargs)
        assert pool_starts and set(pool_starts) == {start_method}
        assert list_segments() == []
        started = len(pool_starts)
        serial = module.run(config=AlignConfig(jobs=1), **kwargs)
        assert len(pool_starts) == started
        return serial, pooled

    @pytest.mark.parametrize("start_method", START_METHODS, indirect=True)
    @pytest.mark.parametrize(
        "module, kwargs",
        [
            (figure09, {"scale": 0.12}),
            (figure12, {"scale": 0.2}),
            (figure14, {"scale": 0.2}),
            (figure15, {"scale": 0.2, "source_version": 2}),
        ],
        ids=["figure09", "figure12", "figure14", "figure15"],
    )
    def test_count_figures_pooled_identical(
        self, module, kwargs, pool_starts, start_method
    ):
        serial, pooled = self._serial_and_pooled(
            module, pool_starts, start_method, versions=4, **kwargs
        )
        assert pooled.rows == serial.rows
        assert pooled.render() == serial.render()

    @pytest.mark.parametrize("start_method", START_METHODS, indirect=True)
    def test_figure16_pooled_identical_but_timings(self, pool_starts, start_method):
        serial, pooled = self._serial_and_pooled(
            figure16, pool_starts, start_method, scale=0.2, versions=4
        )

        def untimed(rows):
            return [
                {key: value for key, value in row.items() if not key.endswith("_s")}
                for row in rows
            ]

        assert untimed(pooled.rows) == untimed(serial.rows)
        assert pooled.parameters == serial.parameters

    def test_figure10_parallel_identical(self):
        serial = figure10.run(scale=0.12, versions=4, config=AlignConfig(jobs=1))
        parallel = figure10.run(scale=0.12, versions=4, config=AlignConfig(jobs=3))
        assert parallel.rows == serial.rows
        assert parallel.render() == serial.render()

    def test_figure13_parallel_identical(self):
        serial = figure13.run(scale=0.2, versions=4, config=AlignConfig(jobs=1))
        parallel = figure13.run(scale=0.2, versions=4, config=AlignConfig(jobs=2))
        assert parallel.rows == serial.rows
        assert parallel.render() == serial.render()

    def test_figure13_dense_parallel_identical(self):
        dense = AlignConfig(engine="dense")
        serial = figure13.run(scale=0.2, versions=4, config=dense.evolve(jobs=1))
        parallel = figure13.run(scale=0.2, versions=4, config=dense.evolve(jobs=2))
        assert parallel.rows == serial.rows

    def test_figure15_parallel_identical(self):
        serial = figure15.run(
            scale=0.2, versions=4, source_version=2, config=AlignConfig(jobs=1)
        )
        parallel = figure15.run(
            scale=0.2, versions=4, source_version=2, config=AlignConfig(jobs=3)
        )
        assert parallel.rows == serial.rows
        assert parallel.render() == serial.render()

    def test_jobs_not_in_report_parameters(self):
        """`jobs` must never leak into reports — it would break identity."""
        result = figure10.run(scale=0.12, versions=4, config=AlignConfig(jobs=2))
        assert "jobs" not in result.parameters
