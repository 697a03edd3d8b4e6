"""Shared fixtures for the benchmark harness.

Every figure bench regenerates one paper figure (at a reduced scale),
asserts the paper's qualitative shape and saves the rendered report under
``results/``.  Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

BENCH_JSON = RESULTS_DIR / "bench.json"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def record_bench(
    name: str,
    seconds: float,
    speedup: float | None = None,
    baseline_seconds: float | None = None,
    jobs: int | None = None,
    cpus: int | None = None,
    k: int | None = None,
) -> bool:
    """Append one machine-readable measurement to ``results/bench.json``.

    The file is the seed of the performance trajectory (one entry per
    benchmark per run): ``[{"name", "seconds", "speedup"}, ...]``.
    ``speedup`` is the measured ratio for comparison benches and ``null``
    for plain timings.  Comparison benches additionally pass
    ``baseline_seconds`` (the denominator of the ratio), ``jobs``,
    ``cpus`` and the k-bisimulation round bound ``k`` —
    additive keys that let trajectory tooling distinguish a
    slower machine from a real regression; entries without them keep the
    historical shape, so old readers are unaffected.

    The append is best-effort by contract: a missing, corrupt or
    wrong-shaped ``bench.json`` (non-list JSON, non-dict entries, even a
    directory squatting on the path) is replaced by a fresh list, and an
    unreadable/unwritable target returns ``False`` instead of raising —
    a timing side channel must never crash the bench session producing
    it.  The tolerant append itself lives in the dependency-free
    :mod:`repro.benchlog`, shared with the differential oracle's CI
    entry point.
    """
    try:
        from repro.benchlog import append_bench_entry
    except Exception:  # even an import failure must not kill the session
        return False
    return append_bench_entry(
        BENCH_JSON, name, seconds, speedup,
        baseline_seconds=baseline_seconds, jobs=jobs, cpus=cpus, k=k,
    )


def best_of_interleaved(first, second, repeats=5):
    """Best-of-N for two rivals, alternating runs so load drift cancels.

    Timing ratios are asserted on the result; interleaving means a
    background spike penalizes both rivals rather than whichever ran
    second.  Returns ``(first_s, first_result, second_s, second_result)``.
    """
    bests = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(repeats):
        for position, function in enumerate((first, second)):
            started = time.perf_counter()
            results[position] = function()
            bests[position] = min(bests[position], time.perf_counter() - started)
    return bests[0], results[0], bests[1], results[1]


@pytest.fixture(autouse=True)
def _record_benchmark_timing(request):
    """Record every ``benchmark``-fixture timing into ``bench.json``."""
    yield
    benchmark = getattr(request.node, "funcargs", {}).get("benchmark")
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return
    try:
        record_bench(request.node.name, stats.stats.mean)
    except (AttributeError, OSError):  # no timing ran, or results/ unwritable
        pass


def run_once(benchmark, function, *args, **kwargs):
    """Benchmark an expensive experiment exactly once (no repeat rounds)."""
    return benchmark.pedantic(
        function, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )
