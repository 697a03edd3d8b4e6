"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the repository root with either::

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

They check that every workload prints every metric named in
``BENCHMARK.json`` with its unit, untraced and traced; that a ``jobs=2``
op leaves no process and no shared-memory segment behind; that the
leftover checks do notice a stray process and a stray segment; and that
the benchmark fails without printing a result when the program under
test is absent.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import procs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_metric_present_with_its_unit() -> None:
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, done.stdout
            assert result["attempted"] >= 1
            expected = {entry["name"]: entry["unit"] for entry in SPEC[section]}
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert got == expected, (workload, trace, got)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name)


def test_pooled_op_leaves_nothing_behind() -> None:
    from repro.experiments.shm import list_segments

    baseline = set(list_segments())
    workload = workloads.ParallelBatch(seed=3, size="tiny")
    workload.setup()
    # The ksig slot shards signature rounds over a jobs=2 pool; the
    # forced matrix goes through the shared-memory store pool.
    ksig_slot = workload.cycle().index(("ksig", ""))
    workload.run(None, ksig_slot)
    assert procs.stray_processes() == []
    assert procs.new_segments(baseline) == []
    store = workloads.store_mod.VersionStore(workload.generators["small"])
    pairs = [(0, 1), (1, 2), (0, 2)]
    rows = workloads.parallel.run_store_cells(
        store, workloads.cells.method_counts_cell, pairs, jobs=2, force=True
    )
    assert len(rows) == len(pairs)
    assert procs.stray_processes() == []
    assert procs.new_segments(baseline) == []
    procs.stop_resource_tracker()
    assert procs.descendants() == []


def test_leftover_checks_notice_strays() -> None:
    from repro.experiments.shm import ShmRegistry, list_segments

    child = multiprocessing.get_context("fork").Process(
        target=time.sleep, args=(30,), daemon=True
    )
    child.start()
    try:
        assert child.pid in [pid for pid, _state in procs.stray_processes()]
    finally:
        procs.reap(procs.stray_processes())
    assert procs.stray_processes() == []

    baseline = set(list_segments())
    registry = ShmRegistry()
    try:
        registry.publish_bytes(b"leftover")
        assert len(procs.new_segments(baseline)) == 1
    finally:
        registry.unlink()
    assert procs.new_segments(baseline) == []
    procs.stop_resource_tracker()


def test_fails_without_the_program() -> None:
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        done = _run("pair_cold", 0, cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for test in tests:
        started = time.perf_counter()
        try:
            test()
        except AssertionError as error:
            failures += 1
            print(f"FAIL {test.__name__}: {error}")
            continue
        print(f"ok   {test.__name__} ({time.perf_counter() - started:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
