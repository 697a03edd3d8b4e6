"""Benchmark of the alignment system: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload pair_cold --seed 1 --seconds 25 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``pair_cold`` — a fresh ``Aligner`` per op aligns two N-Triples files
  (last two EFO/GtoPdb/DBpedia versions) and renders the report JSON;
* ``chain_session`` — one incremental deblank session runs
  ``align_chain`` over sliding windows of a synthetic version history;
* ``parallel_batch`` — all-pairs matrices through the shared-memory
  store pool and pooled kbisim alignments, at ``jobs=2``.

A run sets up its inputs from the seed several times (``setup_s`` is
the median), computes every op's expected output with an independent
configuration, then runs ops in a fixed cycle until ``--seconds`` of op
time have passed.  Each op's output is checked outside the timed region,
as is the absence of leftover processes and shared-memory segments; a
mismatch, an exception or a leftover counts as a failed op.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
op twice, untraced and traced (alternating which goes first), checks
that both give the same output, and reports per-layer metrics from the
traced executions plus the tracing overhead.  The session record, the
per-layer table and the spans are written to ``perfbench/out/``.  The
last line of standard output is the result JSON.  The exit status is
non-zero, with no result printed, when the program under test is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

import procs
import spans as spans_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: ``op_p90_ms`` is stated only when at least ten ops lie above it.
P90_MIN_OPS = 100

#: Seconds one calibration slice takes at the reference machine speed.
#: Times are reported at that speed: the host's speed drifts by tens of
#: percent within a run and between runs a minute apart, and the slices
#: run before every op and every set-up track that drift (see
#: :func:`calibration_slice`).
CALIBRATION_REFERENCE_S = 0.045

#: An op is scaled by the median slice of the ops this many places
#: before and after it.
CALIBRATION_WINDOW = 2


def calibration_slice() -> float:
    """Seconds for a fixed pure-Python workload that uses no repro code.

    Dict inserts, tuple and string building, sorting and hashing: the
    same interpreter work the alignment layers are made of, so the
    slice slows down with the host when they do.
    """
    started = time.perf_counter()
    table = {}
    for number in range(40000):
        table[f"n{number}"] = (number % 97, number * 3)
    ordered = sorted(table.items(), key=lambda item: item[1])
    frozenset(key for key, _value in ordered[::3])
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# The session record
# ----------------------------------------------------------------------
def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """Content digest of the program under test (a checkout may lack git)."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def session_record(args: argparse.Namespace, workload, import_s: float) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": workload.describe(),
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "setup_repeats": SETUP_REPEATS,
        "import_s": import_s,
    }


# ----------------------------------------------------------------------
# One op
# ----------------------------------------------------------------------
def run_op(workload, baseline: set[str], session, index: int, traced=None) -> dict:
    """Run op *index*, then check its output and what it left behind.

    *traced* is ``(tracer, instrumentation)`` for a traced execution.
    """
    calibration = calibration_slice()
    error = None
    output = None
    cpu_before = procs.cpu_seconds()
    if traced is not None:
        tracer, instrumentation = traced
        instrumentation.install()
        span = tracer.open("op", index=index, kind=str(workload.kind(index)))
    started = time.perf_counter()
    try:
        output = workload.run(session, index)
    except Exception:  # an op failure is a measurement, not a crash
        error = traceback.format_exc()
    seconds = time.perf_counter() - started
    if traced is not None:
        tracer.close(span)
        instrumentation.uninstall()
    cpu = procs.cpu_seconds() - cpu_before

    record = {
        "index": index, "slot": index % len(workload.cycle()), "seconds": seconds,
        "cpu": cpu, "calibration": calibration, "triples": workload.triples(index),
        "digest": None, "extras": {},
    }
    if error is None:
        try:
            record["digest"], record["extras"] = workload.check(session, index, output)
        except Exception:
            error = "check raised:\n" + traceback.format_exc()
    if error is None and record["digest"] != workload.expected[workload.kind(index)]:
        error = f"op {index} {workload.kind(index)}: output differs from expected"
    strays = procs.stray_processes()
    if strays:
        error = error or f"op {index}: leftover processes {strays}"
        procs.reap(strays)
    segments = procs.new_segments(baseline)
    if segments:
        error = error or f"op {index}: leftover segments {segments}"
        from repro.experiments.shm import cleanup_registries

        cleanup_registries()
    record["error"] = error
    return record


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _weighted_quantile(values: list[float], weights: list[float], share: float) -> float:
    """The value at *share* of the total weight, in ascending order."""
    ordered = sorted(zip(values, weights))
    total = sum(weights)
    running = 0.0
    for value, weight in ordered:
        running += weight
        if running >= share * total - 1e-12:
            return value
    return ordered[-1][0]


def end_to_end(
    setups: list[float], setup_calibrations: list[float], ops: list[dict], rss_mb: float
) -> tuple[dict, dict]:
    """End-to-end metrics at the reference machine speed, slots weighted equally.

    Each op's time and CPU are scaled by ``CALIBRATION_REFERENCE_S`` over
    the median of the calibration slices of the ops within
    ``CALIBRATION_WINDOW`` of it, so a stretch of slow host follows the
    ops it slowed; set-ups are scaled by their own slices.

    A run ends inside some cycle of ops whose costs differ several fold,
    so plain means over ops would depend on where the cycle was cut.
    Each slot of the cycle therefore carries the same weight: metrics are
    taken over per-slot means.  Throughput counts the triples of every
    aligned pair; failed ops are counted by ``failed``, not here.  ``extra`` states the weighted p50 (and
    the p90 when ten or more ops lie above it) and the raw values.
    """
    calibrations = [op["calibration"] for op in ops]
    speeds = [
        CALIBRATION_REFERENCE_S
        / statistics.median(calibrations[max(0, index - CALIBRATION_WINDOW):
                                         index + CALIBRATION_WINDOW + 1])
        for index in range(len(ops))
    ]
    by_slot: dict[int, list[int]] = {}
    for index, op in enumerate(ops):
        by_slot.setdefault(op["slot"], []).append(index)

    def slot_means(value) -> list[float]:
        return [statistics.fmean(map(value, indices)) for indices in by_slot.values()]

    def seconds(index: int) -> float:
        return ops[index]["seconds"] * speeds[index]

    setup_speed = CALIBRATION_REFERENCE_S / statistics.median(setup_calibrations)
    metrics = {
        "setup_s": {"value": statistics.median(setups) * setup_speed, "unit": "s"},
        "op_mean_ms": {"value": statistics.fmean(slot_means(seconds)) * 1e3, "unit": "ms"},
        "triples_per_s": {
            "value": sum(slot_means(lambda i: ops[i]["triples"])) / sum(slot_means(seconds)),
            "unit": "triples/s",
        },
        "cpu_ms_per_op": {
            "value": statistics.fmean(slot_means(lambda i: ops[i]["cpu"] * speeds[i])) * 1e3,
            "unit": "ms",
        },
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
    times = [seconds(index) * 1e3 for index in range(len(ops))]
    weights = [1.0 / len(by_slot[op["slot"]]) for op in ops]
    extra = {
        "ops": len(ops),
        "slots_run": len(by_slot),
        "op_p50_ms": _weighted_quantile(times, weights, 0.5),
        "op_p90_ms": _weighted_quantile(times, weights, 0.9) if len(ops) >= P90_MIN_OPS else None,
        "fail_ratio": sum(op["error"] is not None for op in ops) / len(ops),
        "calibration_median_s": statistics.median(calibrations),
        "raw": {
            "setup_s": statistics.median(setups),
            "op_mean_ms": statistics.fmean(slot_means(lambda i: ops[i]["seconds"])) * 1e3,
            "cpu_ms_per_op": statistics.fmean(slot_means(lambda i: ops[i]["cpu"])) * 1e3,
        },
    }
    return metrics, extra


def per_layer(tracer, traced_ops: list[dict], bare_ops: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced ops' spans, per traced op."""
    spans = tracer.spans
    table = spans_mod.layer_table(spans, "op")
    count = len(traced_ops)

    def under_ops(layer: str, outermost: bool = False) -> list:
        return [span for span, _root in spans_mod.spans_under(spans, "op", layer, outermost)]

    def per_op(layer: str) -> float:
        return table.get(layer, {}).get("total_s", 0.0) / count

    def attr_per_op(layer: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in under_ops(layer)) / count

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    maintained = [span for span in under_ops("maintain.fixpoint") if "fell_back" in span.attrs]
    hits = sum(op["extras"].get("cache_hits", 0) for op in traced_ops)
    lookups = hits + sum(op["extras"].get("cache_misses", 0) for op in traced_ops)
    declined = {
        root.attrs["index"]
        for span, root in spans_mod.spans_under(spans, "op", "pool.decide")
        if span.attrs["chosen"] <= 1
    }
    serial_ksig = [
        span.seconds
        for span, _root in spans_mod.spans_under(spans, "expected:ksig", "core.refine")
        if span.attrs["fn"].endswith("ksignature_partition")
    ]
    values = {
        "io.parse_s": (per_op("io.parse"), "s/op"),
        "model.union_s": (per_op("model.union"), "s/op"),
        "partition.alignment_s": (per_op("partition.alignment"), "s/op"),
        "align.report_s": (per_op("align.report"), "s/op"),
        "align.report_bytes": (attr_per_op("align.report", "bytes"), "B/op"),
        "model.csr_s": (per_op("model.csr"), "s/op"),
        "core.refine_s": (per_op("core.refine"), "s/op"),
        "core.rounds": (
            attr_per_op("core.fixpoint", "rounds") + attr_per_op("core.refine", "rounds"),
            "count/op",
        ),
        "core.classes": (
            mean([span.attrs["classes"] for span in under_ops("core.refine", outermost=True)]),
            "count",
        ),
        "similarity.overlap_s": (per_op("similarity.overlap"), "s/op"),
        "similarity.literal_matches": (
            attr_per_op("similarity.overlap", "literal_matches"), "count/op"),
        "similarity.weight_truncations": (
            attr_per_op("similarity.overlap", "weight_truncations"), "count/op"),
        "delta.diff_s": (per_op("delta.diff"), "s/op"),
        "maintain.fixpoint_s": (per_op("maintain.fixpoint"), "s/op"),
        "maintain.fallback_ratio": (
            mean([float(span.attrs["fell_back"]) for span in maintained]), "ratio"),
        "maintain.affected_ratio": (
            sum(span.attrs["affected"] for span in maintained)
            / max(1, sum(span.attrs["nodes"] for span in maintained)),
            "ratio",
        ),
        "store.prepare_s": (per_op("store.prepare"), "s/op"),
        "store.cell_s": (per_op("store.cells"), "s/op"),
        "store.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "pool.start_s": (per_op("pool.start"), "s/op"),
        "pool.map_s": (per_op("pool.map"), "s/op"),
        "pool.close_s": (per_op("pool.close"), "s/op"),
        "pool.declined": (len(declined), "count"),
        "pool.degradations": (
            sum(op["extras"].get("degradations", 0) for op in traced_ops), "count"),
        "ksig.pooled_s": (mean([span.seconds for span in under_ops("ksig.pooled")]), "s/call"),
        "ksig.serial_s": (mean(serial_ksig), "s/call"),
        "trace.overhead_ratio": (
            sum(op["seconds"] for op in traced_ops) / sum(op["seconds"] for op in bare_ops)
            - 1.0,
            "ratio",
        ),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return metrics, table


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny is for the smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import workloads
    from repro.experiments.shm import cleanup_registries, list_segments

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    baseline = set(list_segments())
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    ops: list[dict] = []
    traced_ops: list[dict] = []
    tracer = None
    try:
        setups: list[float] = []
        calibrations: list[float] = []
        for _ in range(SETUP_REPEATS):
            calibrations.append(calibration_slice())
            begin = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - begin)

        around = workloads.no_span
        if args.trace:
            tracer = spans_mod.Tracer()
            instrumentation = spans_mod.Instrumentation(tracer)

            @contextlib.contextmanager
            def around(label: str):
                # Expected outputs are traced too: the jobs=1 kbisim run
                # there is the serial baseline of ksig.serial_s.
                instrumentation.install()
                span = tracer.open(f"expected:{label}")
                try:
                    yield
                finally:
                    tracer.close(span)
                    instrumentation.uninstall()

        workload.expect(around)

        busy = 0.0
        if args.trace:
            sessions = {False: workload.session(), True: workload.session()}
            while busy < args.seconds or not ops:
                index = len(ops)
                pair = {}
                for traced in ((False, True) if index % 2 == 0 else (True, False)):
                    pair[traced] = run_op(
                        workload, baseline, sessions[traced], index,
                        traced=(tracer, instrumentation) if traced else None,
                    )
                    busy += pair[traced]["seconds"]
                if pair[True]["error"] is None and pair[True]["digest"] != pair[False]["digest"]:
                    pair[True]["error"] = f"op {index}: traced output differs from untraced"
                ops.append(pair[False])
                traced_ops.append(pair[True])
        else:
            session = workload.session()
            while busy < args.seconds or not ops:
                ops.append(run_op(workload, baseline, session, len(ops)))
                busy += ops[-1]["seconds"]
    finally:
        workload.close()
        procs.stop_resource_tracker()
        strays = procs.descendants()
        segments = procs.new_segments(baseline)
        procs.reap(strays)
        cleanup_registries()

    if (strays or segments) and (traced_ops or ops)[-1]["error"] is None:
        (traced_ops or ops)[-1]["error"] = (
            f"after the run: leftover processes {strays}, segments {segments}"
        )
    failed = sum(
        op["error"] is not None or bool(traced_ops and traced_ops[index]["error"])
        for index, op in enumerate(ops)
    )
    if args.trace:
        metrics, table = per_layer(tracer, traced_ops, ops)
        extra = {"ops": len(ops)}
    else:
        metrics, extra = end_to_end(setups, calibrations, ops, procs.peak_rss_mb())
        table = None
    extra["setup_runs_s"] = setups
    record = session_record(args, workload, import_s)
    errors = [op["error"] for op in ops + traced_ops if op["error"]]
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}

    dump = {"session": record, "result": result, "extra": extra, "errors": errors,
            "ops": ops, "traced_ops": traced_ops}
    if tracer is not None:
        dump["layers"] = table
        dump["spans"] = tracer.to_json()
    workloads.OUT_DIR.mkdir(exist_ok=True)
    out_path = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(dump, indent=1, default=str))

    print("session: " + json.dumps(record, sort_keys=True))
    print("extra: " + json.dumps(extra, sort_keys=True))
    for error in errors[:5]:
        print("error: " + error.strip().replace("\n", "\n  "))
    if table is not None:
        print(f"{'layer':<22} {'calls':>7} {'total_s':>10} {'self_s':>10}")
        for layer, row in table.items():
            print(f"{layer:<22} {row['calls']:>7} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    print(f"wrote {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
