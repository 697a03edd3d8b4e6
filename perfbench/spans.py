"""In-memory span tracing of the alignment layers, from outside the program.

The benchmark times each layer by wrapping that layer's public entry
points for the duration of one traced operation and restoring them
afterwards; nothing in ``src/`` knows it is being traced.  A span is
``(name, start, end, parent, attrs)``; spans are kept in memory and
written out when the run ends.

A wrapped function is replaced wherever the program binds it at module
level (``from x import f`` copies the reference), so late imports inside
function bodies and module-level imports both reach the wrapper.  Where a
layer fills a diagnostics object only when the caller passes one
(``FixpointStats``, ``SignatureStats``, ``MaintenanceStats``,
``OverlapTrace``), the wrapper supplies a fresh one: those objects are
write-only diagnostics, so supplying them never changes a result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs: Any) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "attrs": s.attrs}
            for s in self.spans
        ]


# ----------------------------------------------------------------------
# Probes: which callables form a layer, and what each records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Probe:
    """One instrumented callable.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``;
    ``inject`` names a diagnostics parameter and the factory of the
    object to supply when the caller passed none; ``collect`` turns the
    bound arguments and the result into span attributes.
    """

    target: str
    span: str
    inject: tuple[str, str] | None = None
    collect: Callable[[inspect.BoundArguments, Any], dict] | None = None


def _classes(bound: inspect.BoundArguments, result: Any) -> dict:
    attrs = {"classes": result.num_classes}
    stats = bound.arguments.get("stats")
    if stats is not None:
        attrs["rounds"] = stats.rounds
    return attrs


def _rounds(bound: inspect.BoundArguments, result: Any) -> dict:
    return {"rounds": bound.arguments["stats"].rounds}


def _overlap(bound: inspect.BoundArguments, result: Any) -> dict:
    trace = bound.arguments["trace"]
    return {
        "literal_matches": trace.literal_matches,
        "weight_truncations": trace.weight_truncations,
    }


def _maintain(bound: inspect.BoundArguments, result: Any) -> dict:
    stats = bound.arguments["stats"]
    return {
        "fell_back": stats.fell_back,
        "affected": stats.affected,
        "nodes": bound.arguments["graph"].num_nodes,
    }


def _bytes(bound: inspect.BoundArguments, result: Any) -> dict:
    return {"bytes": len(result)}


def _decision(bound: inspect.BoundArguments, result: Any) -> dict:
    return {"chosen": result, "priced": bound.arguments.get("est_cell_seconds") is not None}


PROBES: tuple[Probe, ...] = (
    Probe("repro.io:load_graph", "io.parse"),
    Probe("repro.model.union:CombinedGraph.__init__", "model.union"),
    Probe("repro.model.csr:CSRGraph.__init__", "model.csr"),
    Probe("repro.model.csr:CSRGraph.from_blocks", "model.csr"),
    Probe("repro.partition.alignment:PartitionAlignment.__init__", "partition.alignment"),
    Probe("repro.align.report:AlignmentReport.from_result", "align.report"),
    Probe("repro.align.report:AlignmentReport.to_json", "align.report", collect=_bytes),
    Probe("repro.core.trivial:trivial_partition", "core.refine", collect=_classes),
    Probe("repro.core.deblank:deblank_partition", "core.refine", collect=_classes),
    Probe("repro.core.hybrid:hybrid_partition", "core.refine", collect=_classes),
    Probe("repro.core.ksignature:ksignature_partition", "core.refine",
          inject=("stats", "repro.core.ksignature:SignatureStats"), collect=_classes),
    Probe("repro.core.dense:REFINEMENT_ENGINES[reference]", "core.fixpoint",
          inject=("stats", "repro.core.refinement:FixpointStats"), collect=_rounds),
    Probe("repro.core.dense:REFINEMENT_ENGINES[dense]", "core.fixpoint",
          inject=("stats", "repro.core.refinement:FixpointStats"), collect=_rounds),
    Probe("repro.similarity.overlap_alignment:overlap_partition", "similarity.overlap",
          inject=("trace", "repro.similarity.overlap_alignment:OverlapTrace"),
          collect=_overlap),
    Probe("repro.delta.changes:diff", "delta.diff"),
    Probe("repro.core.maintain:deblank_fixpoint", "maintain.fixpoint"),
    Probe("repro.core.maintain:maintain_or_batch", "maintain.fixpoint",
          inject=("stats", "repro.core.maintain:MaintenanceStats"), collect=_maintain),
    Probe("repro.experiments.store:VersionStore.prepare", "store.prepare"),
    Probe("repro.experiments.parallel:run_store_cells", "store.cells"),
    Probe("repro.experiments.parallel:effective_jobs", "pool.decide", collect=_decision),
    Probe("repro.experiments.parallel:SharedStorePool.__init__", "pool.start"),
    Probe("repro.experiments.parallel:SharedStorePool.map_partial", "pool.map"),
    Probe("repro.experiments.parallel:SharedStorePool.close", "pool.close"),
    Probe("repro.experiments.ksig_shard:pooled_ksignature_partition", "ksig.pooled",
          collect=_classes),
)


def _resolve(spec: str) -> Any:
    module, _, name = spec.partition(":")
    value: Any = importlib.import_module(module)
    for part in name.split("."):
        value = getattr(value, part)
    return value


def _wrap(tracer: Tracer, probe: Probe, function: Callable) -> Callable:
    signature = inspect.signature(function)
    factory = _resolve(probe.inject[1]) if probe.inject else None
    label = getattr(function, "__qualname__", probe.target)

    @functools.wraps(function)
    def traced(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        if probe.inject and bound.arguments.get(probe.inject[0]) is None:
            bound.arguments[probe.inject[0]] = factory()
        index = tracer.open(probe.span, fn=label)
        try:
            result = function(*bound.args, **bound.kwargs)
        finally:
            span = tracer.close(index)
        if probe.collect is not None:
            span.attrs.update(probe.collect(bound, result))
        return result

    return traced


class Instrumentation:
    """Installs and removes every probe's wrapper around one tracer.

    The patch list is computed once; :meth:`install` and
    :meth:`uninstall` are plain attribute swaps, cheap enough to bracket
    every traced operation so untraced operations run the bare program.
    """

    def __init__(self, tracer: Tracer) -> None:
        # Import the whole program first: a module imported while the
        # wrappers are installed would keep a wrapper in its bindings.
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        self._patches: list[tuple[Any, str, Any, Any, bool]] = []
        for probe in PROBES:
            module_name, _, name = probe.target.partition(":")
            module = sys.modules[module_name]
            if "[" in name:  # a dict entry, e.g. the refinement engine table
                table_name, key = name[:-1].split("[")
                table = getattr(module, table_name)
                original = table[key]
                self._patches.append((table, key, original, _wrap(tracer, probe, original), True))
                continue
            owner_path, _, attr = name.rpartition(".")
            if owner_path:  # a method or classmethod of a class
                owner = _resolve(f"{module_name}:{owner_path}")
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(tracer, probe, raw.__func__))
                else:
                    wrapped = _wrap(tracer, probe, raw)
                self._patches.append((owner, attr, raw, wrapped, False))
                continue
            original = getattr(module, attr)
            wrapped = _wrap(tracer, probe, original)
            for other_name, other in list(sys.modules.items()):
                if not other_name.startswith("repro") or other is None:
                    continue
                for binding, value in list(vars(other).items()):
                    if value is original:
                        self._patches.append((other, binding, original, wrapped, False))

    def install(self) -> None:
        for owner, attr, _original, wrapped, is_item in self._patches:
            if is_item:
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _roots(spans: list[Span]) -> list[int]:
    """Index of each span's root ancestor."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span.parent < 0 else roots[span.parent])
    return roots


def _outermost(spans: list[Span], index: int) -> bool:
    """No ancestor carries the same layer name (no double counting)."""
    name = spans[index].name
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def layer_table(spans: list[Span], root_name: str) -> dict[str, dict]:
    """Per-layer calls, total and self seconds under roots named *root_name*.

    Total time counts only the outermost span of a layer (a layer calling
    itself is not counted twice); self time subtracts the time covered by
    child spans of other layers.
    """
    roots = _roots(spans)
    children_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children_time[span.parent] += span.seconds
    table: dict[str, dict] = {}
    for index, span in enumerate(spans):
        if span.parent < 0 or spans[roots[index]].name != root_name:
            continue
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += span.seconds - children_time[index]
        if _outermost(spans, index):
            row["total_s"] += span.seconds
    return dict(sorted(table.items()))


def spans_under(
    spans: list[Span], root_name: str, name: str, outermost: bool = False
) -> list[tuple[Span, Span]]:
    """``(span, root)`` for spans called *name* under roots named *root_name*.

    ``outermost`` drops spans nested inside a span of the same name.
    """
    roots = _roots(spans)
    return [
        (span, spans[roots[index]]) for index, span in enumerate(spans)
        if span.name == name and span.parent >= 0
        and spans[roots[index]].name == root_name
        and (not outermost or _outermost(spans, index))
    ]
