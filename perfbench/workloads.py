"""The benchmark's three workloads, driven through the public API.

Each workload builds its inputs from the seed alone (:meth:`setup`, the
timed set-up), computes the expected output of every distinct operation
with an independent configuration (:meth:`expect`), and then runs
operations by index (:meth:`run`, the timed region).  :meth:`check`
renders an operation's output to a digest outside the timed region; the
digest covers the report fields ``pairs``, ``unaligned_source``,
``unaligned_target`` and ``stats`` (or the matrix rows), so engine,
``jobs`` and incremental maintenance may differ but results may not.

Program calls go through module attributes at call time (``parallel.
run_store_cells``, not a local ``from`` import) so a traced operation
reaches the instrumented layer entry points.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Callable, ContextManager

import repro.align as align
import repro.experiments.cells as cells
import repro.experiments.parallel as parallel
import repro.experiments.store as store_mod
import repro.io.ntriples as ntriples
from repro.datasets.synthetic import SCENARIOS, SyntheticGenerator

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Brackets one expected-output computation (the traced run records
#: spans under it); called with a label for the kind of operation.
Around = Callable[[str], ContextManager]


def no_span(label: str) -> ContextManager:
    return contextlib.nullcontext()


def digest(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def report_digest(report: dict) -> str:
    """Digest of the result fields of one report payload."""
    return digest({
        key: report[key]
        for key in ("pairs", "unaligned_source", "unaligned_target", "stats")
    })


class Workload:
    """Base: sizes by name, the op cycle, expected digests by op kind."""

    name = ""
    #: ``size name -> parameters``; ``full`` is what the benchmark runs,
    #: ``tiny`` what the smoke tests run.
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.params = dict(self.SIZES[size])
        self.expected: dict[Any, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> list:
        """Op kinds in run order; op ``i`` is of kind ``cycle()[i % len]``."""
        raise NotImplementedError

    def kind(self, index: int) -> Any:
        cycle = self.cycle()
        return cycle[index % len(cycle)]

    def expect(self, around: Around = no_span) -> None:
        raise NotImplementedError

    def session(self) -> Any:
        """Long-lived state shared by every operation of one pass."""
        return None

    def run(self, session: Any, index: int) -> Any:
        raise NotImplementedError

    def check(self, session: Any, index: int, output: Any) -> tuple[str, dict]:
        """``(digest, extras)`` of one operation's output."""
        raise NotImplementedError

    def triples(self, index: int) -> int:
        raise NotImplementedError

    def describe(self) -> dict:
        """Workload sizes for the session record."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class PairCold(Workload):
    """A fresh session aligns two N-Triples files and renders the report.

    Inputs are the last two versions of the EFO, GtoPdb and DBpedia
    generators written at set-up.  Op ``i`` aligns dataset ``i % 3`` with
    method ``i % 5``, so the 15-op cycle holds every pair once and any
    3 (5) consecutive ops cover every dataset (method).
    """

    name = "pair_cold"
    DATASETS = ("efo", "gtopdb", "dbpedia")
    METHODS = ("trivial", "deblank", "hybrid", "overlap", "kbisim")
    K = 3
    SIZES = {"full": {"scale": 1.0}, "tiny": {"scale": 0.2}}

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        self.workdir = OUT_DIR / f"work-{os.getpid()}"
        self.files: dict[str, tuple[str, str]] = {}
        self.sizes: dict[str, int] = {}

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for name in self.DATASETS:
            generator = store_mod.GENERATOR_FAMILIES[name](
                scale=self.params["scale"], seed=self.seed
            )
            last = generator.config.versions - 1
            paths = []
            triples = 0
            for version in (last - 1, last):
                graph = generator.graph(version)
                path = self.workdir / f"{name}-v{version}.nt"
                ntriples.dump_path(graph, path)
                paths.append(str(path))
                triples += graph.num_edges
            self.files[name] = (paths[0], paths[1])
            self.sizes[name] = triples

    def cycle(self) -> list:
        return [(self.DATASETS[index % 3], self.METHODS[index % 5]) for index in range(15)]

    def expect(self, around: Around = no_span) -> None:
        # The other engine: dense against the default reference engine.
        for dataset, method in self.cycle():
            with around(method):
                aligner = align.Aligner(align.AlignConfig(
                    method=method, engine="dense", k=self.K, jobs=1
                ))
                report = aligner.report(*self.files[dataset])
            self.expected[dataset, method] = report_digest(report.to_dict())

    def run(self, session: Any, index: int) -> str:
        dataset, method = self.kind(index)
        aligner = align.Aligner(align.AlignConfig(method=method, k=self.K, jobs=1))
        return aligner.report(*self.files[dataset]).to_json()

    def check(self, session: Any, index: int, output: str) -> tuple[str, dict]:
        return report_digest(json.loads(output)), {}

    def triples(self, index: int) -> int:
        return self.sizes[self.kind(index)[0]]

    def describe(self) -> dict:
        return {**self.params, "k": self.K, "triples_per_pair": dict(self.sizes)}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
class ChainSession(Workload):
    """One long-lived incremental deblank session over a version history.

    The history is the ``mutation_chain`` scenario evolved with
    archive-realistic per-step deltas (the regime of
    ``benchmarks/test_incremental.py``); op ``i`` calls ``align_chain``
    over the window of ``WINDOW`` consecutive versions starting at
    ``i mod (versions - WINDOW + 1)``, with deltas from
    ``repro.delta.changes.diff``.

    The method is ``deblank``: the incremental ``hybrid`` and ``overlap``
    chains do not yet equal their from-scratch alignments on every
    history (``perfbench/chain_parity.py`` reproduces the mismatch), so
    a run over them would report failures that are not the benchmark's.
    """

    name = "chain_session"
    METHOD = "deblank"
    WINDOW = 3
    SIZES = {
        "full": {"entities": 2000, "versions": 8},
        "tiny": {"entities": 120, "versions": 4},
    }

    def setup(self) -> None:
        config = SCENARIOS["mutation_chain"].evolve(
            seed=self.seed,
            versions=self.params["versions"],
            entities=self.params["entities"],
            shape="dag",
            blank_density=0.6,
            literal_density=0.2,
            rename_fraction=0.01,
            split_fraction=0.002,
            merge_fraction=0.0,
            rewire_fraction=0.0,
            literal_edit_fraction=0.01,
            insert_fraction=0.005,
            delete_fraction=0.003,
        )
        self.graphs = SyntheticGenerator(config=config).graphs()

    def cycle(self) -> list:
        return list(range(len(self.graphs) - self.WINDOW + 1))

    def expect(self, around: Around = no_span) -> None:
        pairs = []
        for left, right in zip(self.graphs, self.graphs[1:]):
            with around("scratch"):
                aligner = align.Aligner(align.AlignConfig(method=self.METHOD, jobs=1))
                report = aligner.report(left, right)
            pairs.append(report_digest(report.to_dict()))
        for start in self.cycle():
            self.expected[start] = digest(pairs[start:start + self.WINDOW - 1])

    def session(self) -> Any:
        return align.Aligner(
            align.AlignConfig(method=self.METHOD, incremental=True, jobs=1)
        )

    def run(self, session: Any, index: int) -> list:
        start = self.kind(index)
        return session.align_chain(self.graphs[start:start + self.WINDOW])

    def check(self, session: Any, index: int, output: list) -> tuple[str, dict]:
        return digest([
            report_digest(result.report(session.config).to_dict())
            for result in output
        ]), {}

    def triples(self, index: int) -> int:
        start = self.kind(index)
        window = self.graphs[start:start + self.WINDOW]
        return sum(a.num_edges + b.num_edges for a, b in zip(window, window[1:]))

    def describe(self) -> dict:
        return {
            **self.params,
            "window": self.WINDOW,
            "triples_first_version": self.graphs[0].num_edges,
        }


# ----------------------------------------------------------------------
class ParallelBatch(Workload):
    """All-pairs matrices through the store pool, and the shard pool.

    The op cycle is mostly small matrices, one large matrix per cell
    kind, and a pooled kbisim alignment of one large pair; everything
    asks for ``JOBS`` workers and the library decides whether a pool
    pays for itself.
    """

    name = "parallel_batch"
    JOBS = 2
    K = 3
    FAMILY = "synthetic_scale_free"
    SIZES = {
        "full": {"small": (2.0, 5), "large": (3.0, 10), "ksig_scale": 40.0},
        "tiny": {"small": (1.0, 3), "large": (1.0, 4), "ksig_scale": 4.0},
    }
    CYCLE = (
        ("small", "method"), ("ksig", ""), ("small", "kbisim"),
        ("small", "method"), ("ksig", ""), ("small", "kbisim"),
        ("large", "method"), ("large", "kbisim"),
    )

    def setup(self) -> None:
        family = store_mod.GENERATOR_FAMILIES[self.FAMILY]
        self.generators = {}
        for shape in ("small", "large"):
            scale, versions = self.params[shape]
            self.generators[shape] = family(scale=scale, seed=self.seed, versions=versions)
            self.generators[shape].graphs()
        pair = family(scale=self.params["ksig_scale"], seed=self.seed, versions=2)
        self.ksig_pair = tuple(pair.graphs())

    def cycle(self) -> list:
        return list(self.CYCLE)

    def _matrix(self, shape: str, cell: str, jobs: int) -> dict:
        generator = self.generators[shape]
        store = store_mod.VersionStore(generator)
        versions = store.versions
        pairs = [(s, t) for s in range(versions) for t in range(s, versions)]
        if cell == "method":
            store.prepare(summaries=True, tokens=("deblank",))
            function, config = cells.method_counts_cell, align.AlignConfig()
        else:
            store.prepare()
            function = cells.kbisim_counts_cell
            config = align.AlignConfig(method="kbisim", engine="dense", k=self.K)
        events: list = []
        rows = parallel.run_store_cells(
            store, function, pairs, jobs=jobs, config=config, events=events
        )
        return {"rows": rows, "cache": store.cache_stats(), "degradations": len(events)}

    def _ksig_config(self, jobs: int) -> Any:
        return align.AlignConfig(method="kbisim", engine="dense", k=self.K, jobs=jobs)

    def expect(self, around: Around = no_span) -> None:
        for shape, cell in sorted(set(self.CYCLE)):
            with around(shape if shape == "ksig" else "matrix"):
                if shape == "ksig":
                    config = self._ksig_config(1)
                    result = align.Aligner(config).align(*self.ksig_pair)
                    value = report_digest(result.report(config).to_dict())
                else:
                    value = digest(self._matrix(shape, cell, jobs=1)["rows"])
            self.expected[shape, cell] = value

    def run(self, session: Any, index: int) -> Any:
        shape, cell = self.kind(index)
        if shape == "ksig":
            return align.Aligner(self._ksig_config(self.JOBS)).align(*self.ksig_pair)
        return self._matrix(shape, cell, jobs=self.JOBS)

    def check(self, session: Any, index: int, output: Any) -> tuple[str, dict]:
        shape, _cell = self.kind(index)
        if shape == "ksig":
            report = output.report(self._ksig_config(self.JOBS))
            return report_digest(report.to_dict()), {}
        hits = sum(hit for hit, _miss in output["cache"].values())
        misses = sum(miss for _hit, miss in output["cache"].values())
        return digest(output["rows"]), {
            "cache_hits": hits,
            "cache_misses": misses,
            "degradations": output["degradations"],
        }

    def triples(self, index: int) -> int:
        shape, _cell = self.kind(index)
        if shape == "ksig":
            return sum(graph.num_edges for graph in self.ksig_pair)
        graphs = self.generators[shape].graphs()
        return sum(
            graphs[s].num_edges + graphs[t].num_edges
            for s in range(len(graphs)) for t in range(s, len(graphs))
        )

    def describe(self) -> dict:
        return {
            "jobs": self.JOBS,
            "k": self.K,
            "family": self.FAMILY,
            "small_matrix": {"scale": self.params["small"][0],
                             "versions": self.params["small"][1]},
            "large_matrix": {"scale": self.params["large"][0],
                             "versions": self.params["large"][1]},
            "ksig_pair": {"scale": self.params["ksig_scale"],
                          "nodes": self.ksig_pair[0].num_nodes},
            "cycle": ["/".join(filter(None, kind)) for kind in self.CYCLE],
        }


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (PairCold, ChainSession, ParallelBatch)
}
