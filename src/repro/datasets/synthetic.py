"""Seeded synthetic evolution workloads: parameterized graphs + mutations.

The paper evaluates alignment on three curated dataset histories (EFO,
GtoPdb, DBpedia).  This module turns "scenario diversity" into a
generated, reproducible surface instead of a manual fixture chore:

* :class:`SyntheticConfig` describes a whole multi-version history —
  base-graph *shape* (Erdős–Rényi, preferential-attachment scale-free,
  star/chain/cycle/DAG motifs), blank-node density, a literal noise
  model, namespace skew — plus per-step rates for the composable
  mutation operators (rename, split/merge nodes, edge rewires, literal
  edits, subtree inserts/deletes);
* :class:`SyntheticGenerator` renders the history as :class:`~repro.
  model.rdf.RDFGraph` versions with a ground-truth alignment carried
  through every mutation step, exposing the same surface as the curated
  generators (``graph``/``entities``/``ground_truth``/``combined`` and a
  memoized ``shared()``), so the :class:`~repro.experiments.store.
  VersionStore` and the parallel runner work unchanged;
* :data:`SCENARIOS` names the pinned seed matrix the differential oracle
  (:mod:`repro.testing.differential`) runs in CI.

Everything is a pure function of the config: two generators built from
equal configs produce byte-identical N-Triples dumps, in any process,
with any hash seed — that is what makes a failing differential case
reproducible from its config JSON alone (see ``docs/synthetic.md``).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Sequence, Union

from ..exceptions import ConfigError
from ..model.labels import URI
from ..model.rdf import BlankNode, RDFGraph, Term, lit
from ..model.union import CombinedGraph, combine
from .ground_truth import GroundTruth
from .mutations import curation_edit, make_name, sample_fraction

#: Base-graph shapes (the Rau et al. efficiency study shows engine
#: behavior diverges across *shapes*, not just sizes).
SHAPES: tuple[str, ...] = (
    "erdos_renyi",
    "scale_free",
    "star",
    "chain",
    "cycle",
    "dag",
)

#: The composable mutation operators, in the order one evolution step
#: applies them.
MUTATIONS: tuple[str, ...] = (
    "rename",
    "split",
    "merge",
    "rewire",
    "literal_edit",
    "insert",
    "delete",
)

#: Word pool for generated literal values (multi-word names give the
#: overlap literal round realistic word sets).
SYNTH_WORDS: tuple[str, ...] = tuple(
    "alpha beta gamma delta epsilon zeta theta kappa lambda sigma "
    "node edge graph version record entry value label index shard "
    "north south east west upper lower inner outer primary shadow "
    "red green blue amber violet copper silver golden slate ivory".split()
)

_FIELD_NAMES: frozenset[str] | None = None


@dataclass(frozen=True)
class SyntheticConfig:
    """A validated, immutable description of one synthetic history.

    Counts are at ``scale = 1.0``; every parameter is part of the
    identity of the generated history (and of the ``shared()`` memo
    key).  Mutation parameters are per-step fractions of the applicable
    population; a config with every mutation rate at zero (see
    :meth:`identity`) evolves by blank-identifier reshuffling alone.
    """

    shape: str = "erdos_renyi"
    scale: float = 1.0
    seed: int = 7
    versions: int = 4

    # -- base graph -----------------------------------------------------
    entities: int = 40
    edge_factor: float = 2.0
    blank_density: float = 0.2
    literal_density: float = 0.8
    literal_words: int = 3
    namespace_count: int = 3
    namespace_skew: float = 1.0
    predicates: int = 8

    # -- literal noise model --------------------------------------------
    #: Fraction of literal values replaced wholesale each step (fresh
    #: unrelated text, not a curation edit) — the "noisy export" regime.
    literal_noise: float = 0.0

    # -- mutation operator rates (per evolution step) -------------------
    rename_fraction: float = 0.1
    split_fraction: float = 0.0
    merge_fraction: float = 0.0
    rewire_fraction: float = 0.05
    literal_edit_fraction: float = 0.1
    insert_fraction: float = 0.05
    delete_fraction: float = 0.03

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ConfigError(
                f"unknown shape {self.shape!r}; expected one of {SHAPES}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.versions, int) or self.versions < 1:
            raise ConfigError(
                f"versions must be a positive integer, got {self.versions!r}"
            )
        for name in ("scale", "edge_factor"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
        if not isinstance(self.entities, int) or self.entities < 2:
            raise ConfigError(
                f"entities must be an integer >= 2, got {self.entities!r}"
            )
        for name in ("namespace_count", "predicates", "literal_words"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if not isinstance(self.namespace_skew, (int, float)) or self.namespace_skew < 0:
            raise ConfigError(
                f"namespace_skew must be >= 0, got {self.namespace_skew!r}"
            )
        for name in (
            "blank_density",
            "literal_density",
            "literal_noise",
            "rename_fraction",
            "split_fraction",
            "merge_fraction",
            "rewire_fraction",
            "literal_edit_fraction",
            "insert_fraction",
            "delete_fraction",
        ):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0.0 <= value <= 1.0
            ):
                raise ConfigError(
                    f"{name} must be a fraction in [0, 1], got {value!r}"
                )

    # ------------------------------------------------------------------
    def evolve(self, **changes) -> "SyntheticConfig":
        """A new config with *changes* applied (and re-validated)."""
        global _FIELD_NAMES
        if _FIELD_NAMES is None:
            _FIELD_NAMES = frozenset(
                f.name for f in dataclasses.fields(SyntheticConfig)
            )
        unknown = set(changes) - _FIELD_NAMES
        if unknown:
            raise ConfigError(
                f"unknown config field(s) {tuple(sorted(unknown))}; "
                f"expected a subset of {tuple(sorted(_FIELD_NAMES))}"
            )
        return dataclasses.replace(self, **changes)

    @classmethod
    def identity(cls, **overrides) -> "SyntheticConfig":
        """A config whose evolution steps change nothing but blank names.

        Every mutation rate and the literal noise are zero, so each
        version is the same graph with reshuffled blank identifiers —
        the metamorphic baseline: aligning consecutive versions must
        reproduce the identity alignment.
        """
        zeros = {
            "literal_noise": 0.0,
            "rename_fraction": 0.0,
            "split_fraction": 0.0,
            "merge_fraction": 0.0,
            "rewire_fraction": 0.0,
            "literal_edit_fraction": 0.0,
            "insert_fraction": 0.0,
            "delete_fraction": 0.0,
        }
        zeros.update(overrides)
        return cls(**zeros)

    def scaled(self, count: int) -> int:
        return max(2, int(count * self.scale))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-friendly rendering (all fields are primitives)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SyntheticConfig":
        """Rebuild a config from :meth:`to_dict` output (validated).

        This is the reproduction path for a failing differential case:
        the CI artifact carries the config JSON, ``from_dict`` + the
        seed rebuild the exact history.
        """
        if not isinstance(payload, dict):
            raise ConfigError(
                f"synthetic config payload must be an object, "
                f"got {type(payload).__name__}"
            )
        return cls().evolve(**payload)


#: Pinned seed matrix for the differential oracle (satellite scenarios:
#: small ER, scale-free, blank-heavy, cycle-heavy, literal-noise,
#: mutation-chain).  Sizes are deliberately small — the oracle's value
#: is the method × engine × jobs cross product, not graph scale.
SCENARIOS: dict[str, SyntheticConfig] = {
    "small_er": SyntheticConfig(
        shape="erdos_renyi", entities=20, versions=3, seed=101
    ),
    "scale_free": SyntheticConfig(
        shape="scale_free", entities=26, versions=3, seed=202,
        namespace_skew=1.5,
    ),
    "blank_heavy": SyntheticConfig(
        shape="erdos_renyi", entities=22, versions=3, seed=303,
        blank_density=0.6,
    ),
    "cycle_heavy": SyntheticConfig(
        shape="cycle", entities=24, versions=3, seed=404,
        rewire_fraction=0.08,
    ),
    "literal_noise": SyntheticConfig(
        shape="dag", entities=22, versions=3, seed=505,
        literal_noise=0.25, literal_edit_fraction=0.3,
    ),
    "mutation_chain": SyntheticConfig(
        shape="star", entities=24, versions=4, seed=606,
        rename_fraction=0.2, split_fraction=0.08, merge_fraction=0.08,
        rewire_fraction=0.1, insert_fraction=0.1, delete_fraction=0.06,
    ),
}


# ----------------------------------------------------------------------
# The evolving world model
# ----------------------------------------------------------------------
#: An edge object: another entity (by key) or a literal value.
_EntityRef = tuple[str, Union[int, str]]  # ("e", key) | ("l", value)


@dataclass
class _Entity:
    """One entity, persistent across versions under a stable key."""

    key: int
    blank: bool
    namespace: int
    local: str


@dataclass
class _State:
    """One version's world state (entities + edges over keys)."""

    entities: dict[int, _Entity]
    #: Deterministically ordered; a list (not a set) so that sampling
    #: draws are independent of hash seeds.
    edges: list[tuple[int, int, _EntityRef]]

    def clone(self) -> "_State":
        return _State(
            entities={
                key: dataclasses.replace(entity)
                for key, entity in self.entities.items()
            },
            edges=list(self.edges),
        )


def _skewed_weights(count: int, skew: float) -> list[float]:
    """Zipf-style weights: ``skew = 0`` is uniform, larger skews harder."""
    return [1.0 / (index + 1) ** skew for index in range(count)]


class SyntheticGenerator:
    """Renders one :class:`SyntheticConfig` as an evolving RDF history.

    The full history is built eagerly (and deterministically) on first
    access; every version's graph, entity map and pairwise ground truth
    derive from it.  The surface matches the curated generators
    (:class:`~repro.datasets.efo.EFOGenerator` et al.), so a
    ``SyntheticGenerator`` drops into the
    :class:`~repro.experiments.store.VersionStore`, the parallel
    experiment runner and the session API unchanged.
    """

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 7,
        versions: int = 4,
        config: SyntheticConfig | None = None,
        shape: str = "erdos_renyi",
    ) -> None:
        if config is None:
            config = SyntheticConfig(
                shape=shape, scale=scale, seed=seed, versions=versions
            )
        self.config = config
        self._states: list[_State] | None = None
        self._graphs: dict[int, RDFGraph] = {}
        self._entities: dict[int, dict[int, Term]] = {}
        self._next_key = 0

    @classmethod
    def shared(
        cls,
        config: SyntheticConfig | None = None,
        **kwargs,
    ) -> "SyntheticGenerator":
        """The process-wide memoized generator for this configuration.

        Accepts either a full :class:`SyntheticConfig` or its keyword
        fields; the memo key is the complete config, so every distinct
        scenario gets exactly one instance per process (which is what
        lets every ``VersionStore`` of the process share it).
        """
        from .registry import shared_instance

        if config is None:
            config = SyntheticConfig(**kwargs)
        elif kwargs:
            config = config.evolve(**kwargs)
        key = (cls.__qualname__,) + dataclasses.astuple(config)
        return shared_instance(key, lambda: cls(config=config))

    # ------------------------------------------------------------------
    # History construction
    # ------------------------------------------------------------------
    def _namespace(self, index: int) -> str:
        return f"http://synth.example.org/ns{index}/"

    def _predicate(self, index: int) -> URI:
        return URI(f"http://synth.example.org/vocab/p{index}")

    def _fresh_entity(self, rng: random.Random, blank: bool) -> _Entity:
        cfg = self.config
        key = self._next_key
        self._next_key += 1
        namespace = rng.choices(
            range(cfg.namespace_count),
            weights=_skewed_weights(cfg.namespace_count, cfg.namespace_skew),
        )[0]
        # The key is embedded in the local name, so renames can never
        # collide two entities onto one URI label.
        local = f"e{key}-{rng.randrange(1_000_000):06d}"
        return _Entity(key=key, blank=blank, namespace=namespace, local=local)

    def _pick_predicate(self, rng: random.Random) -> int:
        cfg = self.config
        return rng.choices(
            range(cfg.predicates),
            weights=_skewed_weights(cfg.predicates, cfg.namespace_skew),
        )[0]

    def _literal_value(self, rng: random.Random) -> str:
        return make_name(rng, SYNTH_WORDS, self.config.literal_words)

    def _shape_edges(
        self, rng: random.Random, keys: Sequence[int]
    ) -> list[tuple[int, int]]:
        """``(subject_key, object_key)`` pairs of the base structure."""
        cfg = self.config
        count = len(keys)
        edges: list[tuple[int, int]] = []
        if cfg.shape == "erdos_renyi":
            target = int(cfg.edge_factor * count)
            for _ in range(target):
                edges.append((rng.choice(keys), rng.choice(keys)))
        elif cfg.shape == "scale_free":
            # Barabási–Albert preferential attachment: endpoints are drawn
            # from a degree-weighted urn (every edge re-deposits both ends).
            attach = max(1, int(cfg.edge_factor / 2))
            urn: list[int] = list(keys[:2])
            for key in keys[1:]:
                for _ in range(attach):
                    other = rng.choice(urn)
                    if other != key:
                        edges.append((key, other))
                    urn.extend((key, other))
        elif cfg.shape == "star":
            hubs = list(keys[: max(1, count // 8)])
            for key in keys:
                if key in hubs:
                    continue
                edges.append((rng.choice(hubs), key))
        elif cfg.shape == "chain":
            for first, second in zip(keys, keys[1:]):
                edges.append((first, second))
        elif cfg.shape == "cycle":
            ring = max(3, min(8, count))
            for start in range(0, count, ring):
                members = keys[start:start + ring]
                if len(members) < 2:
                    edges.append((members[0], keys[0]))
                    continue
                for first, second in zip(members, members[1:]):
                    edges.append((first, second))
                edges.append((members[-1], members[0]))
        elif cfg.shape == "dag":
            # Layered random DAG: edges only point forward in key order.
            for index, key in enumerate(keys[:-1]):
                fanout = max(1, int(cfg.edge_factor / 2))
                for _ in range(fanout):
                    target_index = rng.randrange(index + 1, count)
                    edges.append((key, keys[target_index]))
        else:  # pragma: no cover - SHAPES is validated at config time
            raise ConfigError(f"unknown shape {cfg.shape!r}")
        return edges

    def _base_state(self, rng: random.Random) -> _State:
        cfg = self.config
        count = cfg.scaled(cfg.entities)
        entities: dict[int, _Entity] = {}
        keys: list[int] = []
        for _ in range(count):
            entity = self._fresh_entity(rng, blank=rng.random() < cfg.blank_density)
            entities[entity.key] = entity
            keys.append(entity.key)
        edges: list[tuple[int, int, _EntityRef]] = []
        for subject, obj in self._shape_edges(rng, keys):
            edges.append((subject, self._pick_predicate(rng), ("e", obj)))
        # Literal properties: on average ``literal_density`` per entity.
        for key in keys:
            while rng.random() < cfg.literal_density:
                edges.append(
                    (key, self._pick_predicate(rng), ("l", self._literal_value(rng)))
                )
                if rng.random() < 0.6:
                    break
        return _State(entities=entities, edges=edges)

    # -- mutation operators ---------------------------------------------
    def _op_rename(self, state: _State, rng: random.Random) -> None:
        """Fresh local names (and sometimes namespaces) for some URIs."""
        cfg = self.config
        uris = [e for e in self._ordered_entities(state) if not e.blank]
        for entity in sample_fraction(rng, uris, cfg.rename_fraction):
            entity.local = f"e{entity.key}-{rng.randrange(1_000_000):06d}"
            if rng.random() < 0.3:
                entity.namespace = rng.randrange(cfg.namespace_count)

    def _op_split(self, state: _State, rng: random.Random) -> None:
        """Split a node: the original keeps part of its out-edges, a
        fresh entity takes the rest (plus a copy of each in-edge)."""
        cfg = self.config
        candidates = [
            e for e in self._ordered_entities(state)
            if len([edge for edge in state.edges if edge[0] == e.key]) >= 2
        ]
        for entity in sample_fraction(rng, candidates, cfg.split_fraction):
            twin = self._fresh_entity(rng, blank=entity.blank)
            state.entities[twin.key] = twin
            moved = 0
            edges: list[tuple[int, int, _EntityRef]] = []
            for subject, predicate, obj in state.edges:
                if subject == entity.key and rng.random() < 0.5:
                    edges.append((twin.key, predicate, obj))
                    moved += 1
                else:
                    edges.append((subject, predicate, obj))
                if obj == ("e", entity.key) and rng.random() < 0.5:
                    edges.append((subject, predicate, ("e", twin.key)))
            if not moved:  # keep the twin observable
                edges.append(
                    (twin.key, self._pick_predicate(rng),
                     ("l", self._literal_value(rng)))
                )
            state.edges = edges

    def _op_merge(self, state: _State, rng: random.Random) -> None:
        """Merge node pairs: the absorbed entity's edges re-point to the
        survivor and the absorbed key retires (no ground-truth partner)."""
        cfg = self.config
        ordered = self._ordered_entities(state)
        victims = sample_fraction(rng, ordered, cfg.merge_fraction)
        for victim in victims:
            if victim.key not in state.entities or len(state.entities) < 3:
                continue
            survivors = [
                e for e in self._ordered_entities(state)
                if e.key != victim.key and e.blank == victim.blank
            ]
            if not survivors:
                continue
            survivor = rng.choice(survivors)
            state.edges = [
                (
                    survivor.key if subject == victim.key else subject,
                    predicate,
                    ("e", survivor.key) if obj == ("e", victim.key) else obj,
                )
                for subject, predicate, obj in state.edges
            ]
            del state.entities[victim.key]

    def _op_rewire(self, state: _State, rng: random.Random) -> None:
        """Re-point some entity-to-entity edges at fresh random targets."""
        cfg = self.config
        keys = sorted(state.entities)
        indices = [
            index for index, edge in enumerate(state.edges) if edge[2][0] == "e"
        ]
        for index in sample_fraction(rng, indices, cfg.rewire_fraction):
            subject, predicate, _ = state.edges[index]
            state.edges[index] = (subject, predicate, ("e", rng.choice(keys)))

    def _op_literal_edit(self, state: _State, rng: random.Random) -> None:
        """Curation edits plus the wholesale-replacement noise model."""
        cfg = self.config
        indices = [
            index for index, edge in enumerate(state.edges) if edge[2][0] == "l"
        ]
        for index in sample_fraction(rng, indices, cfg.literal_edit_fraction):
            subject, predicate, (_, value) = state.edges[index]
            edited = curation_edit(rng, value, SYNTH_WORDS)
            state.edges[index] = (subject, predicate, ("l", edited))
        for index in sample_fraction(rng, indices, cfg.literal_noise):
            subject, predicate, _ = state.edges[index]
            state.edges[index] = (
                subject, predicate, ("l", self._literal_value(rng))
            )

    def _op_insert(self, state: _State, rng: random.Random) -> None:
        """Insert subtrees: a fresh entity wired to an existing one, with
        a blank record child (the EFO citation motif)."""
        cfg = self.config
        anchors = sorted(state.entities)
        count = int(len(anchors) * cfg.insert_fraction)
        for _ in range(count):
            entity = self._fresh_entity(rng, blank=False)
            state.entities[entity.key] = entity
            state.edges.append(
                (rng.choice(anchors), self._pick_predicate(rng), ("e", entity.key))
            )
            record = self._fresh_entity(rng, blank=True)
            state.entities[record.key] = record
            state.edges.append(
                (entity.key, self._pick_predicate(rng), ("e", record.key))
            )
            for _ in range(2):
                state.edges.append(
                    (record.key, self._pick_predicate(rng),
                     ("l", self._literal_value(rng)))
                )

    def _op_delete(self, state: _State, rng: random.Random) -> None:
        """Delete subtrees: an entity disappears with every touching edge."""
        cfg = self.config
        ordered = self._ordered_entities(state)
        for victim in sample_fraction(rng, ordered, cfg.delete_fraction):
            if len(state.entities) < 4:
                break
            del state.entities[victim.key]
            state.edges = [
                (subject, predicate, obj)
                for subject, predicate, obj in state.edges
                if subject != victim.key and obj != ("e", victim.key)
            ]

    def _ordered_entities(self, state: _State) -> list[_Entity]:
        return [state.entities[key] for key in sorted(state.entities)]

    def _evolve(self, state: _State, step: int) -> _State:
        """One evolution step: all operators at their configured rates.

        A per-step RNG stream keeps every step's draws independent of
        the others, so changing one rate perturbs only the operator it
        parameterizes.
        """
        rng = random.Random(self.config.seed * 9973 + step)
        state = state.clone()
        self._op_rename(state, rng)
        self._op_split(state, rng)
        self._op_merge(state, rng)
        self._op_rewire(state, rng)
        self._op_literal_edit(state, rng)
        self._op_insert(state, rng)
        self._op_delete(state, rng)
        return state

    def _build(self) -> list[_State]:
        if self._states is None:
            self._next_key = 0
            rng = random.Random(self.config.seed)
            states = [self._base_state(rng)]
            for step in range(1, self.config.versions):
                states.append(self._evolve(states[-1], step))
            self._states = states
        return self._states

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _term_of(self, entity: _Entity, version_index: int) -> Term:
        if entity.blank:
            # Per-version blank identifiers: reshuffled wholesale, the
            # paper's first change driver (and why deblanking exists).
            return BlankNode(f"v{version_index + 1}-b{entity.key}")
        return URI(self._namespace(entity.namespace) + entity.local)

    def graph(self, version_index: int) -> RDFGraph:
        """The RDF graph of one version (0-based index)."""
        cached = self._graphs.get(version_index)
        if cached is not None:
            return cached
        states = self._build()
        if not 0 <= version_index < len(states):
            raise ConfigError(
                f"version index {version_index} outside "
                f"[0, {self.config.versions})"
            )
        state = states[version_index]
        graph = RDFGraph()
        entities: dict[int, Term] = {}
        present: set[int] = set()
        for subject, _, obj in state.edges:
            present.add(subject)
            if obj[0] == "e":
                present.add(obj[1])
        for key in sorted(present):
            entity = state.entities.get(key)
            if entity is not None:
                entities[key] = self._term_of(entity, version_index)
        for subject, predicate, obj in state.edges:
            subject_term = entities.get(subject)
            if subject_term is None:
                continue
            if obj[0] == "l":
                object_term: Term = lit(obj[1])
            else:
                object_term = entities.get(obj[1])  # type: ignore[assignment]
                if object_term is None:
                    continue
            graph.add(subject_term, self._predicate(predicate), object_term)
        self._graphs[version_index] = graph
        self._entities[version_index] = entities
        return graph

    def graphs(self) -> list[RDFGraph]:
        return [self.graph(i) for i in range(self.config.versions)]

    def entities(self, version_index: int) -> dict[int, Term]:
        """Entity key → term map of one version (URIs and blanks)."""
        self.graph(version_index)
        return self._entities[version_index]

    def ground_truth(self, source_index: int, target_index: int) -> GroundTruth:
        """The carried alignment: keys present in both versions."""
        return GroundTruth.from_entity_maps(
            self.entities(source_index), self.entities(target_index)
        )

    def version_changes(self, index: int):
        """The identity-preserving delta from version *index* to the next.

        Renames come from the shared entity keys — blank identifiers
        reshuffle wholesale every version and URIs move under the rename
        operator, so a persistent entity appears as a rename instead of
        a removal plus an insertion.  This is what keeps incremental
        maintenance (:mod:`repro.core.maintain`) proportional to the
        real change: ``version_changes(i).apply(graph(i))`` reproduces
        ``graph(i + 1)`` exactly.
        """
        from ..delta.changes import diff

        before = self.graph(index)
        after = self.graph(index + 1)
        first = self.entities(index)
        second = self.entities(index + 1)
        renames = {
            first[key]: second[key]
            for key in sorted(first.keys() & second.keys())
            if first[key] != second[key]
        }
        return diff(before, after, renames=renames)

    def combined(
        self, source_index: int, target_index: int
    ) -> tuple[CombinedGraph, GroundTruth]:
        return (
            combine(self.graph(source_index), self.graph(target_index)),
            self.ground_truth(source_index, target_index),
        )

    def __repr__(self) -> str:
        return f"SyntheticGenerator({self.config!r})"


# ----------------------------------------------------------------------
# Dataset-family integration (VersionStore / parallel runner)
# ----------------------------------------------------------------------
class SyntheticFamily:
    """Adapter giving one shape the curated generators' family surface.

    :meth:`~repro.experiments.store.VersionStore.shared` resolves a
    family name to a factory and calls ``factory.shared(scale=, seed=,
    versions=)``; an instance of this class is that factory for one
    shape, so ``VersionStore.shared("synthetic_scale_free", ...)`` works
    exactly like the curated ``"efo"``/``"gtopdb"``/``"dbpedia"``.
    """

    def __init__(self, shape: str) -> None:
        if shape not in SHAPES:
            raise ConfigError(
                f"unknown shape {shape!r}; expected one of {SHAPES}"
            )
        self.shape = shape

    def shared(
        self, scale: float = 1.0, seed: int = 7, versions: int = 4
    ) -> SyntheticGenerator:
        return SyntheticGenerator.shared(
            SyntheticConfig(
                shape=self.shape,
                scale=float(scale),
                seed=int(seed),
                versions=int(versions),
            )
        )

    def __call__(
        self, scale: float = 1.0, seed: int = 7, versions: int = 4
    ) -> SyntheticGenerator:
        return SyntheticGenerator(
            config=SyntheticConfig(
                shape=self.shape,
                scale=float(scale),
                seed=int(seed),
                versions=int(versions),
            )
        )


#: ``family name -> factory`` for every shape, merged into
#: :data:`repro.experiments.store.GENERATOR_FAMILIES`.
SHAPE_FAMILIES: dict[str, SyntheticFamily] = {
    f"synthetic_{shape}": SyntheticFamily(shape) for shape in SHAPES
}


def relabel_uris(graph: RDFGraph, prefix: str = "http://relabel.invalid/r") -> RDFGraph:
    """A copy of *graph* with every URI mapped through a fresh bijection.

    URI values are replaced (in sorted order, so the bijection is
    deterministic) by fresh opaque names; blanks and literals are kept.
    The metamorphic tests use this: bisimulation partition block sizes
    are invariant under any label bijection.
    """
    uris = sorted(
        {
            term.value
            for triple in graph.triples()
            for term in triple
            if isinstance(term, URI)
        }
    )
    mapping = {value: URI(f"{prefix}{index}") for index, value in enumerate(uris)}

    def carry(term: Term) -> Term:
        if isinstance(term, URI):
            return mapping[term.value]
        return term

    relabeled = RDFGraph()
    for subject, predicate, obj in graph.triples():
        relabeled.add(carry(subject), carry(predicate), carry(obj))
    return relabeled


def history_stats(generator: SyntheticGenerator) -> list[dict]:
    """Per-version node/edge/blank counts (manifest + doc examples)."""
    rows = []
    for index in range(generator.config.versions):
        graph = generator.graph(index)
        stats = graph.stats()
        rows.append(
            {
                "version": index + 1,
                "nodes": stats.num_nodes,
                "edges": stats.num_edges,
                "blanks": len(graph.blanks()),
            }
        )
    return rows


__all__ = [
    "MUTATIONS",
    "SCENARIOS",
    "SHAPES",
    "SHAPE_FAMILIES",
    "SYNTH_WORDS",
    "SyntheticConfig",
    "SyntheticFamily",
    "SyntheticGenerator",
    "history_stats",
    "relabel_uris",
]
