"""Seeded inputs of the three workloads.

Every input is a pure function of the workload seed, made with the
repository's own dataset generators (``repro.datasets``); the server
only ever receives the generated data, never the seed.  The sizes
below are the benchmark's make-up and are listed in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.datasets.chemical import generate_chemical_repository
from repro.datasets.evolving import (
    EvolvingRepository,
    UpdateBatch,
    generate_update_stream,
)
from repro.datasets.networks import NetworkConfig, generate_network
from repro.datasets.workloads import generate_workload
from repro.graph.graph import Graph
from repro.graph.io import graph_to_dict

#: formulate: one served repository, per connection and round a list
#: of log-mix queries with interactive user journeys spread among them
FORMULATE_GRAPHS = 120
FORMULATE_QUERIES_PER_CONN = 80
FORMULATE_JOURNEYS_PER_CONN = 20
FORMULATE_CONNECTIONS = 2
#: suggestions asked for per journey (``top_k``)
SUGGEST_TOP_K = 3

#: maintain: a durable repository and a drifting MIDAS update stream —
#: minor batches, one carboxyl-only batch that replaces most of the
#: repository (classified major on every seed tried), minor again
MAINTAIN_GRAPHS = 96
MINOR_BATCH = 12
MINOR_BEFORE = 2
MINOR_AFTER = 2
DRIFT_BATCH = 56
DRIFT_WEIGHTS = (0.0, 0.0, 1.0, 0.0)
MAINTAIN_READER_QUERIES = 100
#: the reader's front end reloads the panel after every this many
#: queries, as a user refreshing it while maintenance runs
READER_PANEL_EVERY = 5
REBOOTS = 3

#: build: chemical repositories (CATAPULT) alternating with planted-
#: truss networks (TATTOO), one connection; the server starts on a
#: separate small repository so that every timed build is cold
BUILD_SERVED_GRAPHS = 30
BUILD_REPOSITORIES = 5
BUILD_REPOSITORY_GRAPHS = 40
BUILD_NETWORKS = 5
BUILD_NETWORK = dict(nodes=800, attachment=2, cliques=6, clique_size=5,
                     petals=5, flowers=4)


def _sub_seed(seed: int, stream: int) -> int:
    """Independent seeds for the separate generators of one run."""
    return seed * 7919 + stream


def graph_dict(graph: Graph) -> Dict[str, object]:
    """Wire dict of a generated graph.  Generated node ids run
    0..n-1, which ``.lg`` round-trips unchanged, so the benchmark's
    copy and the server's agree on ids."""
    if sorted(graph.nodes()) != list(range(graph.order())):
        raise ValueError(f"graph {graph.name} has non-contiguous ids")
    return graph_to_dict(graph)


@dataclass
class Journey:
    """One simulated user: drop canned pattern ``pattern`` (taken
    modulo the panel size), ask for answerable extensions of the
    pattern's ``anchor``-th node (modulo its order), add the top one,
    run the query, close the session."""
    pattern: int
    anchor: int


@dataclass
class FormulateInputs:
    repository: List[Graph]
    #: per connection: ("query", graph dict) or ("journey", Journey)
    scripts: List[List[Tuple[str, object]]]


def formulate_inputs(seed: int) -> FormulateInputs:
    repository = generate_chemical_repository(
        FORMULATE_GRAPHS, seed=_sub_seed(seed, 1))
    count = FORMULATE_QUERIES_PER_CONN * FORMULATE_CONNECTIONS
    queries = [graph_dict(query) for query in generate_workload(
        repository, count, seed=_sub_seed(seed, 2))]
    rng = random.Random(_sub_seed(seed, 3))
    scripts: List[List[Tuple[str, object]]] = []
    for conn in range(FORMULATE_CONNECTIONS):
        mine = queries[conn::FORMULATE_CONNECTIONS]
        script: List[Tuple[str, object]] = [("query", q) for q in mine]
        step = len(script) // FORMULATE_JOURNEYS_PER_CONN
        for index in range(FORMULATE_JOURNEYS_PER_CONN):
            journey = Journey(rng.randrange(64), rng.randrange(64))
            script.insert(index * (step + 1), ("journey", journey))
        scripts.append(script)
    return FormulateInputs(repository, scripts)


@dataclass
class MaintainInputs:
    repository: List[Graph]
    batches: List[UpdateBatch]
    #: the repository's graph names, in order, after each batch
    expected_names: List[List[str]]
    #: (source graph name, query dict); sources no batch removes
    reader_queries: List[Tuple[str, Dict[str, object]]]


def maintain_inputs(seed: int) -> MaintainInputs:
    repository = generate_chemical_repository(
        MAINTAIN_GRAPHS, seed=_sub_seed(seed, 11))
    model = EvolvingRepository(
        generate_chemical_repository(MAINTAIN_GRAPHS,
                                     seed=_sub_seed(seed, 11)))
    batches: List[UpdateBatch] = []
    expected: List[List[str]] = []

    def take(stream) -> None:
        # each batch is applied to the model before the generator
        # draws the next, as generate_update_stream requires
        for batch in stream:
            model.apply(batch)
            batches.append(batch)
            expected.append([g.name for g in model.graphs()])

    take(generate_update_stream(model, MINOR_BEFORE, MINOR_BATCH,
                                seed=_sub_seed(seed, 12)))
    take(generate_update_stream(model, 1, DRIFT_BATCH,
                                seed=_sub_seed(seed, 13),
                                removal_fraction=1.0, drift_after=0,
                                drift_weights=DRIFT_WEIGHTS))
    take(generate_update_stream(model, MINOR_AFTER, MINOR_BATCH,
                                seed=_sub_seed(seed, 14)))
    removed = {name for batch in batches for name in batch.removed}
    # generate_workload samples at least three nodes
    survivors = [g for g in repository
                 if g.name not in removed and g.order() >= 3]
    rng = random.Random(_sub_seed(seed, 15))
    readers: List[Tuple[str, Dict[str, object]]] = []
    for index in range(MAINTAIN_READER_QUERIES):
        source = rng.choice(survivors)
        query = generate_workload([source], 1,
                                  seed=_sub_seed(seed, 100 + index))
        readers.append((source.name, graph_dict(query.queries[0])))
    return MaintainInputs(repository, batches, expected, readers)


def batch_body(batch: UpdateBatch) -> Dict[str, object]:
    return {"add": [graph_dict(g) for g in batch.added],
            "remove": list(batch.removed)}


@dataclass
class BuildInputs:
    served: List[Graph]
    repositories: List[List[Graph]]
    networks: List[Graph]
    #: the alternating request script: ("catapult" | "tattoo", index)
    script: List[Tuple[str, int]]


def build_inputs(seed: int) -> BuildInputs:
    repositories = [
        generate_chemical_repository(BUILD_REPOSITORY_GRAPHS,
                                     seed=_sub_seed(seed, 21 + index))
        for index in range(BUILD_REPOSITORIES)]
    networks = [
        generate_network(NetworkConfig(**BUILD_NETWORK),
                         seed=_sub_seed(seed, 31 + index))
        for index in range(BUILD_NETWORKS)]
    script: List[Tuple[str, int]] = []
    for index in range(max(BUILD_REPOSITORIES, BUILD_NETWORKS)):
        if index < BUILD_REPOSITORIES:
            script.append(("catapult", index))
        if index < BUILD_NETWORKS:
            script.append(("tattoo", index))
    served = generate_chemical_repository(BUILD_SERVED_GRAPHS,
                                          seed=_sub_seed(seed, 20))
    return BuildInputs(served, repositories, networks, script)
