"""Independent answer checker for the service benchmark.

Everything here is computed apart from the program under test: graphs
are rebuilt as networkx graphs from their wire dicts, subgraph
matching is networkx's VF2 monomorphism search, and suggestion counts
are recounted from the raw repository.  Each ``check_*`` function
returns a list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

import networkx as nx
from networkx.algorithms import isomorphism as nxiso

#: the label a query node or edge uses to match any label
WILDCARD = "*"

GraphDict = Mapping[str, object]


def to_nx(graph: GraphDict) -> nx.Graph:
    """A labelled networkx graph from a ``graph_to_dict`` dict."""
    out = nx.Graph()
    for node in graph["nodes"]:
        out.add_node(int(node["id"]), label=str(node.get("label", "")))
    for edge in graph["edges"]:
        out.add_edge(int(edge["u"]), int(edge["v"]),
                     label=str(edge.get("label", "")))
    return out


def _label_match(target: Mapping[str, str],
                 pattern: Mapping[str, str]) -> bool:
    return pattern["label"] == WILDCARD \
        or pattern["label"] == target["label"]


def embeds(pattern: nx.Graph, target: nx.Graph) -> bool:
    """True iff ``pattern`` is label-preserving monomorphic to a
    subgraph of ``target`` (not necessarily induced)."""
    if pattern.number_of_nodes() > target.number_of_nodes() \
            or pattern.number_of_edges() > target.number_of_edges():
        return False
    matcher = nxiso.GraphMatcher(target, pattern,
                                 node_match=_label_match,
                                 edge_match=_label_match)
    return matcher.subgraph_is_monomorphic()


def matching_graphs(query: nx.Graph,
                    repository: Sequence[nx.Graph]) -> Set[int]:
    """Indices of the repository graphs the query embeds in."""
    return {index for index, graph in enumerate(repository)
            if embeds(query, graph)}


def isomorphic(first: nx.Graph, second: nx.Graph) -> bool:
    return nx.is_isomorphic(first, second,
                            node_match=lambda a, b: a["label"] == b["label"],
                            edge_match=lambda a, b: a["label"] == b["label"])


def check_embedding(query: nx.Graph, target: nx.Graph,
                    pairs: Iterable[Sequence[int]]) -> List[str]:
    """One returned embedding (``[query_node, data_node]`` pairs) must
    be total, injective, and preserve node labels and edges."""
    mapping: Dict[int, int] = {}
    for q, t in pairs:
        mapping[int(q)] = int(t)
    problems: List[str] = []
    if set(mapping) != set(query.nodes):
        problems.append("embedding does not map every query node")
        return problems
    if len(set(mapping.values())) != len(mapping):
        problems.append("embedding is not injective")
    for q, t in mapping.items():
        if t not in target:
            problems.append(f"embedding maps to missing node {t}")
            return problems
        if not _label_match(target.nodes[t], query.nodes[q]):
            problems.append(f"node {q}->{t} changes the label")
    for u, v, data in query.edges(data=True):
        tu, tv = mapping[u], mapping[v]
        if not target.has_edge(tu, tv):
            problems.append(f"edge ({u},{v}) has no image edge")
        elif not _label_match(target.edges[tu, tv], data):
            problems.append(f"edge ({u},{v}) changes the label")
    return problems


def check_query_answer(query: nx.Graph, repository: Sequence[nx.Graph],
                       names: Sequence[str], body: Mapping[str, object],
                       oracle: bool) -> List[str]:
    """A ``/v1/query`` answer: every embedding valid, each match's
    name agreeing with its index, and — when ``oracle`` — the matched
    set equal to the networkx oracle's."""
    problems: List[str] = []
    matched: Set[int] = set()
    for match in body["matches"]:
        index = int(match["graph_index"])
        if not 0 <= index < len(repository):
            problems.append(f"match index {index} out of range")
            continue
        if match["graph_name"] != names[index]:
            problems.append(f"match {index} named {match['graph_name']}"
                            f", expected {names[index]}")
        if not match["embeddings"]:
            problems.append(f"match {index} carries no embedding")
        matched.add(index)
        for pairs in match["embeddings"]:
            problems.extend(check_embedding(query, repository[index],
                                            pairs))
    if body["match_count"] != len(body["matches"]):
        problems.append("match_count disagrees with the matches")
    if oracle:
        expected = matching_graphs(query, repository)
        if matched != expected:
            missing = sorted(expected - matched)[:5]
            extra = sorted(matched - expected)[:5]
            problems.append(f"matched set differs from the oracle "
                            f"(missing {missing}, extra {extra})")
    return problems


Triples = Dict[Tuple[str, str, str], int]


def triple_counts(repository: Sequence[nx.Graph]) -> Triples:
    """(node label, edge label, neighbour label) occurrence counts,
    each edge counted once per direction with distinct end labels."""
    counts: Triples = {}
    for graph in repository:
        for u, v, data in graph.edges(data=True):
            lu, lv = graph.nodes[u]["label"], graph.nodes[v]["label"]
            key = (lu, data["label"], lv)
            counts[key] = counts.get(key, 0) + 1
            if lu != lv:
                key = (lv, data["label"], lu)
                counts[key] = counts.get(key, 0) + 1
    return counts


def extend(query: nx.Graph, anchor: int, edge_label: str,
           node_label: str) -> nx.Graph:
    """The query with one new node joined to ``anchor``."""
    trial = query.copy()
    fresh = max(trial.nodes, default=-1) + 1
    trial.add_node(fresh, label=node_label)
    trial.add_edge(anchor, fresh, label=edge_label)
    return trial


def check_suggestions(query: nx.Graph, anchor: int,
                      suggestions: Sequence[Mapping[str, object]],
                      triples: Triples,
                      repository: Sequence[nx.Graph]) -> List[str]:
    """``answerable_only`` suggestions: counts equal the recounted
    triples, the list is ranked by count, and every suggested
    extension embeds in at least one repository graph."""
    problems: List[str] = []
    label = query.nodes[anchor]["label"]
    counts = [int(item["count"]) for item in suggestions]
    if counts != sorted(counts, reverse=True):
        problems.append("suggestions are not ranked by count")
    for item in suggestions:
        key = (label, str(item["edge_label"]), str(item["node_label"]))
        if int(item["count"]) != triples.get(key, 0):
            problems.append(f"suggestion {key} counts {item['count']}, "
                            f"the repository has {triples.get(key, 0)}")
        trial = extend(query, anchor, key[1], key[2])
        if not any(embeds(trial, graph) for graph in repository):
            problems.append(f"suggestion {key} is not answerable")
    return problems


def check_budget(patterns: Sequence[Mapping[str, object]],
                 budget: Mapping[str, int]) -> List[str]:
    """At most the budgeted count, each within the size bounds."""
    problems: List[str] = []
    if not 0 < len(patterns) <= budget["max_patterns"]:
        problems.append(f"{len(patterns)} patterns, budget "
                        f"{budget['max_patterns']}")
    for index, item in enumerate(patterns):
        order = len(item["graph"]["nodes"])
        if not budget["min_size"] <= order <= budget["max_size"]:
            problems.append(f"pattern {index} has {order} nodes")
    return problems


def check_patterns(patterns: Sequence[Mapping[str, object]],
                   budget: Mapping[str, int],
                   data: Sequence[nx.Graph]) -> List[str]:
    """A selected pattern set: the budgeted count, sizes (in nodes)
    within the bounds, pairwise non-isomorphic, and each pattern
    embedding in at least one of ``data``."""
    problems: List[str] = []
    if len(patterns) != budget["max_patterns"]:
        problems.append(f"{len(patterns)} patterns, budget "
                        f"{budget['max_patterns']}")
    graphs = [to_nx(item["graph"]) for item in patterns]
    for index, graph in enumerate(graphs):
        order = graph.number_of_nodes()
        if not budget["min_size"] <= order <= budget["max_size"]:
            problems.append(f"pattern {index} has {order} nodes")
        if not any(embeds(graph, target) for target in data):
            problems.append(f"pattern {index} embeds in no data graph")
    for (i, first), (j, second) in combinations(enumerate(graphs), 2):
        if isomorphic(first, second):
            problems.append(f"patterns {i} and {j} are isomorphic")
    return problems
