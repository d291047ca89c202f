"""The checker must reject planted wrong answers.

Run from the repository root::

    python3 -m pytest -q vqibench/test_oracle.py
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402


def graph(nodes, edges, name=""):
    return {"name": name,
            "nodes": [{"id": i, "label": label}
                      for i, label in enumerate(nodes)],
            "edges": [{"u": u, "v": v, "label": label}
                      for u, v, label in edges]}


#: a path C-1-C-2-O, a triangle C-C-N, and a star around C
REPOSITORY = [
    graph(["C", "C", "O"], [(0, 1, "1"), (1, 2, "2")], "g0"),
    graph(["C", "C", "N"], [(0, 1, "1"), (1, 2, "1"), (0, 2, "1")],
          "g1"),
    graph(["C", "O", "O", "N"],
          [(0, 1, "2"), (0, 2, "1"), (0, 3, "1")], "g2"),
]
REPO_NX = [oracle.to_nx(g) for g in REPOSITORY]
NAMES = [g["name"] for g in REPOSITORY]
#: C-1-C: in g0 and g1 only
QUERY = graph(["C", "C"], [(0, 1, "1")])


def true_answer():
    """The answer a correct engine gives for QUERY."""
    return {"match_count": 2, "matches": [
        {"graph_index": 0, "graph_name": "g0",
         "embeddings": [[[0, 0], [1, 1]], [[0, 1], [1, 0]]]},
        {"graph_index": 1, "graph_name": "g1",
         "embeddings": [[[0, 0], [1, 1]], [[0, 1], [1, 0]]]},
    ]}


def check(answer):
    return oracle.check_query_answer(oracle.to_nx(QUERY), REPO_NX,
                                     NAMES, answer, oracle=True)


def test_true_answer_passes():
    assert check(true_answer()) == []


def test_dropped_match_is_rejected():
    answer = true_answer()
    answer["matches"].pop()
    answer["match_count"] = 1
    assert any("oracle" in p for p in check(answer))


def test_extra_match_is_rejected():
    answer = true_answer()
    answer["matches"].append({"graph_index": 2, "graph_name": "g2",
                              "embeddings": [[[0, 0], [1, 1]]]})
    answer["match_count"] = 3
    assert check(answer)


def test_corrupted_embedding_is_rejected():
    for bad in ([[0, 0], [1, 0]],      # not injective
                [[0, 0], [1, 2]],      # label C -> O and edge label 2
                [[0, 0]],              # partial
                [[0, 0], [1, 9]]):     # no such node
        answer = true_answer()
        answer["matches"][0]["embeddings"][0] = bad
        assert check(answer), bad


def test_edge_label_change_is_rejected():
    # g1's triangle has C(0)-N(2) under label 1 but no C-C edge
    # between nodes 0 and 2
    answer = true_answer()
    answer["matches"][1]["embeddings"][0] = [[0, 0], [1, 2]]
    assert check(answer)


def test_suggestion_counts():
    triples = oracle.triple_counts(REPO_NX)
    assert triples[("C", "1", "C")] == 2  # once per C-C edge
    assert triples[("C", "1", "N")] == 3
    assert triples[("N", "1", "C")] == 3
    query = oracle.to_nx(graph(["C"], []))
    right = [{"edge_label": "1", "node_label": "N", "count": 3},
             {"edge_label": "1", "node_label": "C", "count": 2}]
    assert oracle.check_suggestions(query, 0, right, triples,
                                    REPO_NX) == []
    wrong = copy.deepcopy(right)
    wrong[1]["count"] = 3
    assert oracle.check_suggestions(query, 0, wrong, triples, REPO_NX)
    unranked = list(reversed(right))
    assert oracle.check_suggestions(query, 0, unranked, triples,
                                    REPO_NX)


def test_unanswerable_suggestion_is_rejected():
    triples = {("O", "1", "N"): 0}
    query = oracle.to_nx(graph(["O"], []))
    planted = [{"edge_label": "1", "node_label": "N", "count": 0}]
    assert any("answerable" in p for p in oracle.check_suggestions(
        query, 0, planted, triples, REPO_NX))


def test_pattern_properties():
    budget = {"max_patterns": 2, "min_size": 2, "max_size": 3}
    first = {"graph": graph(["C", "C"], [(0, 1, "1")])}
    second = {"graph": graph(["C", "O"], [(0, 1, "2")])}
    assert oracle.check_patterns([first, second], budget, REPO_NX) == []
    twin = {"graph": graph(["C", "C"], [(1, 0, "1")])}
    assert any("isomorphic" in p for p in oracle.check_patterns(
        [first, twin], budget, REPO_NX))
    absent = {"graph": graph(["S", "S"], [(0, 1, "1")])}
    assert any("embeds in no" in p for p in oracle.check_patterns(
        [first, absent], budget, REPO_NX))
    assert oracle.check_patterns([first], budget, REPO_NX)
    big = {"graph": graph(["C"] * 4, [(0, 1, "1"), (1, 2, "1"),
                                      (2, 3, "1")])}
    assert oracle.check_budget([first, big], budget)
