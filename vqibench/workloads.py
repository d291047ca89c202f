"""The three closed-loop workloads against a ``repro-vqi serve`` child.

A run replays whole rounds until its measuring time is used up.  A
round starts a fresh server (one ``setup_s`` sample), replays the
workload's complete seeded script over persistent connections, and
stops the server, so every round does the same work.  Answers are
recorded during the round and checked after it, outside the timed
region: the first round against :mod:`oracle`, later rounds by
byte-equality with the first.
"""

from __future__ import annotations

import functools
import os
import random
import shutil
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import inputs as inp
import oracle
from harness import (
    WORK,
    Connection,
    OpLog,
    Server,
    dir_bytes,
    strip_volatile,
    timed_request,
)
from repro.graph.io import write_lg

#: the one-node wildcard query every repository graph answers; its
#: answer lists the served repository
ALL_GRAPHS_QUERY = {"name": "all", "nodes": [{"id": 0, "label": "*"}],
                    "edges": []}
#: budget every build request carries (the CLI default the servers
#: start with)
BUDGET = {"max_patterns": 8, "min_size": 4, "max_size": 8}
#: log-mix queries per round whose matched set is compared with the
#: networkx oracle
ORACLE_SAMPLE = 10
#: patterns of each TATTOO panel run as queries (all 8 of a CATAPULT
#: panel are)
NETWORK_PANEL_QUERIES = 4

QUERY_OPS = ("query", "session_query")
INTERACT_OPS = ("patterns", "session_create", "session_actions",
                "suggest", "session_delete")


#: ``send(op, method, path, body)`` -> answer body, or None on failure
Send = Callable[[str, str, str, Optional[Dict[str, object]]],
                Optional[Dict[str, object]]]


class RoundResult:
    """What one round measured and recorded."""

    def __init__(self) -> None:
        self.log = OpLog()
        self.setup_s = 0.0
        self.rss_mb = 0.0
        self.load_s = 0.0
        #: requests answered 200 during the load phase
        self.completed = 0
        #: (op position key, response body) in script order
        self.answers: List[Tuple[str, Dict[str, object]]] = []
        #: durations of the workload's unit task, seconds: one user
        #: journey, one maintenance batch or one build
        self.tasks: List[float] = []
        #: report-only figures named after the operation
        self.extra: Dict[str, List[float]] = {}


class Workload:
    """A workload: its seeded inputs, one round, and its checks."""

    name = "abstract"

    def __init__(self) -> None:
        self.problems: List[str] = []
        self._first: Optional[List[Tuple[str, bytes]]] = None

    def run_round(self, index: int) -> RoundResult:
        raise NotImplementedError

    def check_first(self, result: RoundResult) -> None:
        raise NotImplementedError

    def check(self, result: RoundResult) -> None:
        """Full checks on the first round; byte-equality with the
        first round's answers afterwards (the program is
        deterministic, so a replay must answer identically, up to
        the last bits of floats summed in hash order)."""
        canonical = [(key, strip_volatile(_round_floats(body)))
                     for key, body in result.answers]
        if self._first is None:
            self._first = canonical
            self.check_first(result)
            return
        if len(canonical) != len(self._first):
            self.problems.append("a later round answered a different "
                                 "number of requests")
            return
        for (key, body), (_, first) in zip(canonical, self._first):
            if body != first:
                self.problems.append(f"{key}: answer differs from the "
                                     f"first round")
                return


def _round_floats(value: object) -> object:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_round_floats(item) for item in value]
    return value


def _answered(log: OpLog) -> int:
    return sum(len(values) for values in log.samples.values())


# ------------------------------------------------------------ formulate


class Formulate(Workload):
    """Interactive read-only mix on the memory backend."""

    name = "formulate"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.inputs = inp.formulate_inputs(seed)
        self.data = os.path.join(WORK, "formulate.lg")
        write_lg(self.inputs.repository, self.data)
        self.repo_nx = [oracle.to_nx(inp.graph_dict(g))
                        for g in self.inputs.repository]
        self.names = [g.name for g in self.inputs.repository]
        self.triples = oracle.triple_counts(self.repo_nx)
        rng = random.Random(seed)
        self.oracle_keys = set()
        for conn, script in enumerate(self.inputs.scripts):
            for i in rng.sample(range(len(script)), ORACLE_SAMPLE // 2):
                self.oracle_keys.add(f"c{conn}.{i}")

    def run_round(self, index: int) -> RoundResult:
        result = RoundResult()
        server = Server(self.data, log_name=f"formulate-{index}")
        try:
            result.setup_s = server.ready_s
            conns = [Connection(server.port) for _ in
                     self.inputs.scripts]
            logs = [OpLog() for _ in conns]
            answers: List[List[Tuple[str, Dict[str, object]]]] = \
                [[] for _ in conns]
            tasks: List[List[float]] = [[] for _ in conns]
            threads = [threading.Thread(
                target=self.run_script,
                args=(c, functools.partial(timed_request, conns[c],
                                           logs[c]),
                      answers[c], tasks[c]))
                for c in range(len(conns))]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            result.load_s = time.perf_counter() - started
            for conn in conns:
                conn.close()
            result.rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        for c in range(len(logs)):
            result.log.merge(logs[c])
            result.answers.extend(answers[c])
            result.tasks.extend(tasks[c])
        result.completed = _answered(result.log)
        return result

    def run_script(self, c: int, send: Send,
                   answers: List[Tuple[str, Dict[str, object]]],
                   tasks: List[float]) -> None:
        """Replay connection ``c``'s script through ``send(op,
        method, path, body)``, which returns the answer body or None
        on failure."""
        panel = send("patterns", "GET", "/v1/patterns", None)
        if panel is None:
            return
        answers.append((f"c{c}.panel", panel))
        for i, (kind, item) in enumerate(self.inputs.scripts[c]):
            key = f"c{c}.{i}"
            if kind == "query":
                body = send("query", "POST", "/v1/query",
                            {"query": item})
                if body is not None:
                    answers.append((key, body))
            else:
                self._journey(send, key, panel, item, answers, tasks)

    def _journey(self, send: Send, key: str, panel: Dict[str, object],
                 journey: inp.Journey,
                 answers: List[Tuple[str, Dict[str, object]]],
                 tasks: List[float]) -> None:
        started = time.perf_counter()
        created = send("session_create", "POST", "/v1/sessions", {})
        if created is None:
            return
        sid = created["session"]
        actions = f"/v1/sessions/{sid}/actions"
        index = journey.pattern % len(panel["patterns"])
        dropped = send("session_actions", "POST", actions,
                       {"actions": [{"op": "add_pattern",
                                     "index": index}]})
        if dropped is None:
            return
        pairs = dropped["results"][0]
        anchor = pairs[journey.anchor % len(pairs)][1]
        record: Dict[str, object] = {
            "pattern": index, "anchor": anchor,
            "before": dropped["query"], "after": dropped["query"]}
        suggested = send("suggest", "POST", "/v1/suggest",
                         {"session": sid, "node": anchor,
                          "top_k": inp.SUGGEST_TOP_K,
                          "answerable_only": True})
        if suggested is None:
            return
        record["suggestions"] = suggested["suggestions"]
        if suggested["suggestions"]:
            top = suggested["suggestions"][0]
            added = send("session_actions", "POST", actions,
                         {"actions": [{"op": "add_node",
                                       "label": top["node_label"]}]})
            if added is None:
                return
            fresh = added["results"][0]
            joined = send("session_actions", "POST", actions,
                          {"actions": [{"op": "add_edge", "u": anchor,
                                        "v": fresh,
                                        "label": top["edge_label"]}]})
            if joined is None:
                return
            record["after"] = joined["query"]
        answered = send("session_query", "POST", "/v1/query",
                        {"session": sid})
        if answered is None:
            return
        record["answer"] = answered
        if send("session_delete", "DELETE", f"/v1/sessions/{sid}",
                None) is None:
            return
        tasks.append(time.perf_counter() - started)
        answers.append((key, record))

    def check_first(self, result: RoundResult) -> None:
        scripts = {f"c{c}.{i}": item
                   for c, script in enumerate(self.inputs.scripts)
                   for i, (_, item) in enumerate(script)}
        panel = None
        for key, body in result.answers:
            if key.endswith(".panel"):
                if panel is None:
                    panel = body
                    if body["budget"] != BUDGET:
                        self.problems.append(
                            f"{key}: served budget {body['budget']}, "
                            f"expected {BUDGET}")
                    self.problems.extend(oracle.check_patterns(
                        body["patterns"], BUDGET, self.repo_nx))
                continue
            sampled = key in self.oracle_keys
            if isinstance(scripts[key], dict):
                self.problems.extend(oracle.check_query_answer(
                    oracle.to_nx(scripts[key]), self.repo_nx,
                    self.names, body, sampled))
            else:
                self._check_journey(key, panel, body, sampled)

    def _check_journey(self, key: str, panel, record, sampled: bool
                       ) -> None:
        pattern = oracle.to_nx(
            panel["patterns"][record["pattern"]]["graph"])
        before = oracle.to_nx(record["before"])
        if not oracle.isomorphic(pattern, before):
            self.problems.append(f"{key}: the dropped pattern is not "
                                 f"the panel's pattern")
        anchor = int(record["anchor"])
        self.problems.extend(oracle.check_suggestions(
            before, anchor, record["suggestions"], self.triples,
            self.repo_nx))
        after = oracle.to_nx(record["after"])
        if record["suggestions"]:
            top = record["suggestions"][0]
            expected = oracle.extend(before, anchor, top["edge_label"],
                                     top["node_label"])
            if not oracle.isomorphic(expected, after):
                self.problems.append(f"{key}: the session query is not "
                                     f"the pattern plus the suggestion")
        self.problems.extend(oracle.check_query_answer(
            after, self.repo_nx, self.names, record["answer"],
            sampled))


# ------------------------------------------------------------- maintain


class Maintain(Workload):
    """Durable MIDAS maintenance beside reader queries, then crash
    recovery."""

    name = "maintain"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.inputs = inp.maintain_inputs(seed)
        self.data = os.path.join(WORK, "maintain.lg")
        write_lg(self.inputs.repository, self.data)
        self.bodies = [inp.batch_body(b) for b in self.inputs.batches]
        self.known = {g.name: oracle.to_nx(inp.graph_dict(g))
                      for g in self.inputs.repository}
        for batch in self.inputs.batches:
            for g in batch.added:
                self.known[g.name] = oracle.to_nx(inp.graph_dict(g))
        self.reader_nx = [oracle.to_nx(query) for _, query
                          in self.inputs.reader_queries]
        self._reader_answers: List[Tuple[int, Dict[str, object]]] = []
        self._reader_panels: List[Dict[str, object]] = []

    def run_round(self, index: int) -> RoundResult:
        result = RoundResult()
        store = os.path.join(WORK, f"store-{index}")
        shutil.rmtree(store, ignore_errors=True)
        server = Server(self.data, store=store,
                        log_name=f"maintain-{index}")
        try:
            result.setup_s = server.ready_s
            writer, reader = Connection(server.port), \
                Connection(server.port)
            wlog, rlog = OpLog(), OpLog()
            done = threading.Event()
            reads: List[Tuple[int, Dict[str, object]]] = []
            panels: List[Dict[str, object]] = []
            writes: List[Tuple[str, Dict[str, object]]] = []
            thread = threading.Thread(target=self._read,
                                      args=(reader, rlog, done, reads,
                                            panels))
            started = time.perf_counter()
            thread.start()
            try:
                self._write(writer, wlog, writes, result.tasks)
            finally:
                done.set()
                thread.join()
            result.load_s = time.perf_counter() - started
            reader.close()
            writer.close()
            result.rss_mb = server.peak_rss_mb()
            result.log.merge(wlog)
            result.log.merge(rlog)
            result.completed = _answered(result.log)
            result.answers.extend(writes)
            self._reader_answers = reads
            self._reader_panels = panels
            server = self._reboots(server, store, index, result)
        finally:
            server.stop()
        result.extra["store_mb"] = [dir_bytes(store) / 1e6]
        shutil.rmtree(store, ignore_errors=True)
        return result

    def _write(self, conn: Connection, log: OpLog,
               writes: List[Tuple[str, Dict[str, object]]],
               tasks: List[float]) -> None:
        for i, body in enumerate(self.bodies):
            started = time.perf_counter()
            report = timed_request(conn, log, "maintain", "POST",
                                   "/v1/patterns/maintain", body)
            if report is None:
                return
            tasks.append(time.perf_counter() - started)
            served = timed_request(conn, log, "verify", "POST",
                                   "/v1/query",
                                   {"query": ALL_GRAPHS_QUERY,
                                    "max_embeddings": 1})
            panel = timed_request(conn, log, "patterns", "GET",
                                  "/v1/patterns")
            if served is None or panel is None:
                return
            writes.append((f"batch{i}", {"report": report["report"],
                                         "served": served,
                                         "panel": panel}))

    def _read(self, conn: Connection, log: OpLog,
              done: threading.Event,
              reads: List[Tuple[int, Dict[str, object]]],
              panels: List[Dict[str, object]]) -> None:
        queries = self.inputs.reader_queries
        i = 0
        while not done.is_set():
            position = i % len(queries)
            body = timed_request(conn, log, "query", "POST",
                                 "/v1/query",
                                 {"query": queries[position][1]})
            if body is not None:
                reads.append((position, body))
            i += 1
            if i % inp.READER_PANEL_EVERY == 0:
                panel = timed_request(conn, log, "patterns", "GET",
                                      "/v1/patterns")
                if panel is not None:
                    panels.append(panel)

    def _reboots(self, server: Server, store: str, index: int,
                 result: RoundResult) -> Server:
        """``kill -9`` then reboot from the store, several times; the
        panel after each reboot must equal the one before, bitwise."""
        recover: List[float] = []
        for cycle in range(inp.REBOOTS):
            conn = Connection(server.port)
            before = timed_request(conn, result.log, "reboot_panel",
                                   "GET", "/v1/patterns")
            conn.close()
            started = time.perf_counter()
            server.kill()
            server = Server(self.data, store=store,
                            log_name=f"maintain-{index}")
            recover.append(time.perf_counter() - started)
            conn = Connection(server.port)
            after = timed_request(conn, result.log, "reboot_panel",
                                  "GET", "/v1/patterns")
            conn.close()
            if before is None or after is None:
                continue
            if strip_volatile(before) != strip_volatile(after):
                self.problems.append(f"reboot {cycle}: /v1/patterns "
                                     f"changed across kill -9")
        result.extra["recover_s"] = recover
        return server

    def check_first(self, result: RoundResult) -> None:
        majors = 0
        for i, (key, body) in enumerate(result.answers):
            report = body["report"]
            if report["kind"] == "major":
                majors += 1
            if report["score_after"] < report["score_before"]:
                self.problems.append(f"{key}: score fell from "
                                     f"{report['score_before']} to "
                                     f"{report['score_after']}")
            served = [m["graph_name"] for m in
                      sorted(body["served"]["matches"],
                             key=lambda m: m["graph_index"])]
            if served != self.inputs.expected_names[i]:
                self.problems.append(f"{key}: the served repository "
                                     f"differs from the model")
            self.problems.extend(oracle.check_budget(
                body["panel"]["patterns"], BUDGET))
        if majors == 0:
            self.problems.append("no batch was classified major")

    def check(self, result: RoundResult) -> None:
        super().check(result)
        # reader answers depend on which snapshot each query met, so
        # every round's are checked against the graphs themselves
        for position, body in self._reader_answers:
            source = self.inputs.reader_queries[position][0]
            query = self.reader_nx[position]
            names = [m["graph_name"] for m in body["matches"]]
            if source not in names:
                self.problems.append(f"a reader query missed its "
                                     f"source graph {source}")
            for match in body["matches"]:
                target = self.known.get(match["graph_name"])
                if target is None:
                    self.problems.append(f"unknown graph "
                                         f"{match['graph_name']}")
                    continue
                for pairs in match["embeddings"]:
                    self.problems.extend(oracle.check_embedding(
                        query, target, pairs))
        for panel in self._reader_panels:
            self.problems.extend(f"a reader's panel: {p}" for p in
                                 oracle.check_budget(panel["patterns"],
                                                     BUDGET))
        self._reader_answers = []
        self._reader_panels = []


# ---------------------------------------------------------------- build


class Build(Workload):
    """Alternating CATAPULT and TATTOO builds, each followed by the
    front end reloading the panel and querying its patterns."""

    name = "build"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.inputs = inp.build_inputs(seed)
        self.data = os.path.join(WORK, "build.lg")
        write_lg(self.inputs.served, self.data)
        self.repo_nx = [[oracle.to_nx(inp.graph_dict(g)) for g in repo]
                        for repo in self.inputs.repositories]
        self.net_nx = [oracle.to_nx(inp.graph_dict(net))
                       for net in self.inputs.networks]
        self.request_bodies = []
        for kind, index in self.inputs.script:
            body: Dict[str, object] = {"config": {"budget": BUDGET}}
            if kind == "catapult":
                body["repository"] = [
                    inp.graph_dict(g)
                    for g in self.inputs.repositories[index]]
            else:
                body["network"] = inp.graph_dict(
                    self.inputs.networks[index])
            self.request_bodies.append(body)

    def run_round(self, index: int) -> RoundResult:
        result = RoundResult()
        server = Server(self.data, log_name=f"build-{index}")
        try:
            result.setup_s = server.ready_s
            conn = Connection(server.port)
            started = time.perf_counter()
            for step, ((kind, _), body) in enumerate(
                    zip(self.inputs.script, self.request_bodies)):
                self._step(conn, result, step, kind, body)
            result.load_s = time.perf_counter() - started
            result.completed = _answered(result.log)
            conn.close()
            result.rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        return result

    def _step(self, conn: Connection, result: RoundResult, step: int,
              kind: str, body: Dict[str, object]) -> None:
        started = time.perf_counter()
        built = timed_request(conn, result.log, f"{kind}_build", "POST",
                              "/v1/build", body)
        if built is None:
            return
        elapsed = time.perf_counter() - started
        result.tasks.append(elapsed)
        result.extra.setdefault(f"{kind}_build_s", []).append(elapsed)
        panel = timed_request(conn, result.log, "patterns", "GET",
                              "/v1/patterns")
        if panel is None:
            return
        answers = []
        for pattern in _queried(kind, panel["patterns"]):
            answer = timed_request(conn, result.log, "query", "POST",
                                   "/v1/query",
                                   {"query": pattern["graph"]})
            if answer is not None:
                answers.append(answer)
        result.answers.append((f"step{step}", {
            "patterns": built["patterns"], "panel": panel["patterns"],
            "answers": answers}))

    def check_first(self, result: RoundResult) -> None:
        for key, body in result.answers:
            # a failed step records no answer, so the script position
            # is read from the key, not from the list position
            kind, index = self.inputs.script[int(key[len("step"):])]
            data = self.repo_nx[index] if kind == "catapult" \
                else [self.net_nx[index]]
            graphs = self.inputs.repositories[index] \
                if kind == "catapult" else [self.inputs.networks[index]]
            names = [g.name for g in graphs]
            self.problems.extend(f"{key}: {p}" for p in
                                 oracle.check_patterns(
                                     body["patterns"], BUDGET, data))
            if body["panel"] != body["patterns"]:
                self.problems.append(f"{key}: the served panel is not "
                                     f"the built pattern set")
            if len(body["answers"]) != len(_queried(kind,
                                                    body["patterns"])):
                self.problems.append(f"{key}: a pattern query failed")
            for number, (pattern, answer) in enumerate(
                    zip(body["patterns"], body["answers"])):
                if answer["match_count"] < 1:
                    self.problems.append(f"{key}: pattern {number} "
                                         f"matches nothing")
                self.problems.extend(oracle.check_query_answer(
                    oracle.to_nx(pattern["graph"]), data, names, answer,
                    oracle=(kind == "catapult" and number == 0)))


def _queried(kind: str, patterns: list) -> list:
    """The panel patterns run as queries after a build.  Queries on a
    network answer more slowly than on a repository; taking fewer of
    them keeps the query median inside one of the two groups instead
    of on the boundary between them."""
    return patterns if kind == "catapult" \
        else patterns[:NETWORK_PANEL_QUERIES]


WORKLOADS = {cls.name: cls for cls in (Formulate, Maintain, Build)}


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[8]
