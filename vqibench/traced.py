"""The traced run: per-layer metrics, measured in process.

The benchmark times calls into each layer's public functions from
this file, recording spans (name, start, end, parent) in memory and
writing them to ``.traces/`` at the end.  It also reads the stage
spans the pipelines emit under ``PipelineConfig(trace=True)`` and
takes counts from :func:`repro.obs.snapshot` — the registry
``/v1/metrics`` serves — around each pass.  Every pass is serial and
starts from an empty match cache, so each count repeats exactly for
a given seed.

Three passes, each on the inputs of the workload whose end-to-end
metrics its layers move (README.md maps them):

* formulate: the formulate script through ``PatternService.dispatch``
  and again over a keep-alive HTTP connection, then the query
  engine, matcher, suggester and session actions called directly;
* build: the build script's ``/v1/build`` requests with tracing on;
* maintain: MIDAS on a warm engine, then the durable service's
  maintenance path with its store calls timed and ``os.fsync``
  counted.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import inputs as inp
import oracle
from harness import HERE, WORK, Connection, RequestFailed, dir_bytes
from workloads import BUDGET, Formulate
from repro import obs
from repro.core.pipeline import PipelineConfig, run_midas
from repro.graph.io import graph_from_dict
from repro.matching.isomorphism import SubgraphMatcher
from repro.service import wire
from repro.service.app import DEFAULT_BUDGET, PatternService
from repro.service.server import serve_in_thread
from repro.store import DiskBackend

TRACE_DIR = os.path.join(HERE, ".traces")
#: embeddings kept per graph, as the service's default pipeline does
MAX_EMBEDDINGS = 30
#: cold store loads timed after the durable pass
STORE_LOADS = 5


class Recorder:
    """In-memory spans of the main thread: id, name, start, end and
    the id of the enclosing span."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record: Dict[str, object] = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [span["end"] - span["start"] for span in self.spans
                if span["name"] == name]

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as a span."""
        original = getattr(owner, attribute)

        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, timed)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def _stage_seconds(records: List[Dict[str, object]],
                   totals: Dict[str, float]) -> None:
    """Add up the durations of pipeline-emitted spans by name."""
    for record in records:
        name = str(record["name"])
        totals[name] = totals.get(name, 0.0) + float(record["duration"])
        _stage_seconds(record["children"], totals)


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000


class TracedRun:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rec = Recorder()
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def dispatch(self, service: PatternService, method: str, path: str,
                 body: Optional[Dict[str, object]] = None,
                 span: str = "service.dispatch"
                 ) -> Optional[Dict[str, object]]:
        self.attempted += 1
        with self.rec.span(span):
            reply = service.dispatch(method, path, body=body or {})
        if reply.status != 200:
            self.failed += 1
            self.problems.append(f"{method} {path}: HTTP {reply.status}")
            return None
        # JSON types, as a client over the wire sees them
        return json.loads(wire.dumps(reply.body))

    # ------------------------------------------------------- formulate

    def formulate(self) -> None:
        workload = Formulate(self.seed)
        service = PatternService(workload.inputs.repository,
                                 PipelineConfig(budget=DEFAULT_BUDGET))
        try:
            answers: List = []

            def in_process(op, method, path, body):
                return self.dispatch(service, method, path, body)

            for c in range(len(workload.inputs.scripts)):
                workload.run_script(c, in_process, answers, [])
            dispatched = self.rec.durations("service.dispatch")
            over_http = self._over_http(service, workload)
            if len(over_http) != len(dispatched):
                self.problems.append("the HTTP pass sent a different "
                                     "number of requests")
            self.put("service.dispatch_p50_ms", _median_ms(dispatched),
                     "ms")
            self.put("service.transport_p50_ms", _median_ms(
                [h - d for h, d in zip(over_http, dispatched)]), "ms")
            snapshot = service.snapshots.current()
            queries = [graph_from_dict(item)
                       for script in workload.inputs.scripts
                       for kind, item in script if kind == "query"]
            queries += [graph_from_dict(body["after"])
                        for key, body in answers
                        if isinstance(body, dict) and "after" in body]
            self._engine(snapshot, queries)
            self._interactions(service, snapshot, workload)
        finally:
            service.close()

    def _over_http(self, service: PatternService,
                   workload: Formulate) -> List[float]:
        """The same script over one keep-alive connection; the
        per-request wall times."""
        server, thread = serve_in_thread(service)
        times: List[float] = []
        conn = Connection(server.server_address[1])

        def over_wire(op, method, path, body):
            self.attempted += 1
            started = time.perf_counter()
            try:
                status, reply = conn.request(method, path, body)
            except RequestFailed as exc:
                self.failed += 1
                self.problems.append(str(exc))
                return None
            times.append(time.perf_counter() - started)
            if status != 200:
                self.failed += 1
                self.problems.append(f"{method} {path}: HTTP {status}")
                return None
            return reply

        try:
            for c in range(len(workload.inputs.scripts)):
                workload.run_script(c, over_wire, [], [])
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)
        return times

    def _engine(self, snapshot, queries) -> None:
        obs.reset(clear_cache_entries=True)
        searched = matched = 0
        for query in queries:
            self.attempted += 1
            with self.rec.span("query.engine_run"):
                result = snapshot.engine.run(
                    query, max_embeddings_per_graph=MAX_EMBEDDINGS)
            searched += result.graphs_searched
            matched += result.match_count()
        kernel = obs.snapshot()["matching"]
        self.put("query.engine_run_p50_ms",
                 _median_ms(self.rec.durations("query.engine_run")), "ms")
        self.put("query.graphs_searched", searched, "count")
        self.put("query.graphs_matched", matched, "count")
        self.put("matching.feasibility_checks",
                 kernel["feasibility_checks"], "count")
        self.put("matching.recursive_calls", kernel["recursive_calls"],
                 "count")
        for query in queries:
            for index in snapshot.engine.candidate_graphs(query):
                target = snapshot.engine.repository[index]
                with self.rec.span("matching.setup"):
                    matcher = SubgraphMatcher(query, target)
                with self.rec.span("matching.search"):
                    list(matcher.iter_embeddings(
                        max_results=MAX_EMBEDDINGS))
        self.put("matching.setup_ms",
                 sum(self.rec.durations("matching.setup")) * 1000, "ms")
        self.put("matching.search_ms",
                 sum(self.rec.durations("matching.search")) * 1000, "ms")

    def _interactions(self, service, snapshot, workload) -> None:
        """Session actions and answerable suggestions, called
        directly, for every journey of the script."""
        panel = len(snapshot.patterns)
        for script in workload.inputs.scripts:
            for kind, journey in script:
                if kind != "journey":
                    continue
                self.attempted += 1
                session = service.sessions.create(snapshot)
                with self.rec.span("query.session_action"):
                    pairs = session.apply_action(
                        {"op": "add_pattern",
                         "index": journey.pattern % panel})
                anchor = pairs[journey.anchor % len(pairs)][1]
                with self.rec.span("query.suggest"):
                    ranked = snapshot.suggester.suggest_for_query(
                        session.builder, anchor,
                        top_k=inp.SUGGEST_TOP_K, answerable_only=True)
                if ranked:
                    edge_label, node_label, _ = ranked[0]
                    with self.rec.span("query.session_action"):
                        fresh = session.apply_action(
                            {"op": "add_node", "label": node_label})
                    with self.rec.span("query.session_action"):
                        session.apply_action(
                            {"op": "add_edge", "u": anchor, "v": fresh,
                             "label": edge_label})
                service.sessions.remove(session.session_id)
        self.put("query.suggest_p50_ms",
                 _median_ms(self.rec.durations("query.suggest")), "ms")
        self.put("query.session_action_p50_ms", _median_ms(
            self.rec.durations("query.session_action")), "ms")

    # ----------------------------------------------------------- build

    def build(self) -> Dict[str, int]:
        inputs = inp.build_inputs(self.seed)
        service = PatternService(inputs.served,
                                 PipelineConfig(budget=DEFAULT_BUDGET))
        self.rec.wrap(service.snapshots, "swap",
                      "service.snapshot_swap")
        obs.reset(clear_cache_entries=True)
        stages: Dict[str, float] = {}
        try:
            for kind, index in inputs.script:
                body: Dict[str, object] = {
                    "config": {"budget": BUDGET, "trace": True}}
                if kind == "catapult":
                    graphs = inputs.repositories[index]
                    body["repository"] = [inp.graph_dict(g)
                                          for g in graphs]
                else:
                    graphs = [inputs.networks[index]]
                    body["network"] = inp.graph_dict(graphs[0])
                reply = self.dispatch(service, "POST", "/v1/build", body,
                                      span=f"{kind}.build")
                if reply is None:
                    continue
                _stage_seconds(reply["trace"]["traces"], stages)
                self.problems.extend(oracle.check_budget(
                    reply["patterns"], BUDGET))
        finally:
            service.close()
        for name in ("catapult.cluster", "catapult.summarize",
                     "catapult.candidates", "catapult.select",
                     "clustering.distance_matrix", "tattoo.decompose",
                     "tattoo.extract", "tattoo.select"):
            if name not in stages:
                self.problems.append(f"no {name} span in the build "
                                     f"traces")
            self.put(f"{name}_s", stages.get(name, 0.0), "s")
        data = obs.snapshot()
        kernel = data["matching"]
        counters = data["counters"]
        self.put("matching.vf2_calls", kernel["vf2_calls"], "count")
        self.put("matching.canonical_memo_hits",
                 kernel["canonical_memo_hits"], "count")
        self.put("matching.canonical_memo_misses",
                 kernel["canonical_memo_misses"], "count")
        for name in ("patterns.greedy.evaluations",
                     "patterns.greedy.lazy_hits",
                     "patterns.coverage.pairs",
                     "patterns.coverage.pairs_pruned"):
            self.put(name, counters.get(name, 0), "count")
        return {key: kernel[key] for key in ("hits", "misses",
                                             "evictions")}

    # -------------------------------------------------------- maintain

    def maintain(self) -> Dict[str, int]:
        inputs = inp.maintain_inputs(self.seed)
        obs.reset(clear_cache_entries=True)
        engine = run_midas(inputs.repository,
                           PipelineConfig(budget=DEFAULT_BUDGET,
                                          trace=True))
        stages: Dict[str, float] = {}
        for batch in inputs.batches:
            self.attempted += 1
            with self.rec.span("midas.apply_batch"):
                report = engine.apply_batch(batch)
            _stage_seconds([report.trace], stages)
            if report.score_after < report.score_before:
                self.problems.append("a MIDAS batch lowered the score")
        cache = obs.snapshot()["matching"]
        counts = {key: cache[key] for key in ("hits", "misses",
                                              "evictions")}
        self.put("midas.apply_batch_s", statistics.median(
            self.rec.durations("midas.apply_batch")), "s")
        self.put("midas.update_s", stages.get("midas.update", 0.0), "s")
        self.put("midas.swap_s", stages.get("midas.swap", 0.0), "s")
        self._durable(inp.maintain_inputs(self.seed))
        return counts

    def _durable(self, inputs: inp.MaintainInputs) -> None:
        """The durable service's maintenance path, timed at the store
        and engine calls it makes per batch."""
        store = os.path.join(WORK, "traced-store")
        service = PatternService(inputs.repository,
                                 PipelineConfig(budget=DEFAULT_BUDGET),
                                 backend=DiskBackend(store))
        self.rec.wrap(service, "ensure_midas", "midas.init")
        self.rec.wrap(service.backend, "log_batch", "store.log_batch")
        self.rec.wrap(service.backend, "commit", "store.commit")
        self.rec.wrap(service.snapshots, "swap", "service.snapshot_swap")
        fsyncs = [0]
        real_fsync = os.fsync

        def counting_fsync(fd: int) -> None:
            fsyncs[0] += 1
            real_fsync(fd)

        booted = dir_bytes(store)
        os.fsync = counting_fsync
        try:
            for batch in inputs.batches:
                self.dispatch(service, "POST", "/v1/patterns/maintain",
                              inp.batch_body(batch))
        finally:
            os.fsync = real_fsync
            service.close()
        batches = len(inputs.batches)
        self.put("midas.init_s", statistics.median(
            self.rec.durations("midas.init")), "s")
        self.put("store.log_batch_ms",
                 _median_ms(self.rec.durations("store.log_batch")), "ms")
        self.put("store.commit_ms",
                 _median_ms(self.rec.durations("store.commit")), "ms")
        self.put("store.fsyncs_per_batch", fsyncs[0] / batches, "count")
        self.put("store.bytes_per_batch",
                 (dir_bytes(store) - booted) / batches, "B")
        for _ in range(STORE_LOADS):
            backend = DiskBackend(store)
            with self.rec.span("store.load"):
                state = backend.load()
            backend.close()
            if state is None:
                self.problems.append("the store loaded empty")
        self.put("store.load_ms",
                 _median_ms(self.rec.durations("store.load")), "ms")
        self.put("service.snapshot_swap_ms", _median_ms(
            self.rec.durations("service.snapshot_swap")), "ms")


def traced_run(seed: int) -> Dict[str, object]:
    run = TracedRun(seed)
    with run.rec.span("traced_run"):
        with run.rec.span("pass.formulate"):
            run.formulate()
        with run.rec.span("pass.build"):
            build_cache = run.build()
        with run.rec.span("pass.maintain"):
            maintain_cache = run.maintain()
    for key in ("hits", "misses", "evictions"):
        run.put(f"perf.cache_{key}",
                build_cache[key] + maintain_cache[key], "count")
    run.rec.write(os.path.join(TRACE_DIR, f"spans-seed{seed}.json"))
    for problem in run.problems[:20]:
        print(f"CHECK FAILED {problem}")
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": run.metrics}
