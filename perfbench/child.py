"""One benchmark pass in a fresh interpreter: ``eval`` or ``serve``.

``perfbench/run.py`` starts this script once per pass and reads the JSON
it writes to ``--out``. ``--launched`` is the monotonic time taken just
before this interpreter was spawned (``time.monotonic`` is one system-wide
clock on Linux), so interpreter start-up counts towards ``setup_s`` and
``run_s``.

eval
    ``ExperimentContext`` → ``BatchRunner.run_link`` over every bird dev
    column instance, abstain mode, simulator backend, one worker, against
    the generation store in ``--store``; then ``ExperimentContext.close``.
serve
    ``ServeApp.warm`` + ``ReproServer`` on ``127.0.0.1:0`` (process
    backend, unix transport, two generation workers), a closed loop of two
    stock ``http.client`` connections, server shutdown, then
    ``ExperimentContext.close``. The responses go to ``--out``.
gate
    Untimed, after the serve passes: a fresh simulator-backed
    ``ExperimentContext`` on an empty store runs the offline
    ``BatchRunner`` over every distinct query of the ``--served`` passes
    and compares each served record with its own.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import random
import resource
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hooks  # noqa: E402
import spans as spanlib  # noqa: E402
import stats  # noqa: E402

BENCHMARK = "bird"
# The corpus is the repository default. The workload seed orders the
# work instead: a different corpus moves TAR/FAR by more than any bound
# (see CATALOGUE.md).
CORPUS_SEED = 7
QUERY_MIX_SEED = 0  # fixes which distinct queries the serve workload asks
CLIENTS = 2
TASKS = ("table", "column", "joint")
MODES = ("abstain", "abstain", "human")  # abstain:human = 2:1
SPLITS = ("train", "dev", "test")
# Queries a serve pass replays: 1000 leave 10 samples beyond p99; the tiny
# corpus has too few questions for that many distinct queries.
QUERIES = {"small": 1000, "tiny": 60}

now = time.monotonic


def _scale(name: str):
    from repro.corpus.generator import CorpusScale

    return CorpusScale.tiny() if name == "tiny" else CorpusScale.small()


def _canon(record: dict) -> str:
    from repro.runtime.artifacts import strict_jsonable

    return json.dumps(strict_jsonable(record), sort_keys=True)


def _phase(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tiers(service) -> dict:
    return {name: tier.as_dict() for name, tier in service.tier_stats.items()}


# -- eval ---------------------------------------------------------------------


def eval_pass(args, tracer) -> dict:
    from repro.core.config import ABSTAIN
    from repro.experiments.common import ExperimentContext
    from repro.runtime.artifacts import strict_jsonable, summarize_link
    from repro.runtime.service import BackendSpec

    ctx = ExperimentContext(
        corpus_seed=CORPUS_SEED,
        scale=_scale(args.scale),
        workers=1,
        cache_dir=args.store,
        spec=BackendSpec(workers=1),
    )
    out: dict = {}
    try:
        runner = ctx.runner(BENCHMARK)
        instances = ctx.instances(BENCHMARK, "dev", "column")
        order = list(range(len(instances)))
        random.Random(args.seed).shuffle(order)
        start = now()
        result = runner.run_link([instances[i] for i in order], mode=ABSTAIN)
        end = now()
        canonical = [None] * len(order)
        for i, outcome in zip(order, result.outcomes):
            canonical[i] = outcome
        out.update(
            run_link=[start, end],
            n=len(instances),
            summary=json.dumps(strict_jsonable(summarize_link(canonical)), sort_keys=True),
            records={record["key"]: _canon(record) for record in result.records},
            cache=ctx.service.stats.as_dict(),
            tiers=_tiers(ctx.service),
        )
    finally:
        out["close"] = [now()]
        ctx.close()
        out["close"].append(now())
        out["peak_rss_mib"] = peak_rss_mib()
    return out


# -- serve --------------------------------------------------------------------


def build_queries(bench, n_queries: int, seed: int) -> "list[tuple[str, str, str]]":
    """``n_queries`` (question, task, mode) triples: a fixed set of
    ``n_queries // 2`` distinct ones, each asked twice, in seeded order.

    Questions are bird dev+test texts; tasks are table:column:joint 1:1:1
    and modes abstain:human 2:1. Every second ask repeats an earlier one.
    """
    texts = list(dict.fromkeys(e.question for s in ("dev", "test") for e in bench.split(s)))
    rng = random.Random(QUERY_MIX_SEED)
    distinct: "list[tuple[str, str, str]]" = []
    seen = set()
    n_distinct = n_queries // 2
    if n_distinct > len(texts) * len(TASKS) * 2:
        raise ValueError(f"only {len(texts)} distinct questions for {n_distinct} queries")
    while len(distinct) < n_distinct:
        i = len(distinct)
        query = (rng.choice(texts), TASKS[i % 3], MODES[(i // 3) % 3])
        if query not in seen:
            seen.add(query)
            distinct.append(query)
    sequence = distinct * 2
    random.Random(seed).shuffle(sequence)
    return sequence


def load(address, queries, tracer, parent) -> list:
    """Replay ``queries`` over ``CLIENTS`` keep-alive connections in a
    closed loop; ``(start, end, status, body)`` per query, in order."""
    host, port = address[:2]
    results: list = [None] * len(queries)
    cursor = iter(range(len(queries)))
    cursor_lock = threading.Lock()

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            while True:
                with cursor_lock:
                    i = next(cursor, None)
                if i is None:
                    return
                question, task, mode = queries[i]
                body = json.dumps(
                    {"benchmark": BENCHMARK, "question": question, "task": task, "mode": mode}
                ).encode("utf-8")
                rid = f"q{i}"
                token = (
                    tracer.open("serve.client", rid=rid, parent=parent, link=True)
                    if tracer is not None
                    else None
                )
                start = now()
                try:
                    conn.request(
                        "POST",
                        "/v1/query",
                        body=body,
                        headers={"Content-Type": "application/json", "X-Request-Id": rid},
                    )
                    response = conn.getresponse()
                    status, payload = response.status, response.read()
                except (OSError, http.client.HTTPException) as exc:
                    status, payload = None, repr(exc).encode("utf-8")
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=120)
                end = now()
                if tracer is not None:
                    tracer.close(token)
                results[i] = (start, end, status, payload)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, name=f"bench-client-{k}") for k in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def split_latency(results) -> "tuple[list[float], list[float]]":
    """``(handler_ms, overhead_ms)`` of the 200 responses: the server's
    ``diagnostics.latency_ms`` and the rest of the client latency."""
    handler_ms: "list[float]" = []
    overhead_ms: "list[float]" = []
    for result in results:
        if result is None or result[2] != 200:
            continue
        start, end, _status, payload = result
        latency = json.loads(payload)["diagnostics"]["latency_ms"]
        handler_ms.append(latency)
        overhead_ms.append((end - start) * 1000.0 - latency)
    return handler_ms, overhead_ms


def gate_pass(args) -> dict:
    """Compare every 200 response's ``record`` with the record the offline
    ``BatchRunner`` produces for the same example, task and mode."""
    from repro.core.config import HUMAN
    from repro.core.pipeline import RTSPipeline
    from repro.experiments.common import ExperimentContext
    from repro.runtime.service import BackendSpec

    failed = Counter()
    served: "dict[tuple, list[str]]" = defaultdict(list)
    for path in args.served:
        pass_out = json.loads(Path(path).read_text())
        for (question, task, mode), result in zip(pass_out["queries"], pass_out["responses"]):
            if result is None:
                failed["exception"] += 1
                continue
            _start, _end, status, payload = result
            if status != 200:
                failed[f"status {status}"] += 1
                continue
            body = json.loads(payload)
            if (body["question"], body["task"], body["mode"]) != (question, task, mode):
                failed["wrong query"] += 1
                continue
            served[(body["example_id"], task, mode)].append(
                json.dumps(body["record"], sort_keys=True)
            )

    ctx = ExperimentContext(
        corpus_seed=CORPUS_SEED,
        scale=_scale(args.scale),
        workers=1,
        cache_dir=args.store,
        spec=BackendSpec(workers=1),
    )
    try:
        bench = ctx.benchmark(BENCHMARK)
        runner = ctx.runner(BENCHMARK)
        by_id = {e.example_id: e for s in SPLITS for e in bench.split(s)}
        groups: "dict[tuple, list[str]]" = defaultdict(list)
        for example_id, task, mode in served:
            groups[(task, mode)].append(example_id)
        offline: dict = {}
        for (task, mode), ids in sorted(groups.items()):
            examples = [by_id[i] for i in sorted(ids)]
            human = ctx.human() if mode == HUMAN else None
            if task == "joint":
                batch = runner.run_joint(examples, bench, mode=mode, human=human)
            else:
                instances = [RTSPipeline.instance_for(e, bench, task) for e in examples]
                batch = runner.run_link(instances, mode=mode, human=human)
            for example, record, outcome in zip(examples, batch.records, batch.outcomes):
                offline[(example.example_id, task, mode)] = (_canon(record), outcome)
    finally:
        ctx.close()
    for key, records in served.items():
        reference = offline[key][0]
        failed["record mismatch"] += sum(record != reference for record in records)
    outcomes = [outcome for _record, outcome in offline.values()]
    n = max(1, len(outcomes))
    return {
        "failed": dict(failed),
        "n_distinct": len(outcomes),
        "tar": sum(o.signalled and not o.unassisted_correct for o in outcomes) / n,
        "far": sum(o.signalled and o.unassisted_correct for o in outcomes) / n,
    }


def serve_pass(args, tracer) -> dict:
    from repro.experiments.common import ExperimentContext
    from repro.runtime.serve import ReproServer, ServeApp
    from repro.runtime.service import PROCESS, UNIX_TRANSPORT, BackendSpec

    work = Path(args.work)
    spec = BackendSpec(
        kind=PROCESS,
        workers=2,
        transport=UNIX_TRANSPORT,
        # Relative to the checkout: short enough for a socket path, and
        # inside the directory the benchmark may write.
        address=f"unix:{os.path.relpath(work / 'workers.sock', ROOT)}",
        worker_log_dir=str(work / "worker-logs"),
    )
    ctx = ExperimentContext(
        corpus_seed=CORPUS_SEED,
        scale=_scale(args.scale),
        workers=2,
        cache_dir=args.store,
        spec=spec,
    )
    app = ServeApp(ctx, benchmarks=(BENCHMARK,))
    server = thread = None
    out: dict = {}
    try:
        with _phase(tracer, "bench.setup"):
            app.warm()
            server = ReproServer(("127.0.0.1", 0), app)
            if tracer is not None:
                hooks.install_http_spans(tracer, server.RequestHandlerClass)
            thread = threading.Thread(target=server.serve_forever, name="bench-http-server")
            thread.start()
            queries = build_queries(ctx.benchmark(BENCHMARK), QUERIES[args.scale], args.seed)
        with _phase(tracer, "bench.load") as load_sid:
            start = now()
            results = load(server.server_address, queries, tracer, load_sid)
            end = now()
        shutdown = [now()]
        with _phase(tracer, "serve.shutdown"):
            server.shutdown()
            server.server_close()
            thread.join()
        server = None
        shutdown.append(now())
        out.update(
            load=[start, end],
            shutdown=shutdown,
            cache=ctx.service.stats.as_dict(),
            tiers=_tiers(ctx.service),
            supervisor=ctx.service.backend.stats.as_dict(),
        )
    finally:
        if server is not None:  # the load or the shutdown failed
            if thread is not None:
                server.shutdown()
                thread.join()
            server.server_close()
        out["close"] = [now()]
        ctx.close()
        out["close"].append(now())
        out["peak_rss_mib"] = peak_rss_mib()
    # The measured pass ends at close; the rest is the benchmark's own work.
    handler_ms, overhead_ms = split_latency(results)
    out.update(
        latencies_ms=[(r[1] - r[0]) * 1000.0 for r in results if r is not None],
        handler_ms=handler_ms,
        overhead_ms=overhead_ms,
        queries=queries,
        responses=[
            None if r is None else [*r[:3], r[3].decode("utf-8", "replace")] for r in results
        ],
    )
    return out


# -- accounting ----------------------------------------------------------------


def child_processes() -> "list[str]":
    """Command lines of the processes whose parent is this one."""
    me = str(os.getpid())
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = (entry / "status").read_text()
            ppid = next(line.split()[1] for line in status.splitlines() if line.startswith("PPid:"))
            if ppid == me:
                cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
                found.append(cmdline.decode("utf-8", "replace").strip())
        except (OSError, StopIteration):
            continue  # exited while we looked
    return sorted(found)


def layer_metrics(tracer, counts, pass_out: dict, store: Path) -> dict:
    """Per-layer metrics of one traced pass (self times in seconds)."""
    spans = tracer.spans
    self_of = spanlib.self_times(spans)
    self_s: "dict[str, float]" = defaultdict(float)
    wall_s: "dict[str, float]" = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        self_s[span.name] += self_of[span.sid]
        wall_s[span.name] += span.end - span.start
        calls[span.name] += 1

    def self_sum(*names: str) -> float:
        return sum(self_s[name] for name in names)

    def count(*names: str) -> int:
        return sum(calls[name] for name in names)

    tiers = pass_out.get("tiers", {})
    memory = tiers.get("memory", {})
    lookups = memory.get("hits", 0) + memory.get("misses", 0)
    misses = pass_out.get("cache", {}).get("misses", 0)
    supervisor = pass_out.get("supervisor", {})
    n_results = counts["remote.results"]
    handler = pass_out.get("handler_ms") or [0.0]
    overhead = pass_out.get("overhead_ms") or [0.0]
    total_latency = sum(handler) + sum(overhead)
    store_bytes = sum(f.stat().st_size for f in store.rglob("*") if f.is_file())
    by_layer: "dict[str, float]" = defaultdict(float)
    for name, value in self_s.items():
        by_layer[hooks.layer_of(name)] += value
    total_self = sum(by_layer.values())
    root = [span for span in spans if span.name == "bench.pass"]
    metrics = {
        "corpus.build_s": self_sum("corpus.build"),
        "probes.train_s": self_sum("probes.train", "probes.fit"),
        "probes.n_fits": count("probes.fit"),
        "probes.infer_s": self_sum("probes.infer"),
        "probes.n_infer": count("probes.infer"),
        "llm.synth_s": self_sum("llm.synth.free", "llm.synth.forced"),
        "llm.n_traces": count("llm.synth.free", "llm.synth.forced"),
        "llm.session_s": self_sum(
            "llm.session.start", "llm.session.propose", "llm.session.commit", "llm.session.force"
        ),
        "llm.n_steps": count("llm.session.propose", "llm.session.force"),
        "linking.collect_s": self_sum("linking.collect"),
        "core.fit_s": self_sum("core.fit"),
        "core.link_s": self_sum("core.link", "core.link_joint"),
        "core.n_links": count("core.link"),
        "core.n_flags": counts["core.flags"],
        "abstention.traceback_s": self_sum("abstention.traceback", "abstention.human"),
        "abstention.n_questions": count("abstention.human"),
        "sqlgen.generate_s": self_sum("sqlgen.generate"),
        "service.generate_s": self_sum("service.generate"),
        "service.n_lookups": lookups,
        "service.memory_hits": memory.get("hits", 0),
        "service.segment_hits": tiers.get("segments", {}).get("hits", 0)
        + tiers.get("sqlite", {}).get("hits", 0),
        "service.misses": misses,
        "service.hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "persist.read_s": self_sum("persist.probe", "persist.read"),
        "persist.n_reads": count("persist.read"),
        "persist.write_s": self_sum("persist.write"),
        "persist.n_writes": counts["persist.writes"],
        "persist.store_mb": store_bytes / 2**20,
        "remote.generate_s": self_sum("remote.generate"),
        "remote.n_results": n_results,
        "remote.shm_ratio": supervisor.get("n_shm_results", 0) / n_results if n_results else 0.0,
        "remote.requeued": supervisor.get("n_requeued", 0),
        "remote.close_s": self_sum("remote.close"),
        "runner.run_link_s": self_sum("runner.run_link", "runner.run_joint"),
        "serve.warm_s": wall_s["serve.warm"],
        "serve.handler_p50_ms": stats.percentile(handler, 0.5),
        "serve.http_overhead_p50_ms": stats.percentile(overhead, 0.5),
        "serve.http_overhead_p99_ms": stats.tail(overhead),
        "serve.compute_share": sum(handler) / total_latency if total_latency else 0.0,
        "trace.wall_s": root[0].end - root[0].start if root else 0.0,
        "trace.coverage": (
            (total_self - by_layer[spanlib.HARNESS]) / total_self if total_self else 0.0
        ),
    }
    return {"metrics": metrics, "self_s_by_layer": dict(by_layer), "n_spans": len(spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("eval", "serve", "gate"), required=True)
    parser.add_argument("--store", required=True, help="generation store directory")
    parser.add_argument("--work", required=True, help="scratch directory of this run")
    parser.add_argument("--out", required=True, help="where to write the pass result")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny", "small"), default="small")
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--served", action="append", default=[],
                        help="gate: a serve pass result to check (repeatable)")
    args = parser.parse_args(argv)

    if args.workload == "gate":
        Path(args.out).write_text(json.dumps(gate_pass(args)))
        return 0

    marks = hooks.Marks()
    hooks.install_marks(marks)
    tracer = counts = None
    if args.trace:
        tracer = spanlib.Tracer()
        counts = hooks.install_spans(tracer)
    started = now()
    run = eval_pass if args.workload == "eval" else serve_pass
    with _phase(tracer, "bench.pass"):
        out = run(args, tracer)
    threads = sorted(t.name for t in threading.enumerate() if t is not threading.main_thread())
    out.update(
        launched=args.launched,
        started=started,
        first_query=marks.first_query,
        link_calls=marks.link_calls,
        teardown={"threads": threads, "processes": child_processes()},
    )
    if tracer is not None:
        out["trace"] = layer_metrics(tracer, counts, out, Path(args.store))
        out["trace"]["metrics"]["remote.leaked_threads"] = sum(
            name.startswith("generation-") for name in threads
        )
        spanlib.dump(tracer.spans, Path(args.work) / f"spans-{args.workload}.jsonl")
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
