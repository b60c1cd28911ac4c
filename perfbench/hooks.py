"""Timing hooks installed around the program's public calls, from outside.

Nothing under ``src/`` knows it is measured: :func:`install_marks` puts
two cheap wrappers in place for the untraced run (per-instance link
latency and the first accepted query), and :func:`install_spans` wraps
every layer boundary the per-layer metrics need. Each layer is one of
the repository's modules; a span name starts with its layer.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import spans as spanlib

__all__ = ["Marks", "install_http_spans", "install_marks", "install_spans", "layer_of"]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Marks:
    """What the end-to-end metrics need from inside the process."""

    def __init__(self):
        self.link_calls: "list[tuple[float, float]]" = []
        self.first_query: "float | None" = None
        self.lock = threading.Lock()


def _patch(owner: type, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``, keeping classmethods."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install_marks(marks: Marks) -> None:
    """Per-call link latency and the first ``ServeApp.query`` entry."""
    from repro.core.pipeline import RTSPipeline
    from repro.runtime.serve import ServeApp

    def timed_link(fn):
        def link(*args, **kwargs):
            start = time.monotonic()
            result = fn(*args, **kwargs)
            marks.link_calls.append((start, time.monotonic()))
            return result

        return link

    def first_query(fn):
        def query(*args, **kwargs):
            now = time.monotonic()
            with marks.lock:
                if marks.first_query is None:
                    marks.first_query = now
            return fn(*args, **kwargs)

        return query

    _patch(RTSPipeline, "link", timed_link)
    _patch(ServeApp, "query", first_query)


def install_spans(tracer: "spanlib.Tracer") -> Counter:
    """Wrap every layer boundary; returns the counters the wrappers feed."""
    import repro.core.pipeline as pipeline_module
    import repro.linking.dataset as dataset_module
    import repro.runtime.runner as runner_module
    from repro.abstention.human import HumanOracle
    from repro.core.pipeline import RTSPipeline
    from repro.corpus.bird import BirdBuilder
    from repro.llm.model import GenerationSession, TransparentLLM
    from repro.probes.mbpp import MultiLayerBPP
    from repro.probes.mlp import MLPClassifier
    from repro.runtime.persist import PersistentGenerationCache
    from repro.runtime.pool import THREAD, WorkerPool
    from repro.runtime.remote import ProcessBackend
    from repro.runtime.runner import BatchRunner
    from repro.runtime.serve import ServeApp
    from repro.runtime.service import GenerationService
    from repro.sqlgen.generator import SqlGenerator

    counts: Counter = Counter()  # taken from call arguments and results
    lock = threading.Lock()  # request threads count concurrently

    def add(key: str, n: int) -> None:
        with lock:
            counts[key] += n

    def instance_rid(args, kwargs):
        return getattr(args[1], "instance_id", None) if len(args) > 1 else None

    def count_flags(result, args, kwargs):
        add("core.flags", result.flags)

    def count_writes(result, args, kwargs):
        if kwargs.get("miss"):
            add("persist.writes", 1)

    def count_results(result, args, kwargs):
        add("remote.results", len(result))

    def span(name, opaque=False, rid=None, after=None):
        return lambda fn: tracer.wrap(fn, name, opaque=opaque, rid=rid, after=after)

    def handing_over(fn):
        def imap_ordered(pool, work, items):
            if pool.backend == THREAD:
                work = tracer.bind(work)
            return fn(pool, work, items)

        return imap_ordered

    _patch(WorkerPool, "imap_ordered", handing_over)
    _patch(BirdBuilder, "build", span("corpus.build"))
    _patch(MultiLayerBPP, "train", span("probes.train"))
    _patch(MLPClassifier, "fit", span("probes.fit"))
    _patch(MultiLayerBPP, "is_branching", span("probes.infer"))
    # Synthesis walks a private session: its per-token calls belong to it.
    _patch(TransparentLLM, "generate", span("llm.synth.free", opaque=True))
    _patch(TransparentLLM, "teacher_forced_trace", span("llm.synth.forced", opaque=True))
    _patch(TransparentLLM, "start_session", span("llm.session.start"))
    _patch(GenerationSession, "propose", span("llm.session.propose"))
    _patch(GenerationSession, "commit", span("llm.session.commit"))
    _patch(GenerationSession, "force_token", span("llm.session.force"))
    collect = span("linking.collect")(dataset_module.collect_branch_dataset)
    for module in (dataset_module, pipeline_module, runner_module):
        module.collect_branch_dataset = collect
    _patch(RTSPipeline, "fit_task", span("core.fit"))
    _patch(RTSPipeline, "link", span("core.link", rid=instance_rid, after=count_flags))
    _patch(RTSPipeline, "link_joint", span("core.link_joint"))
    pipeline_module.trace_back = span("abstention.traceback")(pipeline_module.trace_back)
    _patch(HumanOracle, "confirm_relevance", span("abstention.human"))
    _patch(SqlGenerator, "generate", span("sqlgen.generate"))
    _patch(GenerationService, "generate", span("service.generate"))
    _patch(PersistentGenerationCache, "probe_disk", span("persist.probe"))
    _patch(PersistentGenerationCache, "record_to_trace", span("persist.read"))
    _patch(PersistentGenerationCache, "admit", span("persist.write", after=count_writes))
    _patch(ProcessBackend, "generate", span("remote.generate", after=count_results))
    _patch(ProcessBackend, "close", span("remote.close"))
    _patch(BatchRunner, "run_link", span("runner.run_link"))
    _patch(BatchRunner, "run_joint", span("runner.run_joint"))
    _patch(ServeApp, "warm", span("serve.warm"))
    _patch(ServeApp, "query", span("serve.query"))
    return counts


def install_http_spans(tracer: "spanlib.Tracer", handler_class) -> None:
    """The server side of one HTTP request, linked to the client's span
    by the ``X-Request-Id`` header the load generator sends."""
    fn = handler_class.do_POST

    def do_post(handler):
        token = tracer.open("serve.http", rid=handler.headers.get("X-Request-Id"))
        try:
            fn(handler)
        finally:
            tracer.close(token)

    handler_class.do_POST = do_post
