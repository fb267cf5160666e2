"""Out-of-program tracing for the end-to-end benchmark.

:func:`install` wraps public functions of the ``src/repro`` modules in
the calling process, so every call records a span (name, start, end,
parent, pid, thread) on the system-wide monotonic clock plus counts at
the same boundary.  Nothing under ``src/`` knows it is traced: the
wrappers replace module and class attributes, and a function imported
by name into another module is replaced there too.

Spans stay in memory.  Work that runs in forked pool workers records
into a per-task buffer that rides back on the task result (see
:func:`traced_train_chunk`); the ``map_tasks`` wrapper splices it under
its own span.  :func:`layer_metrics` turns spans and counts into the
per-layer numbers named in ``BENCHMARK.json``.

Span names are ``<module>:<function>`` with the module relative to
``repro``, so a layer's self time is the sum over the spans of its
module.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

#: Module (layer) of every span name; self time is reported per entry.
MODULES = (
    "core.ip2vec", "core.preprocess", "core.flow_encoder", "core.netshare",
    "core.postprocess", "gan.doppelganger", "runtime.executor",
    "runtime.chunk_tasks", "serve",
)

MAP_TASKS = "runtime.executor:map_tasks"
TASKS = ("runtime.chunk_tasks:train_chunk",
         "runtime.chunk_tasks:generate_chunk")


class Tracer:
    """In-memory span and count recorder shared by every thread."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Record one span; yields its id so callers can parent others."""
        stack = self._stack()
        span_id = f"{os.getpid()}-{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield span_id
        finally:
            end = time.monotonic()
            stack.pop()
            record = {"id": span_id, "parent": parent, "name": name,
                      "start": start, "end": end, "pid": os.getpid(),
                      "tid": threading.get_ident()}
            if attrs:
                record["attrs"] = attrs
            self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def absorb(self, payload: Dict[str, Any], parent: Optional[str]) -> None:
        """Splice spans recorded elsewhere; their roots hang under
        ``parent``."""
        for record in payload.get("spans", []):
            if record["parent"] is None:
                record["parent"] = parent
            self.spans.append(record)
        with self._lock:
            self.counts.update(payload.get("counts", {}))

    def dump(self, path, **extra: Any) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       **extra}, handle)


TRACER: Optional[Tracer] = None


def _traced(name: str, original: Callable,
            after: Optional[Callable] = None) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with TRACER.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return traced


def _wrap_method(cls, attr: str, name: str,
                 after: Optional[Callable] = None) -> None:
    setattr(cls, attr, _traced(name, getattr(cls, attr), after))


def _wrap_function(original: Callable, name: str) -> None:
    """Replace ``original`` in every ``repro`` module that binds it."""
    traced = _traced(name, original)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, traced)


def _steps_wrapper(name: str, counter: str, original: Callable) -> Callable:
    """DoppelGANger training: a span plus the optimizer steps it ran."""
    @functools.wraps(original)
    def traced(model, *args, **kwargs):
        before = model.log.steps
        with TRACER.span(name):
            result = original(model, *args, **kwargs)
        TRACER.count(counter, model.log.steps - before)
        return result
    return traced


def _map_tasks_wrapper(original: Callable) -> Callable:
    @functools.wraps(original)
    def map_tasks(executor, fn, tasks):
        tasks = list(tasks)
        bytes_before = executor.dispatch_bytes or 0
        tasks_before = executor.dispatch_tasks
        with TRACER.span(MAP_TASKS, jobs=executor.jobs) as span_id:
            results = original(executor, fn, tasks)
        TRACER.count("runtime.dispatch_bytes",
                     (executor.dispatch_bytes or 0) - bytes_before)
        TRACER.count("runtime.dispatch_tasks",
                     executor.dispatch_tasks - tasks_before)
        for result in results:
            payload = getattr(result, "__dict__", {}).pop("bench_trace", None)
            if payload is not None:
                TRACER.absorb(payload, span_id)
        return results
    return map_tasks


def _run_task(name: str, fn: Callable, task):
    """Run one task function under a span.  In a pool worker the span
    (and everything traced inside it) goes into a fresh buffer that
    rides back on the result as ``bench_trace``."""
    tracer = TRACER
    if os.getpid() == tracer.pid:
        with tracer.span(name):
            return fn(task)
    saved = tracer.spans, tracer.counts
    tracer.spans, tracer.counts = [], Counter()
    tracer._local = threading.local()
    try:
        with tracer.span(name):
            result = fn(task)
        result.bench_trace = {"spans": tracer.spans,
                              "counts": dict(tracer.counts)}
    finally:
        tracer.spans, tracer.counts = saved
    return result


# Module-level so pool workers unpickle them by name (workers are
# forked after install(), so this module is already imported there).
def traced_train_chunk(task):
    from repro.runtime import chunk_tasks
    return _run_task(TASKS[0], chunk_tasks.train_chunk, task)


def traced_generate_chunk(task):
    from repro.runtime import chunk_tasks
    return _run_task(TASKS[1], chunk_tasks.generate_chunk, task)


def install() -> Tracer:
    """Create the process tracer and wrap the ``repro`` layers."""
    global TRACER
    from repro.core import flow_encoder, ip2vec, netshare, postprocess, \
        preprocess
    from repro.gan import doppelganger
    from repro.runtime import chunk_tasks, executor
    # Importing the package binds every from-imported name (daemon,
    # client) before _wrap_function scans sys.modules.
    from repro.serve import coalescer, protocol

    TRACER = Tracer()
    tracer = TRACER

    def count_decoded(result, *args, **kwargs):
        tracer.count("flow_encoder.decoded_records", len(result))

    def count_sampled(result, model, n, *args, **kwargs):
        tracer.count("gan.sampled_flows", n)

    def count_session(result, session):
        tracer.count("generate.sessions")
        tracer.count("generate.rounds", len(session.rounds_log))
        tracer.count("generate.decoded", session.produced)
        tracer.count("generate.returned", len(result))

    _wrap_method(ip2vec.IP2Vec, "fit", "core.ip2vec:IP2Vec.fit")
    _wrap_function(preprocess.split_into_flows,
                   "core.preprocess:split_into_flows")
    _wrap_function(preprocess.chunk_flows, "core.preprocess:chunk_flows")
    encoder = flow_encoder.FlowTensorEncoder
    _wrap_method(encoder, "encode_chunk",
                 "core.flow_encoder:FlowTensorEncoder.encode_chunk")
    _wrap_method(encoder, "decode",
                 "core.flow_encoder:FlowTensorEncoder.decode", count_decoded)
    _wrap_method(netshare.NetShare, "fit", "core.netshare:NetShare.fit")
    _wrap_method(netshare.NetShare, "generate",
                 "core.netshare:NetShare.generate")
    _wrap_method(netshare.GenerateSession, "finish",
                 "core.netshare:GenerateSession.finish", count_session)
    _wrap_function(postprocess.finalize_flow_trace,
                   "core.postprocess:finalize_flow_trace")
    _wrap_function(postprocess.finalize_packet_trace,
                   "core.postprocess:finalize_packet_trace")
    gan = doppelganger.DoppelGANger
    # fine_tune() trains through fit(), so wrapping fit covers both.
    gan.fit = _steps_wrapper("gan.doppelganger:DoppelGANger.fit",
                             "gan.train_steps", gan.fit)
    gan.fit_dp = _steps_wrapper("gan.doppelganger:DoppelGANger.fit_dp",
                                "gan.dp_train_steps", gan.fit_dp)
    _wrap_method(gan, "generate", "gan.doppelganger:DoppelGANger.generate",
                 count_sampled)
    for cls in (executor.SerialExecutor, executor.MultiprocessingExecutor):
        cls.map_tasks = _map_tasks_wrapper(cls.map_tasks)
    _wrap_function(chunk_tasks.freeze_state,
                   "runtime.chunk_tasks:freeze_state")
    netshare.train_chunk = traced_train_chunk
    netshare.generate_chunk = traced_generate_chunk
    coalescer.generate_chunk = traced_generate_chunk
    _wrap_function(coalescer.run_generation_batch,
                   "serve:run_generation_batch")
    _wrap_function(protocol.trace_to_payload, "serve:trace_to_payload")
    _wrap_function(protocol.payload_to_trace, "serve:payload_to_trace")
    return tracer


# ----------------------------------------------------------------------
# From spans and counts to per-layer metrics.

def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the union of its children's intervals
    (children clipped to the parent; parallel children overlap)."""
    children: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in spans:
        if record["parent"] is not None:
            children[record["parent"]].append(record)
    out = {}
    for record in spans:
        start, end = record["start"], record["end"]
        covered, cursor = 0.0, start
        for child in sorted(children.get(record["id"], ()),
                            key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[record["id"]] = (end - start) - covered
    return out


def _ratio(numerator: float, denominator: float) -> float:
    """0 when the layer did no work on this workload."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: List[Dict[str, Any]], counts: Dict[str, float],
                  telemetry_counters: Dict[str, float],
                  serve_stats: Dict[str, float]) -> Dict[str, float]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` (see README)."""
    total: Dict[str, float] = defaultdict(float)
    for record in spans:
        total[record["name"]] += record["end"] - record["start"]
    own = self_times(spans)
    module_self: Dict[str, float] = defaultdict(float)
    for record in spans:
        module_self[record["name"].split(":")[0]] += own[record["id"]]

    # Tasks dispatched through map_tasks (NetShare.fit runs the seed
    # chunk's task directly, outside any map_tasks call).
    calls = [r for r in spans if r["name"] == MAP_TASKS]
    call_ids = {r["id"] for r in calls}
    by_call: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in spans:
        if record["name"] in TASKS and record["parent"] in call_ids:
            by_call[record["parent"]].append(record)
    slots = wait = task_s = 0.0
    for record in calls:
        wall = record["end"] - record["start"]
        slots += wall * record["attrs"]["jobs"]
        per_pid: Dict[int, float] = defaultdict(float)
        for task in by_call[record["id"]]:
            per_pid[task["pid"]] += task["end"] - task["start"]
        task_s += sum(per_pid.values())
        wait += max(wall - max(per_pid.values(), default=0.0), 0.0)

    c = Counter(counts)
    t = Counter(telemetry_counters)
    s = Counter(serve_stats)
    train_s = total["gan.doppelganger:DoppelGANger.fit"]
    dp_s = total["gan.doppelganger:DoppelGANger.fit_dp"]
    decode_s = total["core.flow_encoder:FlowTensorEncoder.decode"]
    sample_s = total["gan.doppelganger:DoppelGANger.generate"]
    requests = s["serve.generate.requests"]
    metrics = {
        "ip2vec.fit_s": total["core.ip2vec:IP2Vec.fit"],
        "preprocess.split_s": total["core.preprocess:split_into_flows"],
        "preprocess.chunk_flows_s": total["core.preprocess:chunk_flows"],
        "flow_encoder.encode_s":
            total["core.flow_encoder:FlowTensorEncoder.encode_chunk"],
        "flow_encoder.decode_s": decode_s,
        "flow_encoder.decode_records_per_s":
            _ratio(c["flow_encoder.decoded_records"], decode_s),
        "gan.train_s": train_s,
        "gan.train_steps": c["gan.train_steps"],
        "gan.step_ms": 1000 * _ratio(train_s, c["gan.train_steps"]),
        "gan.dp_train_s": dp_s,
        "gan.dp_step_ms": 1000 * _ratio(dp_s, c["gan.dp_train_steps"]),
        "gan.sample_s": sample_s,
        "gan.sample_flows_per_s": _ratio(c["gan.sampled_flows"], sample_s),
        "nn.tape.hit_rate": _ratio(
            t["nn.tape.hits"], t["nn.tape.hits"] + t["nn.tape.misses"]),
        "nn.tape.infer.hit_rate": _ratio(
            t["nn.tape.infer.hits"],
            t["nn.tape.infer.hits"] + t["nn.tape.infer.misses"]),
        "runtime.map_tasks_calls": len(calls),
        "runtime.tasks": sum(len(tasks) for tasks in by_call.values()),
        "runtime.map_tasks_s": total[MAP_TASKS],
        "runtime.task_s": task_s,
        "runtime.parallel_efficiency": _ratio(task_s, slots),
        "runtime.dispatch_wait_ms_per_call": 1000 * _ratio(wait, len(calls)),
        "runtime.dispatch_bytes_per_task":
            _ratio(c["runtime.dispatch_bytes"], c["runtime.dispatch_tasks"]),
        "runtime.freeze_s": total["runtime.chunk_tasks:freeze_state"],
        "generate.rounds_per_request":
            _ratio(c["generate.rounds"], c["generate.sessions"]),
        "generate.yield":
            _ratio(c["generate.returned"], c["generate.decoded"]),
        "postprocess.finalize_s":
            total["core.postprocess:finalize_flow_trace"]
            + total["core.postprocess:finalize_packet_trace"],
        "serve.requests_per_batch": _ratio(requests, s["serve.batches"]),
        "serve.executor_calls_per_request":
            _ratio(s["serve.executor.calls"], requests),
        "serve.cache.hit_rate": _ratio(
            s["serve.cache.hits"],
            s["serve.cache.hits"] + s["serve.cache.misses"]),
        "serve.registry.hit_rate": _ratio(
            s["serve.registry.hits"],
            s["serve.registry.hits"] + s["serve.registry.misses"]),
        "serve.rejected": s["serve.generate.rejected"],
        "serve.batch_s": total["serve:run_generation_batch"],
        "serve.payload_encode_s": total["serve:trace_to_payload"],
        "serve.client_decode_s": total["serve:payload_to_trace"],
    }
    for module in MODULES:
        metrics[f"self_s.{module}"] = module_self[module]
    return metrics
