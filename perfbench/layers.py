"""Per-layer tracing from outside the program: timed wrappers around public calls.

:func:`install` replaces each layer's public entry points (at every site
that looks the name up) with wrappers that record a span or a count per
call into a :class:`Recorder`; :func:`uninstall` puts every original back.
Nothing in ``src/`` is modified, and an untraced run never sees a wrapper.

Spans carry explicit parent ids kept on a per-thread stack, so spans from
different threads never parent under each other. Calls on a thread with an
empty stack (the batch runtime's lane threads answering for a scheduler
run on the caller's thread) parent under the innermost open ``batch.run``
span: that run caused them, and a single client has at most one run open
at a time. ``repro.obs.Tracer`` is not used: its one span stack per
instance mis-parents spans across threads.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter

import numpy.random
from measure import outermost, self_times

import repro.data.expressions
import repro.lang.executor
import repro.lang.interpreter
import repro.lang.streaming
import repro.platform.cache
import repro.quality.truth  # noqa: F401  (loads every TruthInference subclass)
from repro.data.columnstore import ColumnStore
from repro.data.database import Database
from repro.data.table import Table
from repro.lang.executor import Executor
from repro.lang.optimizer import Optimizer
from repro.lang.streaming import StreamingExecutor
from repro.obs.metrics import MetricsRegistry
from repro.platform.batch import BatchScheduler
from repro.platform.platform import _STAT_METRICS, PlatformStats, SimulatedPlatform
from repro.quality.truth.base import TruthInference
from repro.service.service import CrowdService
from repro.service.tenancy import TenantPlatform
from repro.workers.models import AnswerModel
from repro.workers.pool import WorkerPool
from repro.workers.worker import LatencyModel

#: Modules that may hold a function imported by name from another module.
BY_NAME_SITES = (
    repro.lang.interpreter, repro.lang.executor, repro.lang.streaming,
    repro.platform.cache, repro.data.expressions,
)


class Recorder:
    """Thread-safe in-memory store of spans and counts for one traced round."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        #: Dispatcher-side ``batch.run`` wall seconds, keyed by the id of the
        #: unit's first task, until the submitting ``service.submit`` takes it.
        self.unit_run_s: dict[int, float] = {}
        self.dispatch_s = 0.0
        self.handoff_s = 0.0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_runs: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            with self._lock:
                parent = self._open_runs[-1] if self._open_runs else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, token: tuple[int, int | None, float], name: str) -> float:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end))
        return end - start

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def run_open(self) -> bool:
        with self._lock:
            return bool(self._open_runs)

    def open_run(self, span_id: int) -> None:
        with self._lock:
            self._open_runs.append(span_id)

    def close_run(self, span_id: int) -> None:
        with self._lock:
            self._open_runs.remove(span_id)

    def reset(self) -> None:
        """Forget everything recorded so far (set-up before the traced round)."""
        self.spans.clear()
        self.counts.clear()
        self.unit_run_s.clear()
        self.dispatch_s = self.handoff_s = 0.0


# ---------------------------------------------------------------------- #
# Wrappers
# ---------------------------------------------------------------------- #


def _timed(recorder: Recorder, name: str, fn, count: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            recorder.count(count)
        token = recorder.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(token, name)

    return wrapper


def _counted(recorder: Recorder, name: str, fn, only_in_run: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not only_in_run or recorder.run_open():
            recorder.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _parse(recorder: Recorder, fn):
    @functools.wraps(fn)
    def parse(*args, **kwargs):
        token = recorder.begin()
        try:
            script = fn(*args, **kwargs)
        finally:
            recorder.end(token, "lang.parse")
        recorder.count("lang.statements", len(script.statements))
        return script

    return parse


def _scheduler_run(recorder: Recorder, fn):
    @functools.wraps(fn)
    def run(self, tasks, *args, cancel=None, **kwargs):
        recorder.count("batch.runs")
        recorder.count("batch.tasks_planned", len(tasks))
        if cancel is not None:
            cancel = _counted_cancel(recorder, cancel)
        published = self.platform.stats.tasks_published
        token = recorder.begin()
        recorder.open_run(token[0])
        try:
            return fn(self, tasks, *args, cancel=cancel, **kwargs)
        finally:
            recorder.close_run(token[0])
            wall = recorder.end(token, "batch.run")
            recorder.count(
                "batch.tasks_published", int(self.platform.stats.tasks_published - published)
            )
            if tasks:
                with recorder._lock:
                    recorder.unit_run_s[id(tasks[0])] = wall

    return run


def _counted_cancel(recorder: Recorder, cancel):
    def counted(task):
        recorder.count("batch.cancel_calls")
        reason = cancel(task)
        if reason is not None:
            recorder.count("batch.tasks_cancelled")
        return reason

    return counted


def _service_submit(recorder: Recorder, fn):
    @functools.wraps(fn)
    def submit(self, tenant, tasks, *args, **kwargs):
        recorder.count("service.units")
        token = recorder.begin()
        try:
            return fn(self, tenant, tasks, *args, **kwargs)
        finally:
            wall = recorder.end(token, "service.submit")
            with recorder._lock:
                run = recorder.unit_run_s.pop(id(tasks[0]), 0.0) if tasks else 0.0
                recorder.dispatch_s += run
                recorder.handoff_s += wall - run

    return submit


def _counted_property(recorder: Recorder, prop: property) -> property:
    def fget(self):
        recorder.count("platform.stats_accesses")
        return prop.fget(self)

    def fset(self, value):
        recorder.count("platform.stats_accesses")
        prop.fset(self, value)

    return property(fget, fset, prop.fdel, prop.__doc__)


def _defining(base: type, attr: str) -> list[type]:
    """*base* and every loaded subclass whose own body defines *attr*."""
    found: dict[type, None] = {}
    todo = [base]
    while todo:
        cls = todo.pop()
        if attr in vars(cls):
            found[cls] = None
        todo.extend(cls.__subclasses__())
    return list(found)


def _targets(recorder: Recorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every patched lookup site."""
    r = recorder
    timed = functools.partial(_timed, r)
    out: list[tuple[object, str, object]] = []

    def add(owner, attr, make):
        out.append((owner, attr, make(_current(owner, attr))))

    def add_by_name(home, attr, make):
        # Every module that imported the function by name holds its own
        # reference; patch each one that still holds the original.
        original = getattr(home, attr)
        wrapper = make(original)
        for module in {home, *BY_NAME_SITES}:
            if getattr(module, attr, None) is original:
                out.append((module, attr, wrapper))

    # lang
    add_by_name(repro.lang.interpreter, "parse", functools.partial(_parse, r))
    add_by_name(repro.lang.interpreter, "build_plan", lambda f: timed("lang.plan", f))
    add(Optimizer, "optimize", lambda f: timed("lang.plan", f))
    add(Executor, "execute", lambda f: timed("lang.exec", f))
    add(StreamingExecutor, "execute", lambda f: timed("lang.exec", f))
    # data: the executor's fast paths read columns, evaluate predicates
    # vectorized and materialize rows; they never go through Table.scan.
    for attr in ("scan", "filter_rowids", "column_vector"):
        add(Table, attr, lambda f: timed("data.scan", f))
    add(ColumnStore, "row_dict", lambda f: timed("data.scan", f))
    add_by_name(repro.data.expressions, "evaluate_tristate", lambda f: timed("data.scan", f))
    add(Database, "create_table", lambda f: timed("data.write", f))
    for attr in ("insert", "insert_many", "insert_columns"):
        add(Table, attr, lambda f: timed("data.write", f))
    # platform
    for owner in (SimulatedPlatform, TenantPlatform):
        add(owner, "collect_batch",
            lambda f: timed("platform.collect_batch", f, count="platform.collect_batch_calls"))
    for attr in _STAT_METRICS:
        add(PlatformStats, attr, functools.partial(_counted_property, r))
    # platform.batch
    add(BatchScheduler, "run", functools.partial(_scheduler_run, r))
    add(threading.Thread, "start", lambda f: _counted(r, "batch.threads_started", f))
    add(numpy.random, "default_rng",
        lambda f: _counted(r, "batch.rng_constructions", f, only_in_run=True))
    # platform.cache
    add(SimulatedPlatform, "cache_resolve", lambda f: timed("cache.resolve", f))
    add(SimulatedPlatform, "cache_finish", lambda f: timed("cache.finish", f))
    add_by_name(repro.platform.cache, "signature_of",
                lambda f: timed("cache.signature", f, count="cache.signature_calls"))
    # workers
    for cls in _defining(AnswerModel, "answer"):
        add(cls, "answer", lambda f: timed("workers.answer", f, count="workers.assignments"))
    add(LatencyModel, "service_time", lambda f: timed("workers.service_time", f))
    add(WorkerPool, "sample", lambda f: timed("workers.sample", f))
    # quality.truth
    for cls in _defining(TruthInference, "infer"):
        add(cls, "infer", lambda f: timed("truth.infer", f, count="truth.infer_calls"))
    # service
    add(CrowdService, "submit", functools.partial(_service_submit, r))
    # obs
    for attr in ("inc", "observe", "set_gauge"):
        add(MetricsRegistry, attr, lambda f: timed("obs.metrics", f, count="obs.metric_calls"))
    return out


def _current(owner: object, attr: str) -> object:
    # vars() on a class: the raw attribute, not a bound or inherited one.
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


Originals = list[tuple[object, str, object]]


def install(recorder: Recorder) -> Originals:
    """Patch every layer entry point to record into *recorder*."""
    originals = []
    for owner, attr, replacement in _targets(recorder):
        originals.append((owner, attr, _current(owner, attr)))
        setattr(owner, attr, replacement)
    return originals


def uninstall(originals: Originals) -> None:
    """Restore every original attribute (in reverse, so repeats unwind)."""
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)


def leaked_wrappers(originals: Originals) -> list[str]:
    """Patched sites that do not hold their original object any more."""
    leaks = []
    for owner, attr, original in originals:
        if _current(owner, attr) is not original:
            leaks.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return leaks


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #

#: Counts that repeat exactly at a fixed seed; a traced run fails when two
#: traced rounds disagree on one. ``batch.threads_started`` is not among
#: them: the batch runtime's ThreadPoolExecutor reuses a worker only if it
#: is already idle when the next assignment is submitted.
EXACT_COUNTS = (
    "batch.cancel_calls",
    "cache.signature_calls",
    "batch.tasks_planned",
    "batch.rng_constructions",
    "platform.stats_accesses",
)


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer busy/self times (raw ms), counts and ratios from one traced round.

    ``data.load_ms``, ``cache.hit_ratio``, ``bench.ref_ms`` and
    ``trace.overhead_ratio`` need more than the round's spans and are
    added by the caller.
    """
    spans = recorder.spans
    selfs = self_times(spans)
    busy: Counter[str] = Counter()
    for span in outermost(spans):
        busy[span[2]] += span[4] - span[3]
    own: Counter[str] = Counter()
    for span in spans:
        own[span[2]] += selfs[span[0]]
    c = recorder.counts
    planned = c["batch.tasks_planned"]
    return {
        "lang.parse_ms": busy["lang.parse"] * 1e3,
        "lang.plan_ms": busy["lang.plan"] * 1e3,
        "lang.exec_self_ms": own["lang.exec"] * 1e3,
        "lang.statements": c["lang.statements"],
        "data.scan_ms": busy["data.scan"] * 1e3,
        "data.write_ms": busy["data.write"] * 1e3,
        "platform.collect_batch_calls": c["platform.collect_batch_calls"],
        "platform.collect_batch_ms": busy["platform.collect_batch"] * 1e3,
        "platform.stats_accesses": c["platform.stats_accesses"],
        "batch.runs": c["batch.runs"],
        "batch.run_self_ms": own["batch.run"] * 1e3,
        "batch.tasks_per_run": planned / c["batch.runs"] if c["batch.runs"] else 0.0,
        "batch.threads_started": c["batch.threads_started"],
        "batch.rng_constructions": c["batch.rng_constructions"],
        "batch.cancel_calls": c["batch.cancel_calls"],
        "batch.tasks_planned": planned,
        "batch.tasks_cancelled": c["batch.tasks_cancelled"],
        "batch.useful_ratio": c["batch.tasks_published"] / planned if planned else 0.0,
        "cache.signature_calls": c["cache.signature_calls"],
        "cache.signature_ms": busy["cache.signature"] * 1e3,
        "cache.resolve_ms": busy["cache.resolve"] * 1e3,
        "cache.finish_ms": busy["cache.finish"] * 1e3,
        "workers.sample_ms": busy["workers.sample"] * 1e3,
        "workers.answer_ms": busy["workers.answer"] * 1e3,
        "workers.service_time_ms": busy["workers.service_time"] * 1e3,
        "workers.assignments": c["workers.assignments"],
        "truth.infer_calls": c["truth.infer_calls"],
        "truth.infer_ms": busy["truth.infer"] * 1e3,
        "service.units": c["service.units"],
        "service.dispatch_ms": recorder.dispatch_s * 1e3,
        "service.handoff_ms": recorder.handoff_s * 1e3,
        "obs.metric_calls": c["obs.metric_calls"],
        "obs.metrics_ms": busy["obs.metrics"] * 1e3,
    }


def write_ms(recorder: Recorder) -> float:
    """Wall ms spent creating and filling tables (outermost ``data.write`` spans)."""
    return sum(s[4] - s[3] for s in outermost(recorder.spans) if s[2] == "data.write") * 1e3
