"""Spans, layer hooks and Spark status-store counters for the benchmark.

Everything here observes the program from outside: spans are opened by
the benchmark around its own calls into each layer, and — in a traced
pass only — around a few public functions of ``repro`` that the layers
call internally (module attributes are swapped for wrappers and put back
when the pass ends). The program itself is not changed.
"""
from __future__ import annotations

import itertools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder. Disabled, ``span`` is a no-op."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return nullcontext(None)
        return self._span(name, attrs)

    @contextmanager
    def _span(self, name: str, attrs: dict):
        parent = self._stack[-1].id if self._stack else None
        s = Span(next(self._ids), parent, name, time.perf_counter(), attrs=attrs)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n


def self_time(span: Span, spans: list[Span]) -> float:
    """Duration minus the part of it covered by direct children."""
    kids = [s for s in spans if s.parent == span.id]
    return span.duration - sum(k.duration for k in kids)


@contextmanager
def layer_hooks(tracer: Tracer):
    """Wrap the public layer functions the program calls internally.

    * ``core.plans.execute_fixpoint`` — compiler_spark resolves it from
      the module at each call, so nested fixpoints get nested spans;
    * ``core.compiler_pandas.seminaive_loop`` and ``set_difference``
      (one call per semi-naive iteration);
    * ``core.compiler_sql.DuckdbEvaluator.run_seminaive``.

    Only driver-side calls are seen; the partition-local loops inside
    Spark workers show up as Spark task time instead.
    """
    from repro.core import compiler_pandas, compiler_sql, plans

    def spanned(name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(s, out)
                return out

        return wrapper

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def rows_out(s, out):
        s.attrs["rows"] = len(out)

    patches = [
        (plans, "execute_fixpoint", spanned("execute_fixpoint", plans.execute_fixpoint)),
        (
            compiler_pandas,
            "seminaive_loop",
            spanned("seminaive_loop", compiler_pandas.seminaive_loop, rows_out),
        ),
        (
            compiler_pandas,
            "set_difference",
            counted("set_difference", compiler_pandas.set_difference),
        ),
        (
            compiler_sql.DuckdbEvaluator,
            "run_seminaive",
            spanned("run_seminaive", compiler_sql.DuckdbEvaluator.run_seminaive),
        ),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        yield
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


SPARK_COUNTERS = ("jobs", "stages", "tasks", "shuffle_write_bytes", "shuffle_read_bytes",
                  "task_run_s", "task_cpu_s", "gc_s")


class SparkCounters:
    """Per-job-group totals read from Spark's status store.

    The store is filled asynchronously by the listener bus, so each read
    first waits for the bus to drain. Stages skipped because their
    shuffle output was reused are not counted.
    """

    def __init__(self, spark) -> None:
        sc = spark.sparkContext
        self._sc = sc
        self._bus = sc._jsc.sc().listenerBus()
        self._store = sc._jsc.sc().statusStore()
        self._tracker = sc.statusTracker()
        self._no_tasks = sc._jvm.java.util.ArrayList()
        self._no_quantiles = sc._gateway.new_array(sc._jvm.double, 0)

    def set_group(self, group: str) -> None:
        self._sc.setJobGroup(group, group)

    def read(self, group: str) -> dict[str, float]:
        self._bus.waitUntilEmpty()
        jobs = self._tracker.getJobIdsForGroup(group)
        stage_ids: set[int] = set()
        for j in jobs:
            ids = self._store.job(j).stageIds()
            stage_ids.update(ids.apply(i) for i in range(ids.size()))
        out = dict.fromkeys(SPARK_COUNTERS, 0)
        out["jobs"] = len(jobs)
        for sid in stage_ids:
            attempts = self._store.stageData(sid, False, self._no_tasks, False, self._no_quantiles)
            for i in range(attempts.size()):
                sd = attempts.apply(i)
                if str(sd.status()) == "SKIPPED":
                    continue
                out["stages"] += 1
                out["tasks"] += sd.numCompleteTasks()
                out["shuffle_write_bytes"] += sd.shuffleWriteBytes()
                out["shuffle_read_bytes"] += sd.shuffleReadBytes()
                out["task_run_s"] += sd.executorRunTime() / 1e3
                out["task_cpu_s"] += sd.executorCpuTime() / 1e9
                out["gc_s"] += sd.jvmGcTime() / 1e3
        return out
