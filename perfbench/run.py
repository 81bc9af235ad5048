"""Benchmark of Dist-μ-RA query evaluation, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload yago-closure --seed 1 --seconds 10 --trace 0
    python3 perfbench/selftest.py     # tiny-scale check of the benchmark itself

Workloads are listed in ``perfbench/workloads.py`` and BENCHMARK.json.
Each runs two systems: ``primary`` (dist: plan_crpq + eval_spark with the
``auto`` plan choice; or the pandas kernel) and ``baseline`` (bdl: the
BigDatalog-like plan on the same eval_spark; or the DuckDB kernel).
Load model: a closed loop, one client, one query at a time. Spark runs
``local[N]`` with N = the number of usable cores and is otherwise
configured as the program configures it; the DuckDB kernel runs on
DUCKDB_THREADS threads (see there). Each invocation runs one workload in
its own process.

A run: start Spark (Spark workloads only), generate the graph from
``--seed``, cache it, compute GraphStats, warm up on the workload's own
queries (the first warm-up pass also collects every result for the
correctness check) until pass time levels off, then run the timed passes.
After the timed passes, every collected result is compared (row count
and order-independent checksum) against an independent oracle, and the
two systems are compared with each other; a wrong answer fails the run.
A traced run also fails if a count differs between its traced passes, or
from an earlier traced run of the same code, workload and seed whose
record is still in ``.bench_out/``. The run's record (environment,
per-query samples, failures, spans) goes to ``.bench_out/``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (per-pass
sums, median over the traced passes); spans are kept in memory and
written with the record at the end.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit code 1 means a
wrong answer or a count that did not repeat (the result is printed, with
``correct`` false). Exit code 2 means the
benchmark could not start (no ``src/repro`` under the working directory,
bad arguments); 3 means an environment error during the run (e.g. the
Spark workers cannot import ``repro``, or the JVM was lost). Neither
prints a result.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Threads of the DuckDB kernel in local-engines. The program leaves DuckDB
# at its default (one per core). On a 4-core VM shared with other work,
# the default spread duckdb.pass_s across ten seeds by 0.11 and 0.30 of
# its median in two rounds, past the 0.25 bound once; one thread gave
# 0.06 to 0.14 in three rounds.
DUCKDB_THREADS = 1
# Enough retained jobs/stages that no query's stages are evicted from
# the status store before they are read.
RETAINED = 10_000

# Timed passes per run, at least (each traced run needs twice as many).
MIN_PASSES = 2
# Query tail: the highest percentile with this many samples beyond it. A
# run of yago-closure has under ten samples per system and query, too few
# for a steady tail, so the tail goes to the run's notes, not to the
# gated metrics.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_frac": "frac",
    "rss_peak_mb": "MB",
    "primary.pass_s": "s",
    "primary.query_p50_s": "s",
    "baseline.pass_s": "s",
    "baseline.query_p50_s": "s",
}

PER_LAYER_UNITS = {
    "rpq.parse_s": "s",
    "planner.plan_s": "s",
    "planner.candidates": "count",
    "bigdatalog.plan_s": "s",
    "compiler_spark.eval_call_s": "s",
    "plans.fixpoints": "count",
    "plans.fixpoint_self_s": "s",
    "plans.n_plw_s": "count",
    "plans.n_gld": "count",
    "plans.n_bcast_fallback": "count",
    "spark.action_s": "s",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "spark.shuffle_write_bytes": "bytes",
    "spark.shuffle_read_bytes": "bytes",
    "spark.shuffle_bytes_per_row": "bytes/row",
    "spark.task_run_s": "s",
    "spark.task_cpu_s": "s",
    "spark.gc_s": "s",
    "spark.core_busy_frac": "frac",
    "compiler_pandas.seminaive_s": "s",
    "compiler_pandas.seminaive_calls": "count",
    "compiler_pandas.iterations": "count",
    "compiler_pandas.rows_out": "count",
    "compiler_sql.run_seminaive_s": "s",
    "compiler_sql.run_seminaive_calls": "count",
    "setup.spark_s": "s",
    "setup.graph_s": "s",
    "setup.cache_s": "s",
    "setup.stats_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_frac": "frac",
}

# Per-layer counts that must repeat exactly from one traced pass to the next.
EXACT = [k for k, u in PER_LAYER_UNITS.items() if u in ("count", "bytes")]


class EnvError(RuntimeError):
    """The environment, not a query, is broken: abort without a result."""


_ENV_MARKERS = ("ModuleNotFoundError", "No module named", "Py4JNetworkError",
                "Answer from Java side is empty", "SparkContext was shut down")


def is_env_error(e: BaseException) -> bool:
    text = f"{type(e).__name__}: {e}"
    return isinstance(e, (ImportError, ConnectionError)) or any(m in text for m in _ENV_MARKERS)


def cores() -> int:
    return len(os.sched_getaffinity(0))


def host_loop_s() -> float:
    """Seconds of a fixed pure-Python loop: how fast the host runs right
    now, recorded with each run to tell host drift from program changes."""
    t0 = time.perf_counter()
    s = 0
    for i in range(2_000_000):
        s += i
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


class SparkRunner:
    """dist (plan_crpq + eval_spark, strategy auto) and bdl
    (plan_crpq_bigdatalog + eval_spark) over one cached triples frame."""

    # On a 4-core host the first pass (which also collects the results)
    # takes 1.4-1.7x a warm one, and the JVM's JIT keeps making passes a
    # little faster for minutes. With Q21 and Q25 in a pass, the first
    # timed pass after two warm-up passes was still about 10 % slower than
    # the rest, and after three the timed passes were level within the
    # host's noise; a pass of Q25 alone is about half as long, so four. A
    # fixed count keeps setup_s steady.
    warm_passes = 4

    def __init__(self, tracer, setup: dict, inputs) -> None:
        self.tracer = tracer
        with Timer(setup, "setup.spark_s"):
            self.spark = start_spark()
        self.sc = self.spark.sparkContext
        self.inputs = inputs
        from repro.core.cost import GraphStats

        with Timer(setup, "setup.cache_s"):
            self.gdf = self.spark.createDataFrame(inputs.triples).cache()
            self.gdf.count()
        with Timer(setup, "setup.stats_s"):
            self.stats = GraphStats.from_pandas(inputs.triples)
        from tracing import SparkCounters

        self.counters = SparkCounters(self.spark)

    def env(self) -> dict:
        return {
            "spark": self.spark.version,
            "master": self.sc.master,
            "default_parallelism": self.sc.defaultParallelism,
            "shuffle_partitions": int(self.spark.conf.get("spark.sql.shuffle.partitions")),
        }

    def warm_engine(self) -> None:
        """Check that the Spark workers can import repro."""

        def probe(it):
            import repro  # noqa: F401

            yield from it

        try:
            self.spark.range(4).mapInPandas(probe, schema="id long").count()
        except Exception as e:  # noqa: BLE001 — classified, then re-raised
            raise EnvError(f"Spark workers cannot run repro: {str(e)[:300]}") from e

    def evaluate(self, system: str, query):
        """Parse, plan, eval_spark; returns (DataFrame, FixConfig)."""
        from repro.baselines.bigdatalog import plan_crpq_bigdatalog
        from repro.core.compiler_spark import FixConfig, eval_spark
        from repro.core.planner import plan_crpq
        from repro.core.query2mu import GRAPH
        from repro.core.rpq import parse_query

        tr = self.tracer
        with tr.span("parse"):
            q = parse_query(query.text)
        with tr.span("plan", system=system) as s:
            if system == "dist":
                report = plan_crpq(q, self.stats, self.inputs.consts)
                term = report.term
                if s is not None:
                    s.attrs["candidates"] = len(report.candidates)
            else:
                term = plan_crpq_bigdatalog(q, self.inputs.consts)
        cfg = FixConfig(row_cap=query.row_cap)
        with tr.span("eval_call"):
            df = eval_spark(term, {GRAPH: self.gdf}, self.spark, cfg)
        return df, cfg

    def run(self, system: str, query) -> tuple[int, list[str]]:
        df, cfg = self.evaluate(system, query)
        with self.tracer.span("action"):
            rows = int(df.count())
        return rows, cfg.chosen

    def collect(self, system: str, query):
        """The result as a pandas frame, and its columns in head order."""
        from repro.core.rpq import parse_query, var_col

        df, _ = self.evaluate(system, query)
        head = [var_col(h) for h in parse_query(query.text).head]
        return df.toPandas(), head

    def oracle(self, query, rows: int) -> tuple[int, int]:
        from repro.core.rpq import parse_query
        from verify import crpq_oracle

        q = parse_query(query.text)
        return crpq_oracle(q, self.inputs.triples, self.inputs.consts, rows)

    def close(self) -> None:
        gw = self.sc._gateway
        self.spark.stop()
        gw.shutdown()
        stop_process(getattr(gw, "proc", None))


class LocalRunner:
    """pandas (compiler_pandas.eval_pandas) and duckdb
    (compiler_sql.DuckdbEvaluator, as eval_duckdb runs it but on a
    connection of DUCKDB_THREADS threads), in the benchmark's own process."""

    warm_passes = 2  # no JIT: the second pass already runs at speed

    def __init__(self, tracer, setup: dict, inputs) -> None:
        self.tracer = tracer
        self.inputs = inputs
        for k in ("setup.spark_s", "setup.cache_s", "setup.stats_s"):
            setup[k] = 0.0

    def env(self) -> dict:
        import duckdb

        con = duckdb.connect()
        try:
            default = con.execute("SELECT current_setting('threads')").fetchone()[0]
        finally:
            con.close()
        return {"duckdb_threads": DUCKDB_THREADS, "duckdb_default_threads": int(default)}

    def warm_engine(self) -> None:
        pass

    def _eval(self, system: str, query):
        import duckdb
        from repro.core.compiler_pandas import eval_pandas
        from repro.core.compiler_sql import DuckdbEvaluator

        with self.tracer.span(f"eval_{system}"):
            if system == "pandas":
                return eval_pandas(query.term, query.env)
            ev = DuckdbEvaluator(query.env, con=duckdb.connect(config={"threads": DUCKDB_THREADS}))
            try:
                return ev.evaluate(query.term)
            finally:
                ev.con.close()

    def run(self, system: str, query) -> tuple[int, list[str]]:
        return len(self._eval(system, query)), []

    def collect(self, system: str, query):
        return self._eval(system, query), ["src", "dst"]

    def oracle(self, query, rows: int) -> tuple[int, int]:
        return query.oracle(rows)

    def close(self) -> None:
        pass


def start_spark():
    """The program's own session (repro.bench.session.get_spark), on
    local[cores], with enough retained jobs and stages for exact counters
    and its scratch files inside the checkout."""
    tmp = OUT / f"tmp-{os.getpid()}"
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # No hsperfdata files: every JVM (spark-submit's launcher too) would
    # write them to /tmp whatever java.io.tmpdir says.
    os.environ["JAVA_TOOL_OPTIONS"] = " ".join(
        filter(None, [os.environ.get("JAVA_TOOL_OPTIONS"), "-XX:-UsePerfData"])
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores()}] "
        f"--conf spark.ui.retainedJobs={RETAINED} --conf spark.ui.retainedStages={RETAINED} "
        f"--conf spark.sql.warehouse.dir={tmp / 'warehouse'} "
        f"--driver-java-options -Djava.io.tmpdir={tmp} "
        "pyspark-shell"
    )
    from repro.bench.session import get_spark

    return get_spark("perfbench")


def stop_process(proc) -> None:
    """End the spark-submit JVM: it exits when its stdin closes."""
    if proc is None:
        return
    if proc.stdin:
        proc.stdin.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


class Timer:
    def __init__(self, into: dict, key: str) -> None:
        self.into, self.key = into, key

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.into[self.key] = time.perf_counter() - self.t0


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, workload, runner, inputs, tracer) -> None:
        self.w = workload
        self.runner = runner
        self.inputs = inputs
        self.tracer = tracer
        self.digests: dict[tuple[str, str], tuple[int, int]] = {}
        self.digest_s = 0.0  # the benchmark's own time inside the collect pass
        self.failures: list[dict] = []
        self.problems: list[str] = []

    def attempt(self, fn, system, query, phase):
        """Run fn(); a query failure becomes None, an environment error aborts."""
        try:
            return fn(system, query)
        except Exception as e:  # noqa: BLE001 — a failed query is a data point
            if is_env_error(e):
                raise EnvError(f"{system} {query.qid}: {type(e).__name__}: {str(e)[:300]}") from e
            self.failures.append({
                "phase": phase, "system": system, "query": query.qid,
                "error": f"{type(e).__name__}: {str(e)[:200]}",
            })
            return None

    def collect_pass(self) -> float:
        """Evaluate and digest every result; returns the pass's wall time
        without the time spent digesting."""
        from verify import digest_frame

        t0 = time.perf_counter()
        for query in self.inputs.queries:
            for system in self.w.systems:
                out = self.attempt(self.runner.collect, system, query, "collect")
                if out is None:
                    continue
                t_digest = time.perf_counter()
                try:
                    self.digests[(system, query.qid)] = digest_frame(*out)
                except ValueError as e:
                    self.problems.append(f"{system} {query.qid}: {e}")
                self.digest_s += time.perf_counter() - t_digest
        return time.perf_counter() - t0 - self.digest_s

    def timed_pass(self, index: int, traced: bool) -> dict:
        """One pass over every (query, system); per-query wall times."""
        from tracing import layer_hooks

        tr = self.tracer
        tr.enabled, tr.spans, tr.counts = traced, [], {}
        samples = []
        t_pass = time.perf_counter()
        # Alternate which system goes first, so neither always follows
        # the other.
        systems = self.w.systems if index % 2 == 0 else self.w.systems[::-1]
        with layer_hooks(tr) if traced else nullcontext():
            for query in self.inputs.queries:
                for system in systems:
                    group = f"pb{index}-{system}-{query.qid}"
                    if traced and self.w.spark:
                        self.runner.counters.set_group(group)
                    t0 = time.perf_counter()
                    with tr.span("query", qid=query.qid, system=system):
                        out = self.attempt(self.runner.run, system, query, f"pass{index}")
                    secs = time.perf_counter() - t0
                    s = {"system": system, "query": query.qid, "seconds": secs,
                         "ok": out is not None}
                    if out is not None:
                        s["rows"], s["chosen"] = out
                    if traced and self.w.spark:
                        s["spark"] = self.runner.counters.read(group)
                    samples.append(s)
        tr.enabled = False
        return {"index": index, "traced": traced, "seconds": time.perf_counter() - t_pass,
                "samples": samples, "spans": list(tr.spans), "counts": dict(tr.counts)}

    def warm_up(self) -> list[float]:
        """A collect pass, then count passes."""
        times = [self.collect_pass()]
        while len(times) < self.runner.warm_passes:
            times.append(self.timed_pass(-len(times), traced=False)["seconds"])
        return times


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(xs: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it. With fewer than 2·TAIL_BEYOND samples
    that percentile would be below the median, so the maximum is given."""
    xs = sorted(xs)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(w, passes, setup_s, extra: dict) -> dict:
    m = {"setup_s": setup_s}
    samples = [s for p in passes for s in p["samples"]]
    m["ok_frac"] = sum(s["ok"] for s in samples) / len(samples)
    m["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for role, system in zip(("primary", "baseline"), w.systems):
        per_pass = [sum(s["seconds"] for s in p["samples"] if s["system"] == system)
                    for p in passes]
        by_query: dict[str, list[float]] = {}
        for s in samples:
            if s["system"] == system and s["ok"]:
                by_query.setdefault(s["query"], []).append(s["seconds"])
        ok = [t for ts in by_query.values() for t in ts]
        m[f"{role}.pass_s"] = statistics.median(per_pass)
        # Each query's median, averaged over the queries: a median over
        # all samples would fall between the queries' own times.
        m[f"{role}.query_p50_s"] = (
            statistics.mean(statistics.median(v) for v in by_query.values())
            if by_query else float("nan")
        )
        value, pct = tail(ok) if ok else (float("nan"), 0.0)
        extra[f"{role}.query_tail"] = {"system": system, "seconds": value, "percentile": pct,
                                       "samples": len(ok)}
    return m


def layer_values(p: dict, n_cores: int) -> dict:
    """Per-layer sums of one traced pass."""
    from tracing import SPARK_COUNTERS, self_time

    spans, samples = p["spans"], p["samples"]
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    ids = {s.id: s for s in spans}

    def total(name, pred=lambda s: True):
        return sum(s.duration for s in by_name.get(name, ()) if pred(s))

    def outermost(name):
        def pred(s):
            a = ids.get(s.parent)
            while a is not None:
                if a.name == name:
                    return False
                a = ids.get(a.parent)
            return True
        return total(name, pred)

    fix = by_name.get("execute_fixpoint", [])
    chosen = [c for s in samples if s["ok"] for c in s["chosen"]]
    spark = {k: sum(s.get("spark", {}).get(k, 0) for s in samples) for k in SPARK_COUNTERS}
    rows = sum(s.get("rows", 0) for s in samples)
    wall = sum(s["seconds"] for s in samples)
    kernel = by_name.get("seminaive_loop", [])
    v = {
        "rpq.parse_s": total("parse"),
        "planner.plan_s": total("plan", lambda s: s.attrs.get("system") == "dist"),
        "planner.candidates": sum(s.attrs.get("candidates", 0) for s in by_name.get("plan", ())),
        "bigdatalog.plan_s": total("plan", lambda s: s.attrs.get("system") == "bdl"),
        "compiler_spark.eval_call_s": total("eval_call"),
        "plans.fixpoints": len(fix),
        "plans.fixpoint_self_s": sum(self_time(s, spans) for s in fix),
        "plans.n_plw_s": chosen.count("plw_s"),
        "plans.n_gld": chosen.count("gld"),
        "plans.n_bcast_fallback": sum(c.startswith("gld(") for c in chosen),
        "spark.action_s": total("action"),
        **{f"spark.{k}": spark[k] for k in SPARK_COUNTERS},
        "spark.shuffle_bytes_per_row": spark["shuffle_write_bytes"] / rows if rows else 0.0,
        "spark.core_busy_frac": spark["task_run_s"] / (n_cores * wall) if wall else 0.0,
        "compiler_pandas.seminaive_s": outermost("seminaive_loop"),
        "compiler_pandas.seminaive_calls": len(kernel),
        "compiler_pandas.iterations": p["counts"].get("set_difference", 0),
        "compiler_pandas.rows_out": sum(s.attrs.get("rows", 0) for s in kernel),
        "compiler_sql.run_seminaive_s": outermost("run_seminaive"),
        "compiler_sql.run_seminaive_calls": len(by_name.get("run_seminaive", [])),
    }
    return v


def per_layer(passes, setup: dict, n_cores: int) -> tuple[dict, list[str]]:
    """Median per-layer values over the traced passes, and the names of
    the counts that did not repeat exactly between those passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = [layer_values(p, n_cores) for p in traced]
    m = {k: statistics.median(v[k] for v in values) for k in values[0]}
    m.update({k: setup[k] for k in PER_LAYER_UNITS if k.startswith("setup.")})
    m["trace.overhead_frac"] = (
        statistics.median(p["seconds"] for p in traced)
        / statistics.median(p["seconds"] for p in plain) - 1
    )
    rows = [[(s["system"], s["query"], s.get("rows")) for s in p["samples"]] for p in traced]
    mismatched = sorted(
        {k for v in values for k in EXACT if v[k] != values[0][k]}
        | ({"rows"} if any(r != rows[0] for r in rows) else set())
    )
    return m, mismatched


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(base)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    """HEAD of the checkout, if it is a git work tree (git is not asked to
    look in parent directories)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def record_path(workload: str, seed: int, trace: bool) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"


def repeat_across_runs(record: dict, earlier_path: Path) -> list[str]:
    """Counts that differ from an earlier traced run of the same code,
    workload, seed and scale (if its record is still there)."""
    try:
        earlier = json.loads(earlier_path.read_text())
    except (OSError, ValueError):
        return []
    same = ("workload", "seed", "scale", "trace", "source_digest")
    if any(earlier.get("env", {}).get(k) != record["env"][k] for k in same):
        return []
    return [
        f"{k}: {record['metrics'][k]['value']} here, {earlier['metrics'][k]['value']} "
        "in the earlier run"
        for k in EXACT
        if k in earlier.get("metrics", {})
        and earlier["metrics"][k]["value"] != record["metrics"][k]["value"]
    ]


def verify(bench) -> list[str]:
    """Compare every collected result with its oracle and across systems."""
    problems = []
    sys_a, sys_b = bench.w.systems
    for query in bench.inputs.queries:
        got = {s: bench.digests.get((s, query.qid)) for s in (sys_a, sys_b)}
        present = [d for d in got.values() if d is not None]
        if not present:
            continue
        expected = bench.runner.oracle(query, present[0][0])
        for s, d in got.items():
            if d is not None and d != expected:
                problems.append(f"{s} {query.qid}: got {d}, oracle {expected}")
        if len(present) == 2 and present[0] != present[1]:
            problems.append(f"{query.qid}: {sys_a} and {sys_b} disagree")
    return problems


def run(workload_name: str, seed: int, seconds: int, trace: bool, scale: str = "bench",
        inject=None) -> dict:
    """One benchmark run in this process; returns the run's record.

    ``inject`` (self-test only) may append queries to the inputs.
    """
    import workloads
    from tracing import Tracer

    w = workloads.WORKLOADS[workload_name]
    # The benchmark's own work before the first timed query (the host
    # loop, digests of the collected results) is left out of setup_s.
    t_host = time.perf_counter()
    host_before = host_loop_s()
    t_host = time.perf_counter() - t_host
    tracer = Tracer()
    setup: dict[str, float] = {}
    with Timer(setup, "setup.graph_s"):
        inputs = w.make(seed, scale)
    if inject is not None:
        inject(inputs)
    runner = (SparkRunner if w.spark else LocalRunner)(tracer, setup, inputs)
    try:
        bench = Bench(w, runner, inputs, tracer)
        t_warm = time.perf_counter()
        runner.warm_engine()
        warm = bench.warm_up()
        setup["setup.warmup_s"] = time.perf_counter() - t_warm - bench.digest_s
        setup_s = time.perf_counter() - T_PROCESS - t_host - bench.digest_s

        # Timed passes until --seconds have passed; traced runs alternate
        # untraced and traced passes and need two traced ones to compare.
        passes, t0 = [], time.perf_counter()
        least = MIN_PASSES * 2 if trace else MIN_PASSES
        while len(passes) < least or time.perf_counter() - t0 < seconds or (
            trace and len(passes) % 2
        ):
            i = len(passes)
            passes.append(bench.timed_pass(i, traced=trace and i % 2 == 1))
        n = len(passes)
        env = {
            "workload": w.name, "systems": dict(zip(("primary", "baseline"), w.systems)),
            "seed": seed, "scale": scale, "seconds": seconds, "trace": int(trace),
            "cores": cores(), "python": platform.python_version(),
            "machine": platform.machine(), "commit": commit(),
            "source_digest": source_digest(), "graphs": inputs.graphs,
            "passes": n, "warmup_pass_s": warm, "host_loop_s": [host_before, host_loop_s()],
            **runner.env(),
        }
        for mod in ("duckdb", "pandas", "numpy"):
            env[mod] = importlib.metadata.version(mod)
        problems = bench.problems + verify(bench)
    finally:
        runner.close()

    # Row counts of the timed passes must match the verified results. A
    # query whose collect pass failed has no verified result; it is named
    # in the notes.
    unverified = set()
    for p in passes:
        for s in p["samples"]:
            d = bench.digests.get((s["system"], s["query"]))
            if s["ok"] and d is None:
                unverified.add(f"{s['system']} {s['query']}")
            elif s["ok"] and s["rows"] != d[0]:
                problems.append(f"{s['system']} {s['query']} pass {p['index']}: "
                                f"{s['rows']} rows, verified {d[0]}")
    extra: dict = {"warmup_level": warm[-1] / warm[-2] - 1}
    if unverified:
        extra["unverified"] = sorted(unverified)
    if trace:
        metrics, mismatched = per_layer(passes, setup, cores())
        if mismatched:
            problems.append(f"counts differ between traced passes: {mismatched}")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(w, passes, setup_s, extra)
        units = END_TO_END_UNITS
    samples = [s for p in passes for s in p["samples"]]
    return {
        "env": env,
        "correct": not problems,
        "problems": problems,
        "attempted": len(samples),
        "failed": sum(not s["ok"] for s in samples),
        "failures": bench.failures,
        "setup": setup,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "notes": extra,
        "passes": [
            {**{k: v for k, v in p.items() if k != "spans"},
             "spans": [vars(s) for s in p["spans"]]}
            for p in passes
        ],
    }


def prepare() -> str | None:
    """Make repro importable here and in Spark workers, and keep scratch
    files inside the checkout. Returns an error message, or None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no src/repro under {ROOT}; run from the repository root"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    return None


def cleanup() -> None:
    shutil.rmtree(OUT / f"tmp-{os.getpid()}", ignore_errors=True)


def report(record: dict) -> None:
    print(f"env: {json.dumps(record['env'], default=str)}")
    for k, v in record["notes"].items():
        print(f"note: {k} = {json.dumps(v)}")
    for f in record["failures"]:
        print(f"failed: {f}")
    for p in record["problems"]:
        print(f"WRONG: {p}")
    for name, m in record["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    err = prepare()
    if err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except EnvError as e:
        print(f"perfbench: environment error, no result: {e}", file=sys.stderr)
        return 3
    except Exception:  # noqa: BLE001 — the benchmark itself failed: no result
        traceback.print_exc()
        return 3
    finally:
        cleanup()
    path = record_path(args.workload, args.seed, bool(args.trace))
    if args.trace:
        record["problems"] += repeat_across_runs(record, path)
        record["correct"] = not record["problems"]
    path.write_text(json.dumps(record, indent=1, default=str))
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
