"""Benchmark of what a Yago query costs on Spark before and during its action.

For Yago Q1, Q20, Q21 and Q25, under Dist-μ-RA (``dist``: ``plan_crpq`` with
the ``auto`` plan choice) and the BigDatalog-like plan (``bdl``), on
yago_lite 5k and 30k, it times two phases of each query:

* ``build``: planning plus ``eval_spark``, i.e. the driver-side work
  before the action, including the Spark jobs the plans run to get
  there (counting, collecting and broadcasting φ's constant relations
  for P_plw or the fixpoint's inputs for the P_gld hand-off; P_gld
  iterations);
* ``action``: ``count()`` of the result.

Spark jobs are counted per phase from job groups (status store), and
the last run records, for each job, the names of the stages that ran:
their call sites, such as ``toPandas at plans.py:123``, and task counts.
Under adaptive query execution each shuffle stage of an action is a job
of its own, named after AQE's thread, not the step; so the last run also
records the shuffle stages and exchanges of the action's final adaptive
plan, which tell the stages apart. Each (scale, query, system) cell
runs once to warm up, then once in each of REPEATS interleaved rounds
over all cells; the JSON records every time, each phase's median and
interquartile range, the jobs of the last run, ``cfg.chosen``, the row
count (the same in every run, and for both systems) and the environment
(cores, Spark and Python versions, commit of the evaluated sources, and
``noop_task_s``: the median time of a one-task ``mapInPandas`` that does
nothing, the fixed cost of every P_plw and hand-off task).

    PYTHONPATH=src python jobs/spark_setup_bench.py [--out BENCH_spark_setup.json]
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import re
import statistics
import time
from pathlib import Path

import pyspark

from repro.baselines.bigdatalog import plan_crpq_bigdatalog
from repro.bench.harness import commit
from repro.bench.session import spark_session
from repro.core.compiler_spark import FixConfig, eval_spark
from repro.core.cost import GraphStats
from repro.core.paper_queries import YAGO_QUERIES
from repro.core.planner import plan_crpq
from repro.core.query2mu import GRAPH
from repro.core.rpq import parse_query
from repro.graphs.yago import yago_lite

REPEATS = 5
NOOP_RUNS = 10
SCALES = (5_000, 30_000)
QIDS = ("Q1", "Q20", "Q21", "Q25")
SYSTEMS = ("dist", "bdl")

_groups = itertools.count()
_DIRS = re.compile(r"\S*/")
_IDS = re.compile(r"#\d+L?|, \[plan_id=\d+\]")


def noop_task_s(spark) -> float:
    """Median seconds of NOOP_RUNS counts of a one-task ``mapInPandas``
    that passes its one row through, after one run to start the workers."""
    df = spark.range(0, 1, 1, 1).mapInPandas(lambda batches: batches, schema="id long")
    df.count()
    times = []
    for _ in range(NOOP_RUNS):
        t0 = time.perf_counter()
        df.count()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def stage_names(tracker, group: str) -> list[list[str]]:
    """For each job of ``group``, oldest first, the stages that ran (not
    those skipped because they re-read an earlier stage's shuffle output):
    their names, with each call site's directory dropped, and task counts."""
    out = []
    for job in sorted(tracker.getJobIdsForGroup(group)):
        stages = (tracker.getStageInfo(s) for s in sorted(tracker.getJobInfo(job).stageIds))
        out.append([f"{_DIRS.sub('', s.name)} ({s.numTasks} tasks)"
                    for s in stages if s is not None and s.numCompletedTasks])
    return out


def plan_exchanges(df) -> list[str]:
    """The shuffle stages and exchanges of the final adaptive plan of
    ``df``, once an action has run it, top down, without expression ids."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    nodes = (line.lstrip(" :+-") for line in plan.split("== Initial Plan ==")[0].splitlines())
    return [_IDS.sub("", n) for n in nodes if re.match(r"\w*(Exchange|QueryStage)\b", n)]


def run_once(spark, g, stats, consts, qid: str, system: str) -> dict:
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    build, action = f"build-{next(_groups)}", f"action-{next(_groups)}"

    sc.setJobGroup(build, build)
    t0 = time.perf_counter()
    q = parse_query(YAGO_QUERIES[qid])
    term = plan_crpq(q, stats, consts).term if system == "dist" else plan_crpq_bigdatalog(q, consts)
    cfg = FixConfig()
    df = eval_spark(term, {GRAPH: g}, spark, cfg)
    t1 = time.perf_counter()
    sc.setJobGroup(action, action)
    counted = df.groupBy().count()  # what df.count() runs
    rows = counted.collect()[0][0]
    t2 = time.perf_counter()
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return {
        "build_s": t1 - t0,
        "action_s": t2 - t1,
        "build_jobs": len(tracker.getJobIdsForGroup(build)),
        "action_jobs": len(tracker.getJobIdsForGroup(action)),
        "build_stages": stage_names(tracker, build),
        "action_stages": stage_names(tracker, action),
        "action_exchanges": plan_exchanges(counted),
        "chosen": cfg.chosen,
        "rows": rows,
    }


def summarize(runs: list[dict]) -> dict:
    """One cell's record: every time, the median and interquartile range
    of each phase, and what the last run saw."""
    out: dict = {}
    for phase in ("build", "action"):
        times = [r[f"{phase}_s"] for r in runs]
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        out |= {f"{phase}_s_median": median, f"{phase}_s_iqr": q3 - q1, f"{phase}_s": times}
    keys = ("build_jobs", "action_jobs", "build_stages", "action_stages", "action_exchanges",
            "chosen", "rows")
    return out | {k: runs[-1][k] for k in keys}


def bench(spark) -> dict:
    """Every (scale, query, system) cell once to warm up, then REPEATS
    interleaved rounds over all cells, so that a drift of the host's
    speed spreads over every cell instead of landing on a few."""
    graphs = {}
    for n in SCALES:
        tri, consts = yago_lite(n, seed=0)
        g = spark.createDataFrame(tri).cache()
        g.count()
        graphs[n] = (g, GraphStats.from_spark(g), consts)
    cells = list(itertools.product(SCALES, QIDS, SYSTEMS))
    runs: dict[tuple, list[dict]] = {cell: [] for cell in cells}
    for rnd in range(REPEATS + 1):
        for n, qid, system in cells:
            r = run_once(spark, *graphs[n], qid, system)
            if rnd:  # round 0 warms up
                runs[n, qid, system].append(r)
    for n, qid in itertools.product(SCALES, QIDS):
        if len({r["rows"] for system in SYSTEMS for r in runs[n, qid, system]}) != 1:
            raise SystemExit(f"yago_lite_{n} {qid}: row counts differ between runs or systems")
    out: dict[str, dict] = {}
    for n, qid, system in cells:
        r = summarize(runs[n, qid, system])
        out.setdefault(f"yago_lite_{n}", {}).setdefault(qid, {})[system] = r
        print(f"  yago_lite_{n} {qid} {system:<4} build {r['build_s_median']:7.3f}s "
              f"±{r['build_s_iqr']:.3f} ({r['build_jobs']} jobs)  action "
              f"{r['action_s_median']:7.3f}s ±{r['action_s_iqr']:.3f} ({r['action_jobs']} jobs)  "
              f"rows={r['rows']} {r['chosen']}", flush=True)
    for g, _, _ in graphs.values():
        g.unpersist()
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_spark_setup.json")
    args = ap.parse_args()
    with spark_session("spark-setup-bench") as spark:
        result = {
            "env": {
                "cores": os.cpu_count(),
                "master": spark.sparkContext.master,
                "default_parallelism": spark.sparkContext.defaultParallelism,
                "spark": pyspark.__version__,
                "python": platform.python_version(),
                "commit": commit(),
                "repeats": REPEATS,
                "noop_task_s": noop_task_s(spark),
            },
            **bench(spark),
        }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
