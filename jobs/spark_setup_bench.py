"""Benchmark of what a Yago query costs on Spark before and during its action.

For Yago Q1, Q21 and Q25, under Dist-μ-RA (``dist``: ``plan_crpq`` with
the ``auto`` plan choice) and the BigDatalog-like plan (``bdl``), on
yago_lite 5k and 30k, it times two phases of each query:

* ``build``: planning plus ``eval_spark``, i.e. the driver-side work
  before the action, including the Spark jobs the plans run to get
  there (counting, collecting and broadcasting φ's constant relations
  for P_plw or the fixpoint's inputs for the P_gld hand-off; P_gld
  iterations);
* ``action``: ``count()`` of the result.

Spark jobs are counted per phase from job groups (status store). Each
query runs once to warm up, then REPEATS times; the JSON records every
time, the medians, the jobs of the last run, ``cfg.chosen``, the row
count (the same in every run, and for both systems) and the environment
(cores, Spark and Python versions, commit of the evaluated sources).

    PYTHONPATH=src python jobs/spark_setup_bench.py [--out BENCH_spark_setup.json]
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import time
from pathlib import Path

import pyspark

from kernel_bench import commit
from repro.baselines.bigdatalog import plan_crpq_bigdatalog
from repro.bench.session import get_spark
from repro.core.compiler_spark import FixConfig, eval_spark
from repro.core.cost import GraphStats
from repro.core.paper_queries import YAGO_QUERIES
from repro.core.planner import plan_crpq
from repro.core.query2mu import GRAPH
from repro.core.rpq import parse_query
from repro.graphs.yago import yago_lite

REPEATS = 3
SCALES = (5_000, 30_000)
QIDS = ("Q1", "Q21", "Q25")
SYSTEMS = ("dist", "bdl")

_groups = itertools.count()


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
    rows = df.count()
    t2 = time.perf_counter()
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return {
        "build_s": t1 - t0,
        "action_s": t2 - t1,
        "build_jobs": len(tracker.getJobIdsForGroup(build)),
        "action_jobs": len(tracker.getJobIdsForGroup(action)),
        "chosen": cfg.chosen,
        "rows": rows,
    }


def bench_scale(spark, n_edges: int) -> dict:
    tri, consts = yago_lite(n_edges, seed=0)
    g = spark.createDataFrame(tri).cache()
    g.count()
    stats = GraphStats.from_spark(g)
    out = {}
    for qid in QIDS:
        res = {}
        for system in SYSTEMS:
            run_once(spark, g, stats, consts, qid, system)  # warm-up
            runs = [run_once(spark, g, stats, consts, qid, system) for _ in range(REPEATS)]
            if len({r["rows"] for r in runs}) != 1:
                raise SystemExit(f"{qid} {system}: row counts differ between runs")
            last = runs[-1]
            res[system] = {
                "build_s_median": statistics.median(r["build_s"] for r in runs),
                "action_s_median": statistics.median(r["action_s"] for r in runs),
                "build_s": [r["build_s"] for r in runs],
                "action_s": [r["action_s"] for r in runs],
                "build_jobs": last["build_jobs"],
                "action_jobs": last["action_jobs"],
                "chosen": last["chosen"],
                "rows": last["rows"],
            }
            r = res[system]
            print(f"  yago_lite_{n_edges} {qid} {system:<4} build {r['build_s_median']:7.3f}s "
                  f"({r['build_jobs']} jobs)  action {r['action_s_median']:7.3f}s "
                  f"({r['action_jobs']} jobs)  rows={r['rows']} {r['chosen']}", flush=True)
        if res["dist"]["rows"] != res["bdl"]["rows"]:
            raise SystemExit(f"{qid}: dist and bdl disagree on the row count")
        out[qid] = res
    g.unpersist()
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_spark_setup.json")
    args = ap.parse_args()
    spark = get_spark("spark-setup-bench")
    try:
        result = {
            "env": {
                "cores": os.cpu_count(),
                "master": spark.sparkContext.master,
                "default_parallelism": spark.sparkContext.defaultParallelism,
                "spark": pyspark.__version__,
                "python": platform.python_version(),
                "commit": commit(),
                "repeats": REPEATS,
            },
            **{f"yago_lite_{n}": bench_scale(spark, n) for n in SCALES},
        }
    finally:
        spark.stop()
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
