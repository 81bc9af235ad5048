"""Benchmark of the partition-local kernels, without Spark.

Times, in one process:

* ``compiler_pandas.seminaive_loop`` alone (seeds evaluated beforehand)
  on the inputs of perfbench's local-engines workload — transitive
  closure over rnd_700_0.01 and same generation over tree_700, three
  graphs each — and on the larger closures of ROADMAP.md's kernel probe
  (rnd_1k_0.01, tree_15k, rnd_2k_0.01);
* ``eval_pandas`` and DuckDB (``eval_duckdb``, default threads) on the
  planned terms of yago_lite 30k Q25 and Q21. Q16 is left out: its 23M
  result rows exhaust memory in pandas.

Each case runs once to warm up, then REPEATS times; the JSON records
every time, the median, the row count (both engines must agree) and the
environment (cores, library versions, commit of the evaluated sources).

    PYTHONPATH=src python jobs/kernel_bench.py [--out BENCH_kernel.json]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

import repro
from repro.core.compiler_pandas import eval_pandas, seminaive_loop
from repro.core.compiler_sql import eval_duckdb
from repro.core.cost import GraphStats
from repro.core.fcond import constant_variable_split
from repro.core.paper_queries import YAGO_QUERIES
from repro.core.planner import plan_crpq
from repro.core.queries import same_generation_term
from repro.core.query2mu import GRAPH
from repro.core.rpq import parse_query
from repro.core.terms import Fix, Rel, Union_, Var, compose
from repro.graphs.generators import erdos_renyi, random_tree
from repro.graphs.yago import yago_lite

REPEATS = 5
YAGO_EDGES = 30_000
YAGO_QIDS = ("Q25", "Q21")


def timings(fn) -> tuple[list[float], int]:
    """Warm-up run, then REPEATS timed runs; rows from the last one."""
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        rows = len(fn())
        times.append(time.perf_counter() - t0)
    return times, rows


def record(times: list[float], rows: int) -> dict:
    return {"median_s": statistics.median(times), "times_s": times, "rows": rows}


def kernel_inputs() -> list[tuple[str, Fix, pd.DataFrame]]:
    """(name, fixpoint over R, R) for each kernel case."""
    tc = Fix("X", Union_(Rel("R"), compose(Var("X"), Rel("R"), "m0")))
    sg = same_generation_term("R")

    def parent(tree: pd.DataFrame) -> pd.DataFrame:  # R as (child, parent)
        return tree.rename(columns={"src": "dst", "dst": "src"})[["src", "dst"]]

    cases = []
    for i in range(3):  # perfbench local-engines, --seed 1
        cases.append((f"tc rnd_700_0.01#{i}", tc, erdos_renyi(700, 0.01, seed=3 + i)))
        cases.append((f"sg tree_700#{i}", sg, parent(random_tree(700, seed=3 + i))))
    cases.append(("tc rnd_1k_0.01", tc, erdos_renyi(1000, 0.01, seed=1)))
    cases.append(("tc tree_15k", tc, random_tree(15_000, seed=0)))
    cases.append(("tc rnd_2k_0.01", tc, erdos_renyi(2000, 0.01, seed=1)))
    return cases


def bench_kernel() -> dict:
    out = {}
    for name, fix, rel in kernel_inputs():
        env = {"R": rel}
        const, phi = constant_variable_split(fix)
        seeds = eval_pandas(const, env)
        times, rows = timings(lambda: seminaive_loop(phi, fix.var, seeds, env))
        out[name] = {"edges": len(rel), **record(times, rows)}
        print(f"  seminaive_loop {name:<22} {out[name]['median_s']:8.3f}s rows={rows}", flush=True)
    return out


def bench_yago() -> dict:
    tri, consts = yago_lite(YAGO_EDGES, seed=0)
    stats = GraphStats.from_pandas(tri)
    out = {}
    for qid in YAGO_QIDS:
        term = plan_crpq(parse_query(YAGO_QUERIES[qid]), stats, consts).term
        res = {}
        for system, run in (
            ("pandas", lambda: eval_pandas(term, {GRAPH: tri})),
            ("duckdb", lambda: eval_duckdb(term, {GRAPH: tri})),
        ):
            res[system] = record(*timings(run))
            print(f"  yago_lite_{YAGO_EDGES} {qid} {system:<7} {res[system]['median_s']:8.3f}s "
                  f"rows={res[system]['rows']}", flush=True)
        if res["pandas"]["rows"] != res["duckdb"]["rows"]:
            raise SystemExit(f"{qid}: pandas and DuckDB disagree on the row count")
        out[qid] = res
    return out


def commit() -> str:
    """The commit of the checkout the evaluated ``repro`` sources are in."""
    here = Path(repro.__file__).resolve().parent
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=here, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="BENCH_kernel.json")
    args = ap.parse_args()
    result = {
        "env": {
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "pandas": pd.__version__,
            "numpy": np.__version__,
            "duckdb": duckdb.__version__,
            "commit": commit(),
            "repeats": REPEATS,
        },
        "seminaive_loop": bench_kernel(),
        f"yago_lite_{YAGO_EDGES}": bench_yago(),
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
