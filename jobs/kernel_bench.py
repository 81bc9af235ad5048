"""Benchmark of the partition-local kernels, without Spark.

Times:

* ``compiler_pandas.seminaive_loop`` alone (seeds evaluated beforehand)
  on the inputs of perfbench's local-engines workload — transitive
  closure over rnd_700_0.01 and same generation over tree_700, three
  graphs each — on the larger closures of ROADMAP.md's kernel probe
  (rnd_1k_0.01, tree_15k, rnd_2k_0.01), and on rnd_1k_0.01 with its node
  ids spread by 2¹⁶, whose domain is over ``compiler_pandas.DENSE_BITS``;
* ``eval_pandas`` and DuckDB (``eval_duckdb``, default threads) on the
  planned terms of yago_lite 30k Q25 and Q21. Q16 is left out: its 23M
  result rows exhaust memory in pandas.

Each case runs in a fresh process: a case timed after another one
depends on what that one allocated and freed (yago_lite 30k Q21 under
DuckDB ran 2 % faster after a sorted-key pandas kernel than after the
bitmap one, and the same in a process of its own). There it runs once to
warm up, then REPEATS times. The JSON records every time, the median,
the row count (both engines must agree), the
encoding that each fixpoint's X ends with (``RowSet.encoding``: dense,
sorted or index) and the environment (cores, library versions, commit of
the evaluated sources).

    PYTHONPATH=src python jobs/kernel_bench.py [--out BENCH_kernel.json]
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

from repro.bench.harness import commit
from repro.core import compiler_pandas
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


def x_encodings(fn) -> list[str]:
    """The encoding that each X ends with while ``fn()`` runs, in the
    order the loops start (a RowSet subclass records them)."""
    made = []

    class Recorded(compiler_pandas.RowSet):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    compiler_pandas.RowSet = Recorded
    try:
        fn()
    finally:
        compiler_pandas.RowSet = Recorded.__base__
    return [x.encoding for x in made]


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
    cases.append(("tc rnd_1k_0.01 ids×2¹⁶", tc, erdos_renyi(1000, 0.01, seed=1) * (1 << 16)))
    return cases


def in_child(fn, *args):
    """``fn(*args)`` in a fresh process."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def kernel_case(name: str) -> dict:
    fix, rel = {n: (f, r) for n, f, r in kernel_inputs()}[name]
    env = {"R": rel}
    const, phi = constant_variable_split(fix)
    seeds = eval_pandas(const, env)
    run = lambda: seminaive_loop(phi, fix.var, seeds, env)  # noqa: E731
    (enc,) = x_encodings(run)
    return {"edges": len(rel), "x_encoding": enc, **record(*timings(run))}


def bench_kernel() -> dict:
    out = {}
    for name, _, _ in kernel_inputs():
        out[name] = in_child(kernel_case, name)
        print(f"  seminaive_loop {name:<24} {out[name]['median_s']:8.3f}s "
              f"rows={out[name]['rows']} X={out[name]['x_encoding']}", flush=True)
    return out


def yago_case(qid: str, system: str) -> dict:
    tri, consts = yago_lite(YAGO_EDGES, seed=0)
    term = plan_crpq(parse_query(YAGO_QUERIES[qid]), GraphStats.from_pandas(tri), consts).term
    evaluate = {"pandas": eval_pandas, "duckdb": eval_duckdb}[system]
    out = record(*timings(lambda: evaluate(term, {GRAPH: tri})))
    if system == "pandas":
        out["x_encodings"] = x_encodings(lambda: eval_pandas(term, {GRAPH: tri}))
    return out


def bench_yago() -> dict:
    out = {}
    for qid in YAGO_QIDS:
        res = {}
        for system in ("pandas", "duckdb"):
            res[system] = in_child(yago_case, qid, system)
            print(f"  yago_lite_{YAGO_EDGES} {qid} {system:<7} {res[system]['median_s']:8.3f}s "
                  f"rows={res[system]['rows']}", flush=True)
        if res["pandas"]["rows"] != res["duckdb"]["rows"]:
            raise SystemExit(f"{qid}: pandas and DuckDB disagree on the row count")
        out[qid] = res
    return out


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
