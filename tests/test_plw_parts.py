"""P_plw parts chosen by hash: when a pass's inputs fit the broadcast
budget, each of n tasks builds the seeds and keeps the rows whose stable
columns hash to its number. The parts must be disjoint and cover the
seeds, in every process, and the pass must shuffle nothing."""
import json
import os
import pickle
import subprocess
import sys
from unittest import mock

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines.bigdatalog import eval_crpq_bigdatalog
from repro.core import plans
from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_spark import FixConfig, eval_spark
from repro.core.cost import GraphStats
from repro.core.planner import evaluate_ucrpq
from repro.core.reference import eval_crpq
from repro.core.rpq import parse_query, var_col
from repro.core.terms import AntiProject, EqConst, Filter, Fix, Rel, Union_, Var, compose
from tests.test_plw_chain import CHAINS, edges


def atom(label):
    return AntiProject(("label",), Filter(EqConst("label", label), Rel("G")))


# A right closure (stable column src) and a left one (stable column dst),
# each with the query that the reference evaluator answers for it.
CLOSURES = {
    "right": (Fix("X", Union_(compose(atom("a"), atom("b")), compose(Var("X"), atom("b")))),
              "?x, ?y <- ?x a/b+ ?y"),
    "left": (Fix("X", Union_(compose(atom("a"), atom("b")), compose(atom("a"), Var("X")))),
             "?x, ?y <- ?x a+/b ?y"),
}


def local_outputs():
    """A patch of the local runner that keeps the frames it returns: the
    union of the parts' results, before any distinct."""
    outs, run_local = [], plans._run_local

    def spy(*args, **kwargs):
        outs.append(run_local(*args, **kwargs))
        return outs[-1]

    return outs, mock.patch.object(plans, "_run_local", spy)


@pytest.mark.parametrize("strategy", ["auto", "plw_s", "plw_pg"])
@settings(max_examples=6, deadline=None)
@given(
    tri=edges,
    query=st.sampled_from([*CHAINS, *CLOSURES]),
    n=st.sampled_from([1, 2, 3, 5, 8]),
)
def test_hashed_parts_are_disjoint_and_match_reference(spark, strategy, tri, query, n):
    pdf = pd.DataFrame(tri, columns=["src", "label", "dst"])
    g = spark.createDataFrame(pdf)
    outs, patch = local_outputs()
    with patch:
        if query in CLOSURES:
            term, text = CLOSURES[query]
            q = parse_query(text)
            out = eval_spark(term, {"G": g}, spark, FixConfig(strategy, num_partitions=n))
            results = [out.withColumnRenamed("src", "v_x").withColumnRenamed("dst", "v_y")]
        else:
            q = parse_query(query)
            cfg = FixConfig(strategy, num_partitions=n)
            dist = evaluate_ucrpq(spark, q, g, stats=GraphStats.from_pandas(pdf), cfg=cfg)
            bdl = eval_crpq_bigdatalog(spark, g, q, cfg=FixConfig(strategy, num_partitions=n))
            results = [dist, bdl]
        want = eval_crpq(q, tri)
        for out in results:
            got = [tuple(r) for r in out.select(*map(var_col, q.head)).collect()]
            assert len(got) == len(set(got))
            assert set(got) == want
        assert outs
        for out in outs:  # no part repeats a row of another
            rows = [tuple(r) for r in out.collect()]
            assert len(rows) == len(set(rows))


# -- the hash is the same in every process ------------------------------------

ROWS = pd.DataFrame({
    "i": [0, 1, 2, 3, 7, 42, -5, 2**40, 123456789, 9],
    "s": ["a", "b", "node:17", "", "ünï", "x" * 40, "3", "Q25", "hasChild", "m1"],
})
N = 5
CASES = (["i"], ["s"], ["i", "s"])

PROBE = """
import json, pickle, sys
from repro.core.plans import _hash_parts
rows, cases, n = pickle.load(sys.stdin.buffer)
print(json.dumps({"parts": [_hash_parts(rows, cols, n).tolist() for cols in cases],
                  "builtin": [hash(s) % n for s in rows["s"]]}))
"""


def probe(hashseed: str) -> dict:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", PROBE], input=pickle.dumps((ROWS, CASES, N)),
                         env=env, capture_output=True, check=True)
    return json.loads(out.stdout)


def test_hash_parts_agree_across_processes():
    driver = [plans._hash_parts(ROWS, cols, N).tolist() for cols in CASES]
    one, two = probe("1"), probe("2")
    assert one["parts"] == two["parts"] == driver
    assert all(0 <= p < N for parts in driver for p in parts)
    assert len(set(driver[1])) > 1
    # Python's own string hash differs between the two processes: parts
    # chosen by it would lose or repeat rows.
    assert one["builtin"] != two["builtin"]


def test_string_stable_column_on_spark(spark):
    # A right closure over string nodes, hashed on its stable column src.
    e = pd.DataFrame({"src": [f"n{i}" for i in range(12)], "dst": [f"n{i + 1}" for i in range(12)]})
    s = e.iloc[::3].reset_index(drop=True)
    fix = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("E"))))
    cfg = FixConfig(strategy="plw_s", num_partitions=3)
    env = {"S": spark.createDataFrame(s), "E": spark.createDataFrame(e)}
    got = eval_spark(fix, env, spark, cfg).toPandas()
    assert cfg.chosen == ["plw_s"]
    rows = sorted(map(tuple, got[["src", "dst"]].values.tolist()))
    want = eval_pandas(fix, {"S": s, "E": e})
    assert len(rows) == len(set(rows))
    assert rows == sorted(map(tuple, want[["src", "dst"]].values.tolist()))
