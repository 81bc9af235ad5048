"""A fixpoint's consumer runs inside its local pass (Proposition 1): the
largest term S[f] around a fixpoint f that is linear in f and reads no
other fixpoint is evaluated in the pass's tasks, S over each part of f.
The parts' outputs stay disjoint when S keeps every column that they are
hashed on; else one distinct follows. A pass of one part (the hand-off)
reads the slices of its base relation in its task, from one filtered
scan, and needs no distinct."""
from unittest import mock

import pandas as pd
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import plans
from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_spark import FixConfig, eval_spark
from repro.core.cost import GraphStats
from repro.core.paper_queries import YAGO_QUERIES
from repro.core.planner import plan_crpq
from repro.core.reference import eval_crpq
from repro.core.rpq import parse_query, var_col
from repro.core.terms import (
    AntiProject,
    EqCol,
    EqConst,
    Filter,
    Fix,
    Rel,
    Rename,
    Union_,
    Var,
    compose,
    subst,
)
from repro.graphs.yago import yago_lite
from tests.conftest import triples_of
from tests.test_plw_chain import edges
from tests.test_spark_plans import atom, build_and_run, pairs

X = Var("X")

# a+ three ways, with the column its parts are hashed on: a right
# closure (stable src), a left one (stable dst), and a merged one, with
# no stable column, which `auto` hands to one task.
CLOSURES = {
    "right": (Fix("X", Union_(atom("a"), compose(X, atom("a")))), "src"),
    "left": (Fix("X", Union_(atom("a"), compose(atom("a"), X))), "dst"),
    "merged": (Fix("X", Union_(atom("a"), Union_(
        compose(atom("a"), X, "m1"), compose(X, atom("a"), "m2")))), None),
}

# S's body over X: its term, its path expression with a+ for X, and the
# columns of X that reach its output unchanged.
BODIES = {
    "X": (X, "a+", {"src", "dst"}),
    "X/b": (compose(X, atom("b")), "a+/b", {"src"}),
    "b/X": (compose(atom("b"), X), "b/a+", {"dst"}),
    "X/b ∪ X/c": (Union_(compose(X, atom("b")), compose(X, atom("c"))), "(a+/b|a+/c)", {"src"}),
    "X ∪ b/X": (Union_(X, compose(atom("b"), X)), "(a+|b/a+)", {"dst"}),
}


def endpoints(body, rx, keeps, end, k):
    """S: ``body`` with the query's endpoints applied, the query, and the
    columns of X that reach S's output."""
    if end == "both":
        t, names, q = body, {"src": "v_x", "dst": "v_y"}, f"?x, ?y <- ?x {rx} ?y"
    elif end == "src=k":  # a pinned π̃
        t, names, q = AntiProject(("src",), Filter(EqConst("src", k), body)), {"dst": "v_y"}, \
            f"?y <- {k} {rx} ?y"
    elif end == "dst=k":
        t, names, q = AntiProject(("dst",), Filter(EqConst("dst", k), body)), {"src": "v_x"}, \
            f"?x <- ?x {rx} {k}"
    elif end == "no dst":  # an unpinned π̃
        t, names, q = AntiProject(("dst",), body), {"src": "v_x"}, f"?x <- ?x {rx} ?y"
    elif end == "no src":
        t, names, q = AntiProject(("src",), body), {"dst": "v_y"}, f"?y <- ?x {rx} ?y"
    else:  # loops
        t, names, q = AntiProject(("dst",), Filter(EqCol("src", "dst"), body)), {"src": "v_x"}, \
            f"?x <- ?x {rx} ?x"
    for old, new in names.items():
        t = Rename(old, new, t)
    return t, parse_query(q), keeps & names.keys()


@pytest.mark.parametrize("strategy", ["auto", "plw_pg", "gld"])
@settings(max_examples=12, deadline=None)
@given(
    tri=edges,
    closure=st.sampled_from(sorted(CLOSURES)),
    body=st.sampled_from(sorted(BODIES)),
    end=st.sampled_from(["both", "src=k", "dst=k", "no dst", "no src", "loops"]),
    k=st.integers(0, 6),
    n=st.sampled_from([1, 3, 4]),
    budget=st.sampled_from([4_000_000, 1]),
)
def test_consumers_match_reference(spark, strategy, tri, closure, body, end, k, n, budget):
    fix, hashed = CLOSURES[closure]
    term, rx, keeps = BODIES[body]
    s, q, kept = endpoints(term, rx, keeps, end, k)
    cfg = FixConfig(strategy, num_partitions=n, broadcast_rows=budget)
    g = spark.createDataFrame(pd.DataFrame(tri, columns=["src", "label", "dst"]))
    out = eval_spark(subst(s, "X", fix), {"G": g}, spark, cfg)
    passed = budget > 1 and cfg.chosen in (["plw_s"], ["plw_pg"], ["gld→local"])
    if passed:
        # S ran in the pass: one distinct follows it unless the parts'
        # outputs are disjoint, or there is one part.
        plan = out._jdf.queryExecution().executedPlan().toString()
        one = hashed is None or n == 1 or hashed in kept
        assert plan.count("Exchange") == (0 if one else 1), plan
    got = [tuple(r) for r in out.select(*map(var_col, q.head)).collect()]
    assert len(got) == len(set(got))
    assert set(got) == eval_crpq(q, tri)


def plan_of(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


@settings(max_examples=6, deadline=None)
@given(tri=edges, k=st.integers(0, 6))
def test_pinned_hashed_column_needs_no_distinct(spark, tri, k):
    # The seeds pin src, the column that the parts are hashed on: all of R
    # is one part of the 3, so S needs no distinct though it drops src.
    fix = Fix("X", Union_(Filter(EqConst("src", k), atom("a")), compose(X, atom("a"))))
    s = Rename("dst", "v_y", AntiProject(("src",), X))
    cfg = FixConfig(num_partitions=3)
    g = spark.createDataFrame(pd.DataFrame(tri, columns=["src", "label", "dst"]))
    out = eval_spark(subst(s, "X", fix), {"G": g}, spark, cfg)
    assert cfg.chosen == ["plw_s"]
    assert "Exchange" not in plan_of(out)
    got = [tuple(r) for r in out.collect()]
    assert len(got) == len(set(got))
    assert set(got) == eval_crpq(parse_query(f"?y <- {k} a+ ?y"), tri)


# c/a*, a right closure (stable src) whose seeds read a slice, σ[label=c]
# of G, that its φ does not.
C_THEN_A = Fix("X", Union_(atom("c"), compose(X, atom("a"))))


@pytest.mark.parametrize("strategy", ["plw_s", "plw_pg"])
@settings(max_examples=8, deadline=None)
@given(
    tri=edges,
    body=st.sampled_from(sorted(BODIES)),
    end=st.sampled_from(["both", "src=k", "no src", "loops"]),
    k=st.integers(0, 6),
    n=st.sampled_from([1, 3]),
)
def test_repartition_tier_runs_consumers_in_its_tasks(spark, strategy, tri, body, end, k, n):
    # A budget that the inputs of the tasks (φ's and S's) fit and the seeds'
    # slice, read by nothing else unrenamed, overruns: Spark builds and
    # repartitions the seeds, and the tasks run the loop and S.
    rows = {label: sum(e[1] == label for e in tri) for label in "abc"}
    assume(rows["c"])
    term, rx, keeps = BODIES[body]
    s, q, kept = endpoints(term, rx.replace("a+", "(c|c/a+)"), keeps, end, k)
    slices = {"X": "", "X/b": "b", "b/X": "b", "X/b ∪ X/c": "bc", "X ∪ b/X": "b"}[body]
    budget = rows["a"] + sum(rows[label] for label in slices)
    cfg = FixConfig(strategy, num_partitions=n, broadcast_rows=budget)
    g = spark.createDataFrame(pd.DataFrame(tri, columns=["src", "label", "dst"]))
    out = eval_spark(subst(s, "X", C_THEN_A), {"G": g}, spark, cfg)
    assert cfg.chosen == [strategy]
    plan = plan_of(out)
    assert plan.count("REPARTITION_BY_NUM") == 1, plan
    # One more Exchange, the final distinct, when S drops the hashed column.
    assert plan.count("Exchange") == 1 + (n > 1 and "src" not in kept), plan
    got = [tuple(r) for r in out.select(*map(var_col, q.head)).collect()]
    assert len(got) == len(set(got))
    assert set(got) == eval_crpq(q, tri)


# -- the hand-off reads its base relation in its one task -------------------


def test_yago_q25_hand_off_is_one_task_with_no_exchange(spark):
    # Building the plan runs no job: G is cached, so its row count bounds
    # the inputs. The action is the one task that scans G and runs the
    # loop and the renames of the head: §IV's "no shuffle during the
    # recursion" for the whole query.
    tri, consts = yago_lite(600, seed=1)
    g = spark.createDataFrame(tri).cache()
    g.count()
    q = parse_query(YAGO_QUERIES["Q25"])
    term = plan_crpq(q, GraphStats.from_pandas(tri), consts).term
    cfg = FixConfig()
    try:
        got, build, tasks = build_and_run(spark, "q25-hand-off", term, {"G": g}, cfg)
        plan = eval_spark(term, {"G": g}, spark, FixConfig())._jdf.queryExecution()
    finally:
        g.unpersist()
    assert cfg.chosen == ["gld→local"]
    assert len(build) == 0
    assert tasks == 1
    assert "Exchange" not in plan.executedPlan().toString()
    rows = set(map(tuple, got[[var_col(h) for h in q.head]].values.tolist()))
    assert len(rows) == len(got)
    want = eval_crpq(q, triples_of(tri), consts)
    assert want and rows == want


def test_one_part_pass_reads_its_scan_and_a_broadcast_fixpoint(spark):
    # Yago Q20's last fixpoint is handed to one task. It reads a slice of
    # G, from its partition, and a nested P_plw fixpoint, broadcast.
    tri, consts = yago_lite(600, seed=1)
    q = parse_query(YAGO_QUERIES["Q20"])
    term = plan_crpq(q, GraphStats.from_pandas(tri), consts).term
    calls, run_local = [], plans._run_local

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return run_local(*args, **kwargs)

    cfg = FixConfig()
    with mock.patch.object(plans, "_run_local", spy):
        out = eval_spark(term, {"G": spark.createDataFrame(tri)}, spark, cfg)
    assert cfg.chosen == ["plw_s", "plw_s", "gld→local"]
    args, kwargs = calls[-1]
    tables, scan = args[1], (args[9] if len(args) > 9 else kwargs.get("scan"))
    assert scan is not None and scan.rel == "G" and scan.slices
    assert tables and not tables.keys() & scan.slices.keys()
    got = [tuple(r) for r in out.select(*map(var_col, q.head)).collect()]
    assert len(got) == len(set(got))
    want = eval_crpq(q, triples_of(tri), consts)
    assert want and set(got) == want


@pytest.mark.parametrize("cached", [False, True])
def test_hand_off_runs_when_its_scan_keeps_no_row(spark, fig2_e, fig2_s, cached):
    # G has no row labelled z. From pandas, Catalyst knows the scan to be
    # empty and would drop a task over it, so G's slice is collected. From
    # a cache, it does not: the one task reads no row of G and still runs
    # the loop from its other seeds, S, over E, both broadcast.
    fix = Fix("Z", Union_(Union_(atom("z"), Rel("S")), Union_(
        compose(Rel("E"), Var("Z"), "m1"), compose(Var("Z"), Rel("E"), "m2"))))
    frames = {"G": fig2_e.assign(label="a"), "S": fig2_s, "E": fig2_e}
    env = {k: spark.createDataFrame(v) for k, v in frames.items()}
    if cached:
        env["G"] = env["G"].cache()
    cfg = FixConfig()
    try:
        got = eval_spark(fix, env, spark, cfg).toPandas()
    finally:
        env["G"].unpersist()
    assert cfg.chosen == ["gld→local"]
    want = eval_pandas(fix, frames)
    assert len(want) > len(fig2_s)
    assert pairs(got) == pairs(want)
