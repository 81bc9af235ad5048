"""Chained P_plw: a fixpoint whose seeds read a nested P_plw fixpoint on
the same stable column runs in that fixpoint's parts, in one
``mapInPandas`` pass with nothing shuffled between the loops."""
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bigdatalog import eval_crpq_bigdatalog
from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_spark import FixConfig, eval_spark
from repro.core.cost import GraphStats
from repro.core.paper_queries import YAGO_QUERIES
from repro.core.planner import evaluate_ucrpq
from repro.core.reference import eval_crpq
from repro.core.rpq import parse_query, var_col
from repro.core.terms import Fix, Rel, Union_, Var, compose, inverse
from repro.graphs.generators import erdos_renyi
from repro.graphs.yago import yago_lite
from tests.conftest import triples_of


def passes(df) -> tuple[int, int]:
    """The local-loop passes and the seed repartitions of ``df``'s plan
    (its final adaptive plan, once an action has run it). A pass whose
    inputs fit the broadcast budget builds its seeds in its tasks and
    repartitions nothing. A nested fixpoint that does not chain is an
    input of the outer pass, built and collected before it, so its pass
    is not in the plan."""
    plan = df._jdf.queryExecution().executedPlan().toString().split("== Initial Plan ==")[0]
    return plan.count("MapInPandas"), plan.count("REPARTITION_BY_NUM")


def pairs(df: pd.DataFrame) -> list[tuple]:
    return sorted(map(tuple, df[["src", "dst"]].values.tolist()))


# -- the paper's queries ----------------------------------------------------


def test_bigdatalog_q25_runs_both_fixpoints_in_one_pass(spark):
    tri, consts = yago_lite(600, seed=1)
    q = parse_query(YAGO_QUERIES["Q25"])
    cfg = FixConfig()
    out = eval_crpq_bigdatalog(spark, spark.createDataFrame(tri), q, consts, cfg)
    assert cfg.chosen == ["plw_s", "plw_s"]
    assert passes(out) == (1, 0)
    got = [tuple(r) for r in out.select(*map(var_col, q.head)).collect()]
    assert len(got) == len(set(got))
    want = eval_crpq(q, triples_of(tri), consts)
    assert want and set(got) == want


# -- nested closures against the reference evaluator ------------------------

CHAINS = [
    "?x, ?y <- ?x (a/-a)+/b+ ?y",
    "?y <- 1 (a/-a)+/b+ ?y",
    "?x <- ?x (a/-a)+/b+ 2",
    "?x, ?y <- ?x a+/b+/c+ ?y",
    "?y <- 0 a+/b+/c+ ?y",
    "?x <- ?x a+/b+/c+ 3",
]

edges = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from("abc"), st.integers(0, 6)),
    min_size=1,
    max_size=24,
    unique=True,
)


@pytest.mark.parametrize("strategy", ["auto", "plw_s", "plw_pg"])
@settings(max_examples=8, deadline=None)
@given(tri=edges, query=st.sampled_from(CHAINS))
def test_nested_closures_match_reference(spark, strategy, tri, query):
    # Under each strategy, the Dist-μ-RA plan and the BigDatalog-like one,
    # which nests its closures left to right and runs them in one pass.
    q = parse_query(query)
    pdf = pd.DataFrame(tri, columns=["src", "label", "dst"])
    g = spark.createDataFrame(pdf)
    want = eval_crpq(q, tri)
    dist = evaluate_ucrpq(spark, q, g, stats=GraphStats.from_pandas(pdf), cfg=FixConfig(strategy))
    bdl = eval_crpq_bigdatalog(spark, g, q, cfg=FixConfig(strategy))
    assert passes(bdl)[0] == 1
    for out in (dist, bdl):
        got = [tuple(r) for r in out.select(*map(var_col, q.head)).collect()]
        assert len(got) == len(set(got))
        assert set(got) == want


# -- fixpoints that do not chain keep their own passes ------------------------

S = Rel("S")
E = Rel("E")
F = Rel("F")


def right(seeds, step, var="Y"):
    """μ(var = seeds ∪ var∘step): stable column src."""
    return Fix(var, Union_(seeds, compose(Var(var), step)))


CHAINED = Fix("X", Union_(compose(right(S, E), F), compose(Var("X"), F)))


@pytest.fixture(scope="module")
def frames():
    e, f, h = (erdos_renyi(30, 0.06, seed=seed) for seed in (1, 2, 3))
    return {"S": e.head(8), "E": e, "F": f, "H": h}


@pytest.fixture(scope="module")
def env(spark, frames):
    return {name: spark.createDataFrame(df) for name, df in frames.items()}


def run(fix, env, frames, **kwargs):
    cfg = FixConfig(**kwargs)
    out = eval_spark(fix, env, env["E"].sparkSession, cfg)
    got = out.toPandas()
    assert len(got) == len(set(pairs(got)))
    want = eval_pandas(fix, frames)
    assert len(want) > 0
    assert pairs(got) == pairs(want)
    return cfg.chosen, passes(out)


@pytest.mark.parametrize("strategy", ["auto", "plw_s", "plw_pg"])
def test_closure_seeded_by_a_closure_chains(env, frames, strategy):
    engine = "plw_s" if strategy == "auto" else strategy
    assert run(CHAINED, env, frames, strategy=strategy) == ([engine, engine], (1, 0))


NOT_CHAINED = {
    # The inner closure keeps src, the outer one dst (dist Q13's shape).
    "misaligned": Fix("X", Union_(compose(right(S, E), F), compose(F, Var("X")))),
    # A branch of the seeds that does not read the inner closure.
    "free-branch": Fix(
        "X", Union_(Union_(compose(right(S, E), F), S), compose(Var("X"), F))
    ),
    # The inner closure joined with itself (its inverse).
    "self-join": Fix(
        "X", Union_(compose(right(S, E), inverse(right(S, E))), compose(Var("X"), F))
    ),
}


@pytest.mark.parametrize("name, chosen", [
    ("misaligned", ["plw_s"] * 2), ("free-branch", ["plw_s"] * 2), ("self-join", ["plw_s"] * 2),
])
def test_unchainable_fixpoints_keep_their_passes(env, frames, name, chosen):
    # Each fixpoint runs its own pass. The self-join reads the inner one
    # under two renamings, one input of the outer pass: it runs once. The
    # inner pass is built and collected before the outer one, so only the
    # outer one is in the plan.
    assert run(NOT_CHAINED[name], env, frames) == (chosen, (1, 0))


def test_unchained_nested_fixpoint_is_planned_once_over_the_budget(env, frames):
    # The outer pass's inputs, the inner closure and F, overrun a budget
    # of |F|, which its one constant, F, fits. The repartition tier reads
    # the inner closure's frame, built for the first tier.
    budget = len(frames["F"])
    assert run(NOT_CHAINED["misaligned"], env, frames, broadcast_rows=budget) == (
        ["plw_s"] * 2, (1, 1)
    )


def test_chain_over_the_budget_runs_each_fixpoint_alone(env, frames):
    # E and F fit the budget apart but not together.
    budget = max(len(frames["E"]), len(frames["F"]))
    assert run(CHAINED, env, frames, broadcast_rows=budget) == (["plw_s"] * 2, (2, 2))


def test_forced_gld_never_chains(env, frames):
    assert run(CHAINED, env, frames, strategy="gld") == (["gld", "gld"], (0, 0))


THREE = Fix("W", Union_(compose(CHAINED, H := Rel("H")), compose(Var("W"), H)))


def test_three_fixpoints_chain(env, frames):
    assert run(THREE, env, frames) == (["plw_s"] * 3, (1, 0))


def test_three_fixpoints_over_the_budget_chain_the_inner_two(env, frames):
    # The inner two read E and F, which fit the budget; H does not too.
    budget = len(frames["E"]) + len(frames["F"])
    assert run(THREE, env, frames, broadcast_rows=budget) == (["plw_s"] * 3, (2, 2))
