"""Non-recursive operators of the Spark compiler: what they cost in
shuffles and Spark jobs, besides the rows they return."""
import pandas as pd

from repro.core import plans
from repro.core.compiler_spark import eval_spark
from repro.core.terms import AntiJoin, AntiProject, EqConst, Filter, Rel

# (1, 2) carries two labels, so dropping ``label`` from all of G leaves a
# duplicate that only a distinct removes.
TRIPLES = pd.DataFrame(
    {"src": [1, 1, 2, 3], "label": ["a", "b", "a", "b"], "dst": [2, 2, 3, 1]}
)


def executed_plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


def rows(df) -> list[tuple]:
    return [tuple(r) for r in df.collect()]


def test_pinned_antiprojection_skips_its_shuffle(spark):
    env = {"G": spark.createDataFrame(TRIPLES)}
    pinned = eval_spark(AntiProject(("label",), Filter(EqConst("label", "a"), Rel("G"))), env, spark)
    assert "Exchange" not in executed_plan(pinned)
    assert sorted(rows(pinned)) == [(1, 2), (2, 3)]

    free = eval_spark(AntiProject(("label",), Rel("G")), env, spark)
    assert "Exchange" in executed_plan(free)
    got = rows(free)
    assert len(got) == len(set(got))
    assert sorted(got) == [(1, 2), (2, 3), (3, 1)]


def test_antijoin_without_shared_columns_runs_no_job(spark):
    env = {
        "L": spark.createDataFrame(TRIPLES[["src", "dst"]].drop_duplicates()),
        "Empty": spark.createDataFrame([], "k long"),
        "Full": spark.createDataFrame(pd.DataFrame({"k": [5, 6]})),
    }
    tracker = spark.sparkContext.statusTracker()
    before = set(tracker.getJobIdsForGroup())
    kept = eval_spark(AntiJoin(Rel("L"), Rel("Empty")), env, spark)
    dropped = eval_spark(AntiJoin(Rel("L"), Rel("Full")), env, spark)
    assert set(tracker.getJobIdsForGroup()) == before
    assert sorted(rows(kept)) == [(1, 2), (2, 3), (3, 1)]
    assert rows(dropped) == []
    assert set(tracker.getJobIdsForGroup()) > before  # the tracker sees jobs


def test_cached_input_stays_cached(spark):
    # The query's temporary views are dropped without uncaching what they
    # read, so a built cache keeps its buffers, and the row count that
    # they give the broadcast budget, across queries.
    g = spark.createDataFrame(TRIPLES).cache()
    g.count()
    cache = spark._jsparkSession.sharedState().cacheManager()
    env = {"G": g}
    for label, want in (("a", [(1, 2), (2, 3)]), ("b", [(1, 2), (3, 1)])):
        out = eval_spark(AntiProject(("label",), Filter(EqConst("label", label), Rel("G"))), env, spark)
        assert sorted(rows(out)) == want
        assert "InMemoryTableScan" in executed_plan(out)
        assert cache.lookupCachedData(g._jdf).isDefined()
        assert plans._row_bound(Rel("G"), env) == len(TRIPLES)
    g.unpersist()
