"""End-to-end Dist-μ-RA on Spark: planned UCRPQs against the reference
evaluator and against the DuckDB oracle (WITH RECURSIVE SQL)."""
import pytest
from pyspark.sql import functions as F

from repro.core.compiler_spark import FixConfig
from repro.core.cost import GraphStats
from repro.core.planner import evaluate_ucrpq
from repro.core.reference import eval_crpq
from repro.core.rpq import parse_query
from repro.graphs.yago import yago_lite
from repro.oracle import assert_equivalent

QUERIES = [
    "?x, ?y <- ?x a+ ?y",
    "?x <- ?x a+ 7",
    "?x <- 7 a+ ?x",
    "?x, ?y <- ?x a+/b ?y",
    "?x, ?y <- ?x b/a+ ?y",
    "?x, ?y <- ?x a+/b+ ?y",
    "?y <- ?x (a|b)+ ?y",
    "?x, ?y, ?z <- ?x a+ ?y, ?y b ?z",
]


@pytest.mark.parametrize("query", QUERIES)
def test_planned_spark_matches_reference(spark, spark_triples, small_triples_list, query):
    q = parse_query(query)
    out = evaluate_ucrpq(spark, q, spark_triples).toPandas()
    cols = ["v_" + h[1:] for h in q.head]
    got = set(map(tuple, out[cols].values.tolist()))
    assert got == eval_crpq(q, small_triples_list)


def test_fix_strategies_recorded(spark, spark_triples):
    cfg = FixConfig()
    evaluate_ucrpq(spark, "?x, ?y <- ?x a+ ?y", spark_triples, cfg=cfg).collect()
    assert cfg.chosen == ["plw_s"]


def test_gld_forced_matches_auto(spark, spark_triples, small_triples_list):
    q = parse_query("?x <- 7 a+ ?x")
    auto = evaluate_ucrpq(spark, q, spark_triples).toPandas()
    gld = evaluate_ucrpq(spark, q, spark_triples, cfg=FixConfig(strategy="gld")).toPandas()
    assert set(auto["v_x"]) == set(gld["v_x"])


def test_graph_stats_from_spark_matches_pandas(spark, fig2_e):
    fig2 = fig2_e.assign(label=["a", "b"] * 5)[["src", "label", "dst"]]
    yago, _ = yago_lite(300, seed=1)
    for tri in (fig2, yago):
        got = GraphStats.from_spark(spark.createDataFrame(tri))
        assert got == GraphStats.from_pandas(tri)


class TestOracle:
    """DuckDB WITH RECURSIVE as an independent SQL-level oracle: catches
    a wrong rewrite *and* a wrong physical plan in one assert."""

    def test_transitive_closure(self, spark, spark_triples, small_triples):
        out = evaluate_ucrpq(spark, "?x, ?y <- ?x a+ ?y", spark_triples)
        sql = """
        WITH RECURSIVE tc(v_x, v_y) AS (
            SELECT src, dst FROM g WHERE label = 'a'
            UNION
            SELECT tc.v_x, e.dst FROM tc JOIN g e ON tc.v_y = e.src AND e.label = 'a'
        ) SELECT DISTINCT v_x, v_y FROM tc
        """
        assert_equivalent(out, sql, g=small_triples)

    def test_filtered_closure_right(self, spark, spark_triples, small_triples):
        out = evaluate_ucrpq(spark, "?x <- ?x a+ 7", spark_triples)
        sql = """
        WITH RECURSIVE tc(v_x, v_y) AS (
            SELECT src, dst FROM g WHERE label = 'a'
            UNION
            SELECT tc.v_x, e.dst FROM tc JOIN g e ON tc.v_y = e.src AND e.label = 'a'
        ) SELECT DISTINCT v_x FROM tc WHERE v_y = 7
        """
        assert_equivalent(out, sql, g=small_triples)

    def test_filtered_closure_left(self, spark, spark_triples, small_triples):
        out = evaluate_ucrpq(spark, "?x <- 7 a+ ?x", spark_triples)
        sql = """
        WITH RECURSIVE tc(v_y, v_x) AS (
            SELECT src, dst FROM g WHERE label = 'a'
            UNION
            SELECT tc.v_y, e.dst FROM tc JOIN g e ON tc.v_x = e.src AND e.label = 'a'
        ) SELECT DISTINCT v_x FROM tc WHERE v_y = 7
        """
        assert_equivalent(out, sql, g=small_triples)

    def test_concat_closure(self, spark, spark_triples, small_triples):
        out = evaluate_ucrpq(spark, "?x, ?y <- ?x a+/b+ ?y", spark_triples)
        sql = """
        WITH RECURSIVE ta(x, y) AS (
            SELECT src, dst FROM g WHERE label = 'a'
            UNION
            SELECT ta.x, e.dst FROM ta JOIN g e ON ta.y = e.src AND e.label = 'a'
        ), tb(x, y) AS (
            SELECT src, dst FROM g WHERE label = 'b'
            UNION
            SELECT tb.x, e.dst FROM tb JOIN g e ON tb.y = e.src AND e.label = 'b'
        ) SELECT DISTINCT ta.x AS v_x, tb.y AS v_y FROM ta JOIN tb ON ta.y = tb.x
        """
        assert_equivalent(out, sql, g=small_triples)

    def test_inverse_step_closure(self, spark, spark_triples, small_triples):
        out = evaluate_ucrpq(spark, "?x, ?y <- ?x (a/-a)+ ?y", spark_triples)
        sql = """
        WITH RECURSIVE step(x, y) AS (
            SELECT a1.src, a2.src FROM g a1 JOIN g a2
              ON a1.dst = a2.dst AND a1.label = 'a' AND a2.label = 'a'
        ), tc(v_x, v_y) AS (
            SELECT x, y FROM step
            UNION
            SELECT tc.v_x, s.y FROM tc JOIN step s ON tc.v_y = s.x
        ) SELECT DISTINCT v_x, v_y FROM tc
        """
        assert_equivalent(out, sql, g=small_triples)
