"""Fig. 9 benchmark: the class-C2 showcase Q9 ((actedIn/-actedIn)+ C)
across systems — Dist-μ-RA's reversal+push vs the baselines' full
closures."""
import pytest

from repro.baselines.bigdatalog import eval_crpq_bigdatalog
from repro.baselines.centralized import eval_term_centralized
from repro.bench.suites import FIXPOINT_CAP, _dist
from repro.core.compiler_spark import FixConfig
from repro.core.paper_queries import YAGO_QUERIES
from repro.core.planner import plan_crpq
from repro.core.rpq import parse_query

QID = "Q9"


@pytest.mark.benchmark(group="fig9")
def test_dist_mura(benchmark, spark, yago5k):
    tri, consts, gdf, stats = yago5k
    q = parse_query(YAGO_QUERIES[QID])
    run = lambda: _dist(spark, gdf, stats, q, consts).count()
    assert benchmark.pedantic(run, rounds=1, iterations=1) >= 0


@pytest.mark.benchmark(group="fig9")
def test_dist_mura_gld(benchmark, spark, yago5k):
    tri, consts, gdf, stats = yago5k
    q = parse_query(YAGO_QUERIES[QID])
    run = lambda: _dist(
        spark, gdf, stats, q, consts, FixConfig(strategy="gld", row_cap=FIXPOINT_CAP)
    ).count()
    assert benchmark.pedantic(run, rounds=1, iterations=1) >= 0


@pytest.mark.benchmark(group="fig9")
def test_bigdatalog(benchmark, spark, yago5k):
    tri, consts, gdf, stats = yago5k
    q = parse_query(YAGO_QUERIES[QID])
    run = lambda: eval_crpq_bigdatalog(spark, gdf, q, consts).count()
    assert benchmark.pedantic(run, rounds=1, iterations=1) >= 0


@pytest.mark.benchmark(group="fig9")
def test_centralized(benchmark, spark, yago5k):
    tri, consts, gdf, stats = yago5k
    q = parse_query(YAGO_QUERIES[QID])
    rep = plan_crpq(q, stats, consts)
    run = lambda: len(eval_term_centralized(rep.term, tri))
    assert benchmark.pedantic(run, rounds=1, iterations=1) >= 0
