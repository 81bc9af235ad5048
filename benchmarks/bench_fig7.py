"""Fig. 7 benchmark: P_plw^s (pandas local loops) vs P_plw^pg (DuckDB
local loops) on Yago queries whose fixpoints all have a stable column,
so the forced plan is the one that runs."""
import pytest

from repro.bench.suites import FIXPOINT_CAP, _dist
from repro.core.compiler_spark import FixConfig
from repro.core.paper_queries import YAGO_QUERIES
from repro.core.rpq import parse_query


@pytest.mark.benchmark(group="fig7")
@pytest.mark.parametrize("strategy", ["plw_s", "plw_pg"])
@pytest.mark.parametrize("qid", ["Q1", "Q15"])
def test_plw_impl(benchmark, spark, yago5k, qid, strategy):
    tri, consts, gdf, stats = yago5k
    q = parse_query(YAGO_QUERIES[qid])
    cfg = FixConfig(strategy=strategy, row_cap=FIXPOINT_CAP)
    run = lambda: _dist(spark, gdf, stats, q, consts, cfg).count()
    assert benchmark.pedantic(run, rounds=1, iterations=1) >= 0
    assert cfg.chosen and set(cfg.chosen) == {strategy}
