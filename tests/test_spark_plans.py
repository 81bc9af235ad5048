"""Spark physical plans for the fixpoint operator (paper §IV): P_gld,
P_plw^s (SetRDD-style pandas local loops), P_plw^pg (per-partition
DuckDB), the auto selection rule, and the P_plw disjointness guarantee."""
import pandas as pd
import pytest

from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_spark import FixConfig, eval_spark
from repro.core.plans import extract_constants
from repro.core.terms import (
    AntiProject,
    EqConst,
    Filter,
    Fix,
    Rel,
    Union_,
    Var,
    compose,
    free_rels,
)
from repro.graphs.generators import erdos_renyi
from tests.conftest import FIG2_FIXPOINT


def right_tc(seed="S", step="E"):
    return Fix("X", Union_(Rel(seed), compose(Var("X"), Rel(step))))


def pairs(df):
    return sorted(map(tuple, df[["src", "dst"]].values.tolist()))


@pytest.mark.parametrize("strategy", ["gld", "plw_s", "plw_pg", "auto"])
def test_fig2_fixpoint_all_strategies(spark, fig2_e, fig2_s, strategy):
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig(strategy=strategy)
    out = eval_spark(right_tc(), env, spark, cfg).toPandas()
    assert pairs(out) == FIG2_FIXPOINT


def test_auto_selects_plw_on_stable_column(spark, fig2_e, fig2_s):
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig(strategy="auto")
    eval_spark(right_tc(), env, spark, cfg).collect()
    assert cfg.chosen == ["plw_s"]


def merged_fix():
    # merged-style fixpoint: both columns change, so no stable column
    return Fix(
        "Z",
        Union_(
            compose(Rel("E"), Rel("E")),
            Union_(
                compose(Rel("E"), Var("Z"), "m1"), compose(Var("Z"), Rel("E"), "m2")
            ),
        ),
    )


def test_auto_falls_back_to_gld_without_stable_column(spark, fig2_e):
    # No stable column → P_gld (paper §IV-B-c); its 20 constant rows fit
    # the broadcast budget, so it runs as one local loop on one worker.
    cfg = FixConfig(strategy="auto")
    out = eval_spark(merged_fix(), {"E": spark.createDataFrame(fig2_e)}, spark, cfg)
    got = out.toPandas()
    assert cfg.chosen == ["gld→local"]
    want = eval_pandas(merged_fix(), {"E": fig2_e.copy()})
    assert pairs(got) == pairs(want)
    assert len(got) == len(set(pairs(got)))


def test_forced_gld_runs_distributed_loop(spark, fig2_e):
    cfg = FixConfig(strategy="gld")
    got = eval_spark(merged_fix(), {"E": spark.createDataFrame(fig2_e)}, spark, cfg)
    assert cfg.chosen == ["gld"]
    assert pairs(got.toPandas()) == pairs(eval_pandas(merged_fix(), {"E": fig2_e.copy()}))


@pytest.mark.parametrize("budget", [5, 15])
def test_no_hand_off_when_constants_overrun_broadcast_budget(
    spark, fig2_e, budget, monkeypatch
):
    # The two 10-row constant relations overrun 5 and 15 rows: the
    # distributed loop runs, and nothing is collected to the driver first.
    cfg = FixConfig(strategy="auto", broadcast_rows=budget)
    env = {"E": spark.createDataFrame(fig2_e)}
    with monkeypatch.context() as m:
        m.setattr(type(env["E"]), "toPandas", lambda self: pytest.fail("collected"))
        got = eval_spark(merged_fix(), env, spark, cfg)
    assert cfg.chosen == ["gld(broadcast-fallback)"]
    assert pairs(got.toPandas()) == pairs(eval_pandas(merged_fix(), {"E": fig2_e.copy()}))


def test_forced_plw_without_stable_column_falls_back(spark, fig2_e):
    cfg = FixConfig(strategy="plw_s")
    eval_spark(merged_fix(), {"E": spark.createDataFrame(fig2_e)}, spark, cfg).collect()
    assert cfg.chosen == ["gld(no-stable-column)"]


@pytest.mark.parametrize("strategy", ["gld", "plw_s", "plw_pg"])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_graph_strategies_agree_with_pandas(spark, strategy, seed):
    e = erdos_renyi(60, 0.04, seed=seed)
    s = e.head(10)
    env = {"S": spark.createDataFrame(s), "E": spark.createDataFrame(e)}
    cfg = FixConfig(strategy=strategy, num_partitions=5)
    got = eval_spark(right_tc(), env, spark, cfg).toPandas()
    want = eval_pandas(right_tc(), {"S": s, "E": e})
    assert pairs(got) == pairs(want)


def test_plw_results_are_globally_distinct_without_final_distinct(spark):
    """The stable-column repartition guarantees disjoint partition
    fixpoints (paper §IV-A2 proof): the mapInPandas output union must
    already be duplicate-free."""
    e = erdos_renyi(80, 0.05, seed=3)
    s = e.head(30)
    env = {"S": spark.createDataFrame(s), "E": spark.createDataFrame(e)}
    cfg = FixConfig(strategy="plw_s", num_partitions=8)
    out = eval_spark(right_tc(), env, spark, cfg)
    assert out.count() == out.dropDuplicates().count()
    assert cfg.chosen == ["plw_s"]


def test_left_linear_plw_partitions_by_dst(spark, fig2_e, fig2_s):
    fix = Fix("X", Union_(Rel("S"), compose(Rel("E"), Var("X"))))
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig(strategy="auto")
    got = eval_spark(fix, env, spark, cfg).toPandas()
    assert cfg.chosen == ["plw_s"]
    want = eval_pandas(fix, {"S": fig2_s.copy(), "E": fig2_e.copy()})
    assert pairs(got) == pairs(want)


def test_filtered_seed_fixpoint_on_spark(spark, fig2_e):
    fix = Fix(
        "X",
        Union_(Filter(EqConst("src", 1), Rel("E")), compose(Var("X"), Rel("E"))),
    )
    env = {"E": spark.createDataFrame(fig2_e)}
    got = eval_spark(fix, env, spark, FixConfig()).toPandas()
    want = eval_pandas(fix, {"E": fig2_e.copy()})
    assert pairs(got) == pairs(want)


def test_nested_fixpoint_on_spark(spark, fig2_e, fig2_s):
    inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Rel("E"))))
    outer = Fix("X", Union_(Rel("S"), compose(Var("X"), inner)))
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig()
    got = eval_spark(outer, env, spark, cfg).toPandas()
    want = eval_pandas(outer, {"S": fig2_s.copy(), "E": fig2_e.copy()})
    assert pairs(got) == pairs(want)
    assert len(cfg.chosen) == 2  # inner evaluated once as a constant


def test_unary_fixpoint_plw(spark, fig2_e):
    # reach-style: fixpoint over {dst} only, seeds filtered to src=1
    seed = AntiProject(("src",), Filter(EqConst("src", 1), Rel("E")))
    fix = Fix("X", Union_(seed, compose(Var("X"), Rel("E"))))
    got = eval_spark(fix, {"E": spark.createDataFrame(fig2_e)}, spark, FixConfig())
    want = eval_pandas(fix, {"E": fig2_e.copy()})
    assert sorted(got.toPandas()["dst"]) == sorted(want["dst"])


class TestRowCap:
    """FixConfig.row_cap turns runaway closures into CapacityError — the
    reproduction's stand-in for the paper's crash markers."""

    def test_gld_cap(self, spark, fig2_e, fig2_s):
        from repro.core.compiler_pandas import CapacityError

        env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
        with pytest.raises(CapacityError):
            eval_spark(
                right_tc(), env, spark, FixConfig(strategy="gld", row_cap=3)
            ).collect()

    def test_plw_cap(self, spark, fig2_e, fig2_s):
        # A tiny row_cap also shrinks the broadcast budget, so P_plw
        # falls back to P_gld, whose cap then fires.
        env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
        with pytest.raises(Exception) as exc:
            eval_spark(
                right_tc(), env, spark, FixConfig(strategy="plw_s", row_cap=2)
            ).collect()
        msg = str(exc.value).lower()
        assert "row_cap" in msg or "capacityerror" in msg

    @pytest.mark.parametrize("strategy", ["plw_s", "plw_pg"])
    def test_plw_cap_in_worker(self, spark, strategy):
        # Chain 0→1→…→20 seeded with all its edges: 20 broadcast rows fit
        # the cap of 100, the 210-row closure of the one partition does not.
        chain = pd.DataFrame({"src": range(20), "dst": range(1, 21)})
        env = {"S": spark.createDataFrame(chain), "E": spark.createDataFrame(chain)}
        cfg = FixConfig(strategy=strategy, row_cap=100, num_partitions=1)
        out = eval_spark(right_tc(), env, spark, cfg)
        assert cfg.chosen == [strategy]
        with pytest.raises(Exception, match="CapacityError"):
            out.collect()

    def test_gld_hand_off_cap_in_worker(self, spark):
        # The merged fixpoint on the chain 0→1→…→20: its 40 constant rows
        # fit the cap of 100, the 190-row closure does not.
        chain = pd.DataFrame({"src": range(20), "dst": range(1, 21)})
        cfg = FixConfig(strategy="auto", row_cap=100)
        out = eval_spark(merged_fix(), {"E": spark.createDataFrame(chain)}, spark, cfg)
        assert cfg.chosen == ["gld→local"]
        with pytest.raises(Exception, match="CapacityError"):
            out.collect()

    def test_plw_broadcast_fallback_records_choice(self, spark, fig2_e, fig2_s):
        env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
        cfg = FixConfig(strategy="plw_s", row_cap=10_000, broadcast_rows=1)
        out = eval_spark(right_tc(), env, spark, cfg).toPandas()
        assert cfg.chosen == ["gld(broadcast-fallback)"]
        assert pairs(out) == FIG2_FIXPOINT

    def test_cap_not_triggered_when_large_enough(self, spark, fig2_e, fig2_s):
        env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
        out = eval_spark(right_tc(), env, spark, FixConfig(row_cap=1000)).toPandas()
        assert pairs(out) == FIG2_FIXPOINT


class TestExtractConstants:
    def test_extracts_maximal_constant_subterms(self):
        phi = compose(Var("X"), Filter(EqConst("src", 1), Rel("E")))
        phi2, consts = extract_constants(phi, "X")
        # The maximal constant subterm is the rename-wrapped filtered E
        # (the whole compose right arm), broadcast pre-renamed.
        assert len(consts) == 1
        name = next(iter(consts))
        assert name in free_rels(phi2)
        extracted = consts[name]
        assert "X" not in str(extracted)
        assert "E" in free_rels(extracted)

    def test_substitution_preserves_semantics(self, fig2_e, fig2_s):
        phi = compose(Var("X"), Filter(EqConst("src", 2), Rel("E")))
        phi2, consts = extract_constants(phi, "X")
        env = {"E": fig2_e.copy(), "X": fig2_s.copy()}
        for name, t in consts.items():
            env[name] = eval_pandas(t, {"E": fig2_e.copy()})
        a = eval_pandas(phi, {"E": fig2_e.copy(), "X": fig2_s.copy()})
        b = eval_pandas(phi2, env)
        assert pairs(a) == pairs(b)

    def test_nested_fix_inside_extracted_term(self):
        inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Rel("E"))))
        phi = compose(Var("X"), inner)
        _, consts = extract_constants(phi, "X")
        from repro.core.terms import walk

        assert any(
            isinstance(s, Fix) for t in consts.values() for s in walk(t)
        )
