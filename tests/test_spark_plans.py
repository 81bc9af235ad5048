"""Spark physical plans for the fixpoint operator (paper §IV): P_gld,
P_plw^s (SetRDD-style pandas local loops), P_plw^pg (per-partition
DuckDB), the auto selection rule, and the P_plw disjointness guarantee."""
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.baselines.bigdatalog import plan_crpq_bigdatalog
from repro.core import plans
from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_spark import FixConfig, columns, eval_spark
from repro.core.cost import GraphStats
from repro.core.fcond import constant_variable_split
from repro.core.paper_queries import YAGO_QUERIES
from repro.core.planner import plan_crpq
from repro.core.plans import _copies, _peel, _replace, split_inputs
from repro.core.reference import eval_rx_pairs
from repro.core.rpq import Label, Plus
from repro.core.terms import (
    AntiProject,
    EqConst,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    Union_,
    Var,
    compose,
    free_rels,
    inverse,
    is_constant_in,
    walk,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.yago import yago_lite
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


def jobs_of(spark, group):
    """Job ids of a job group, once the listener bus has recorded them."""
    sc = spark.sparkContext
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return sc.statusTracker().getJobIdsForGroup(group)


def build_and_run(spark, group, fix, env, cfg):
    """Build ``fix`` and collect it, under the job groups ``group``-build
    and ``group``-action. Returns the rows, the build's job ids, and the
    number of the action's tasks."""
    sc = spark.sparkContext
    try:
        sc.setJobGroup(f"{group}-build", group)
        out = eval_spark(fix, env, spark, cfg)
        sc.setJobGroup(f"{group}-action", group)
        got = out.toPandas()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    action = jobs_of(spark, f"{group}-action")
    stages = [s for j in action for s in tracker.getJobInfo(j).stageIds]
    tasks = sum(tracker.getStageInfo(s).numTasks for s in stages)
    return got, jobs_of(spark, f"{group}-build"), tasks


def test_hand_off_runs_only_the_inputs_in_spark(spark, fig2_e):
    # merged_fix's one input relation, E, is built from pandas, so its
    # row count bounds it with no job: building the plan runs no job. The
    # action scans E, and builds constants, seeds and loop, in one Python
    # task.
    env = {"E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig(strategy="auto")
    got, build, tasks = build_and_run(spark, "hand-off", merged_fix(), env, cfg)
    assert cfg.chosen == ["gld→local"]
    assert len(build) == 0
    assert tasks == 1
    assert pairs(got) == pairs(eval_pandas(merged_fix(), {"E": fig2_e.copy()}))


def test_hand_off_counts_inputs_without_a_row_bound(spark, fig2_e):
    # Built from a list, E has no row count in Catalyst: one job counts
    # it, and the action's one task reads it.
    env = {"E": spark.createDataFrame(fig2_e.values.tolist(), "src long, dst long")}
    cfg = FixConfig(strategy="auto")
    got, build, tasks = build_and_run(spark, "hand-off-count", merged_fix(), env, cfg)
    assert cfg.chosen == ["gld→local"]
    assert len(build) == 1
    assert tasks == 1
    assert pairs(got) == pairs(eval_pandas(merged_fix(), {"E": fig2_e.copy()}))


@pytest.mark.parametrize("strategy", ["gld", "plw_s", "auto"])
def test_closure_over_range_built_edges(spark, strategy):
    # A 5-edge chain from spark.range: its columns are non-nullable, so
    # Catalyst infers isnotnull constraints for them, which the
    # checkpoints of P_gld's loop once carried into a failing union.
    n = 5
    edges = spark.range(n).select(F.col("id").alias("src"), (F.col("id") + 1).alias("dst"))
    cfg = FixConfig(strategy=strategy)
    got = pairs(eval_spark(right_tc("E", "E"), {"E": edges}, spark, cfg).toPandas())
    want = eval_rx_pairs(Plus(Label("e")), [(i, "e", i + 1) for i in range(n)])
    assert len(want) == 15
    assert got == sorted(want)


def test_plw_collects_bounded_inputs_without_counting(spark, small_triples):
    # The inputs, ρ(σ[label=a](G)) and ρ(σ[label=b](G)), are bounded by
    # the rows of G, built from pandas, and fit the budget: building the
    # plan collects both slices of G in one job and counts nothing. The
    # tasks build the seeds, so the action shuffles nothing.
    fix = Fix("X", Union_(atom("a"), compose(Var("X"), atom("b"))))
    env = {"G": spark.createDataFrame(small_triples)}
    cfg = FixConfig(strategy="plw_s")
    got, build, _ = build_and_run(spark, "plw", fix, env, cfg)
    assert cfg.chosen == ["plw_s"]
    assert len(build) == 1
    want = eval_pandas(fix, {"G": small_triples})
    assert len(want) > 0
    assert pairs(got) == pairs(want)


def test_plw_collects_bounded_constants_without_counting(spark, small_triples):
    # The seeds, π̃(G), and φ's one constant, ρ(σ[label=b](G)), overrun a
    # budget of |G| together, as one job counts; the constant, bounded by
    # the rows of G, fits it. Building the plan collects the constant in
    # one more job and does not count it.
    fix = Fix("X", Union_(AntiProject(("label",), Rel("G")), compose(Var("X"), atom("b"))))
    env = {"G": spark.createDataFrame(small_triples)}
    cfg = FixConfig(strategy="plw_s", broadcast_rows=len(small_triples))
    got, build, _ = build_and_run(spark, "plw-constants", fix, env, cfg)
    assert cfg.chosen == ["plw_s"]
    assert len(build) == 2
    want = eval_pandas(fix, {"G": small_triples})
    assert len(want) > 0
    assert pairs(got) == pairs(want)


def nested_merged_fix():
    # merged_fix whose seeds compose a right closure (stable column src)
    # with E: the closure is one of the outer fixpoint's inputs.
    return Fix(
        "Z",
        Union_(
            compose(right_tc(), Rel("E")),
            Union_(
                compose(Rel("E"), Var("Z"), "m1"), compose(Var("Z"), Rel("E"), "m2")
            ),
        ),
    )


@pytest.mark.parametrize(
    "budget, outer", [(4_000_000, "gld→local"), (15, "gld(broadcast-fallback)")]
)
def test_hand_off_plans_nested_fixpoint_once(spark, fig2_e, fig2_s, budget, outer):
    # The closure's 10 rows of E fit a budget of 15; the outer inputs, the
    # 10-row closure and three renamed copies of E, are 40 rows.
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig(strategy="auto", broadcast_rows=budget)
    got = eval_spark(nested_merged_fix(), env, spark, cfg).toPandas()
    assert cfg.chosen == ["plw_s", outer]
    want = eval_pandas(nested_merged_fix(), {"S": fig2_s.copy(), "E": fig2_e.copy()})
    assert len(want) > 0
    assert pairs(got) == pairs(want)


def labelled_merged_fix():
    return Fix(
        "Z",
        Union_(
            compose(atom("a"), atom("b")),
            Union_(compose(atom("a"), Var("Z"), "m1"), compose(Var("Z"), atom("b"), "m2")),
        ),
    )


@pytest.mark.parametrize("copies", [1, 2])
def test_hand_off_counts_renamed_copies_of_inputs(
    spark, small_triples, spark_triples, copies, monkeypatch
):
    # Both slices, σ[label=a] and σ[label=b] of G, are read under two
    # renames each: the budget must hold both copies, and nothing is
    # collected when it does not.
    a, b = (len(small_triples[small_triples["label"] == x]) for x in "ab")
    cfg = FixConfig(strategy="auto", broadcast_rows=copies * (a + b))
    env = {"G": spark_triples}
    if copies == 1:
        with monkeypatch.context() as m:
            m.setattr(type(spark_triples), "toPandas", lambda self: pytest.fail("collected"))
            out = eval_spark(labelled_merged_fix(), env, spark, cfg)
        assert cfg.chosen == ["gld(broadcast-fallback)"]
    else:
        out = eval_spark(labelled_merged_fix(), env, spark, cfg)
        assert cfg.chosen == ["gld→local"]
    want = eval_pandas(labelled_merged_fix(), {"G": small_triples})
    assert len(want) > 0
    assert pairs(out.toPandas()) == pairs(want)


@pytest.mark.parametrize("case", ["bigdatalog-q20", "hand-off"])
def test_local_runs_declare_the_columns_of_gld(spark, fig2_e, case):
    # A P_plw pass of three chained fixpoints, and a gld→local hand-off:
    # the one local runner declares the columns, in order and with their
    # types, that the distributed loop returns on the same term.
    if case == "bigdatalog-q20":
        tri, consts = yago_lite(600, seed=1)
        term = plan_crpq_bigdatalog(YAGO_QUERIES["Q20"], consts)
        env, labels = {"G": spark.createDataFrame(tri)}, ["plw_s"] * 3
    else:
        term, env, labels = merged_fix(), {"E": spark.createDataFrame(fig2_e)}, ["gld→local"]
    cfg = FixConfig()
    local = eval_spark(term, env, spark, cfg)
    assert cfg.chosen == labels
    gld = eval_spark(term, env, spark, FixConfig(strategy="gld"))
    assert local.dtypes == gld.dtypes
    got, want = (sorted(map(tuple, df.toPandas().values.tolist())) for df in (local, gld))
    assert got and got == want


def test_fixpoint_columns_are_those_of_its_constant_part():
    env = {"S": {"dst": "int", "src": "str"}, "E": {"src": "long", "dst": "long"}}
    # The constant part of the outer fixpoint reads the inner one.
    outer = Fix("X", Union_(compose(right_tc(), Rel("E")), compose(Var("X"), Rel("E"))))
    for fix in (right_tc(), outer):
        const, _ = constant_variable_split(fix)
        assert list(columns(fix, env).items()) == list(columns(const, env).items())
    assert list(columns(right_tc(), env).items()) == [("dst", "int"), ("src", "str")]


@pytest.mark.parametrize("strategy", ["gld", "auto"])
def test_nested_fixpoint_binds_no_name_of_the_outer_one(
    spark, fig2_e, fig2_s, strategy, monkeypatch
):
    bound = []

    def spy(fn):
        def wrapper(*args):
            out = fn(*args)
            bound.append(set(out[1]))
            return out

        return wrapper

    monkeypatch.setattr(plans, "split_inputs", spy(plans.split_inputs))
    env = {"S": spark.createDataFrame(fig2_s), "E": spark.createDataFrame(fig2_e)}
    eval_spark(nested_merged_fix(), env, spark, FixConfig(strategy=strategy)).collect()
    outer, inner = bound
    assert outer and inner and not outer & inner


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


def dup_seeds():
    """Seeds whose outermost π̃ and ∪ make duplicates: each row of S is
    also in T under two labels."""
    return Union_(AntiProject(("label",), Rel("T")), Rel("S"))


def dup_seeds_env(spark, fig2_e, fig2_s):
    t = pd.concat([fig2_s.assign(label="a"), fig2_s.assign(label="b")], ignore_index=True)
    frames = {"T": t, "S": fig2_s, "E": fig2_e}
    return frames, {k: spark.createDataFrame(v) for k, v in frames.items()}


def dup_tc():
    return Fix("X", Union_(dup_seeds(), compose(Var("X"), Rel("E"))))


@pytest.mark.parametrize("strategy", ["plw_s", "plw_pg"])
def test_plw_seeds_shuffle_nowhere_when_inputs_fit(spark, fig2_e, fig2_s, strategy):
    """The inputs T, S and E fit the budget: the tasks build the seeds,
    and no Exchange is below the MapInPandas."""
    _, env = dup_seeds_env(spark, fig2_e, fig2_s)
    cfg = FixConfig(strategy=strategy)
    out = eval_spark(dup_tc(), env, spark, cfg)
    assert cfg.chosen == [strategy]
    below = out._jdf.queryExecution().executedPlan().toString().split("MapInPandas", 1)[1]
    assert "Exchange" not in below
    assert pairs(out.toPandas()) == FIG2_FIXPOINT


@pytest.mark.parametrize("strategy", ["plw_s", "plw_pg"])
def test_plw_seeds_shuffle_once(spark, fig2_e, fig2_s, strategy):
    """The inputs overrun a budget of |E|, which φ's one constant, E,
    fits. The local engines deduplicate P_plw's seeds, so the seeds'
    outermost π̃ and ∪ keep duplicates: the repartition by the stable
    column is the one Exchange below the MapInPandas."""
    _, env = dup_seeds_env(spark, fig2_e, fig2_s)
    cfg = FixConfig(strategy=strategy, broadcast_rows=len(fig2_e))
    out = eval_spark(dup_tc(), env, spark, cfg)
    assert cfg.chosen == [strategy]
    below = out._jdf.queryExecution().executedPlan().toString().split("MapInPandas", 1)[1]
    assert below.count("Exchange") == 1
    assert pairs(out.toPandas()) == FIG2_FIXPOINT


def dup_merged_fix():
    return Fix("Z", Union_(dup_seeds(), Union_(
        compose(Rel("E"), Var("Z"), "m1"), compose(Var("Z"), Rel("E"), "m2")
    )))


@pytest.mark.parametrize("fix, kwargs, chosen", [
    (dup_tc(), {"strategy": "gld"}, "gld"),
    (dup_tc(), {"strategy": "plw_s", "broadcast_rows": 1}, "gld(broadcast-fallback)"),
    (dup_merged_fix(), {"strategy": "plw_s"}, "gld(no-stable-column)"),
    (dup_merged_fix(), {"strategy": "auto", "broadcast_rows": 1}, "gld(broadcast-fallback)"),
], ids=["gld", "plw-broadcast-fallback", "no-stable-column", "hand-off-fallback"])
def test_gld_seeds_are_sets(spark, fig2_e, fig2_s, fix, kwargs, chosen):
    """P_gld's X starts as its seeds, so every path to it keeps them a set."""
    frames, env = dup_seeds_env(spark, fig2_e, fig2_s)
    cfg = FixConfig(**kwargs)
    got = eval_spark(fix, env, spark, cfg).toPandas()
    assert cfg.chosen == [chosen]
    assert len(got) == len(set(pairs(got)))
    assert pairs(got) == pairs(eval_pandas(fix, frames))


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
        from repro.core.fcond import CapacityError

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


def constants(phi, var="X"):
    """φ with its maximal subterms constant in ``var`` named, as P_gld
    binds them, and the core of each name."""
    return split_inputs([phi], "__bc_", lambda t: is_constant_in(t, var))


class TestExtractConstants:
    def test_extracts_maximal_constant_subterms(self):
        phi = compose(Var("X"), Filter(EqConst("src", 1), Rel("E")))
        (phi2,), consts = constants(phi)
        # The maximal constant subterm is the rename-wrapped filtered E
        # (the whole compose right arm): its core is named, and φ reads
        # it renamed.
        assert consts == {"__bc_0": Filter(EqConst("src", 1), Rel("E"))}
        assert free_rels(phi2) == {"__bc_0"}

    def test_substitution_preserves_semantics(self, fig2_e, fig2_s):
        phi = compose(Var("X"), Filter(EqConst("src", 2), Rel("E")))
        (phi2,), consts = constants(phi)
        env = {"E": fig2_e.copy(), "X": fig2_s.copy()}
        for name, t in consts.items():
            env[name] = eval_pandas(t, {"E": fig2_e.copy()})
        a = eval_pandas(phi, {"E": fig2_e.copy(), "X": fig2_s.copy()})
        b = eval_pandas(phi2, env)
        assert pairs(a) == pairs(b)

    def test_nested_fix_inside_extracted_term(self):
        inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Rel("E"))))
        phi = compose(Var("X"), inner)
        _, consts = constants(phi)
        assert any(isinstance(s, Fix) for t in consts.values() for s in walk(t))


def atom(label):
    return AntiProject(("label",), Filter(EqConst("label", label), Rel("G")))


class TestSplitInputs:
    """The inputs of a pass: the maximal subterms of its terms that Spark
    evaluates without a shuffle."""

    def test_renamed_copies_share_a_slice_and_count_separately(self):
        (body,), slices = split_inputs([merged_fix().body], "__in_")
        assert slices == {"__in_0": Rel("E")}
        assert _copies(body) == {"__in_0": 4}
        assert free_rels(body) == {"__in_0"}

    def test_pinned_antiprojection_is_part_of_an_input(self):
        (body,), slices = split_inputs([labelled_merged_fix().body], "__in_")
        assert slices == {"__in_0": atom("a"), "__in_1": atom("b")}
        assert _copies(body) == {"__in_0": 2, "__in_1": 2}
        # A π̃ over a column that is not pinned needs a distinct: the
        # input stops below it.
        fix = Fix("X", Union_(AntiProject(("label",), Rel("G")), compose(Var("X"), Rel("E"))))
        _, slices = split_inputs([fix.body], "__in_")
        assert set(slices.values()) == {Rel("G"), Rel("E")}

    def test_nested_fixpoint_is_an_input(self):
        _, slices = split_inputs([nested_merged_fix().body], "__in_")
        assert right_tc() in slices.values()


def core_reads(consts):
    """Each constant's core, unless a bare relation, mapped to a read of
    its relation, as P_gld's seeds read them."""
    return {core: Rel(name) for name, core in consts.items() if not isinstance(core, Rel)}


class TestReadConstants:
    """P_gld's seeds read φ's checkpointed constant cores instead of
    recomputing them."""

    def test_q25_seeds_read_the_co_actor_constant(self):
        tri, consts = yago_lite(600, seed=1)
        term = plan_crpq(YAGO_QUERIES["Q25"], GraphStats.from_pandas(tri), consts).term
        (fix,) = [s for s in walk(term) if isinstance(s, Fix)]
        const, phi = constant_variable_split(fix)
        _, cmap = constants(phi, fix.var)
        reads = core_reads(cmap)
        seeds = _replace(const, reads)
        # __bc_0 holds the co-actor composition, __bc_1 hasChild.
        assert seeds == AntiProject(
            ("m1",),
            Join(Rename("dst", "m1", Rel("__bc_0")), Rename("src", "m1", Rel("__bc_1"))),
        )
        # The composition's inverse chain ρ[src→inv_t]/ρ[dst→src]/ρ[inv_t→dst]
        # is evaluated once, inside __bc_0, and no longer in the seeds.
        inv = inverse(atom("actedIn"))
        assert inv in walk(cmap["__bc_0"])
        assert inv in walk(const) and inv not in walk(seeds)
        g = {"G": tri}
        cenv = {**g, **{read.name: eval_pandas(core, g) for core, read in reads.items()}}
        want = eval_pandas(const, g)
        assert len(want) > 0
        assert pairs(eval_pandas(seeds, cenv)) == pairs(want)

    def test_bare_relations_and_nested_fixpoints_are_not_replaced(self):
        _, cmap = constants(compose(Var("X"), Rel("E")))
        ee = compose(Rel("E"), Rel("E"))
        assert _replace(ee, core_reads(cmap)) == ee
        core = compose(Rel("E"), Rel("S"))
        _, cmap = constants(compose(Var("X"), core, "m9"))
        # A nested fixpoint binds its own constants under other names.
        nested = Fix("Y", Union_(core, compose(Var("Y"), Rel("E"), "m9")))
        assert _replace(Join(core, nested), core_reads(cmap)) == Join(Rel("__bc_0"), nested)


@st.composite
def bounded_terms(draw):
    """A chain of σ, ρ and π̃, as an input slice is, over a leaf with a row
    count in Catalyst: P built from pandas, C a built cache, or R a
    spark.range."""
    t = draw(st.sampled_from([Rel("P"), Rel("C"), Rel("R")]))
    cols = ["id"] if t == Rel("R") else ["src", "dst"]
    for op in draw(st.lists(st.sampled_from("σρπ"), max_size=4)):
        c = draw(st.sampled_from(cols))
        if op == "σ":
            t = Filter(EqConst(c, draw(st.integers(0, 12))), t)
        elif op == "ρ":
            t, cols = Rename(c, c + "'", t), [c + "'" if d == c else d for d in cols]
        elif len(cols) > 1:
            t, cols = AntiProject((c,), t), [d for d in cols if d != c]
    return t


class TestRowBound:
    """plans._row_bound: an upper bound on a term's rows, read from
    Catalyst's row counts without a Spark job."""

    @pytest.fixture(scope="class")
    def frames(self, fig2_e):
        return {"P": fig2_e, "C": fig2_e.iloc[:6], "R": pd.DataFrame({"id": range(4)})}

    @pytest.fixture(scope="class")
    def env(self, spark, frames):
        cached = spark.createDataFrame(frames["C"]).cache()
        cached.count()  # builds the cache's buffers, which count its rows
        yield {"P": spark.createDataFrame(frames["P"]), "C": cached, "R": spark.range(4)}
        cached.unpersist()

    def test_leaves_are_exact(self, env, frames):
        for name, pdf in frames.items():
            assert plans._row_bound(Rel(name), env) == len(pdf)

    @settings(max_examples=60, deadline=None)
    @given(t=bounded_terms())
    def test_bound_is_never_below_the_count(self, env, frames, t):
        bound = plans._row_bound(t, env)
        assert bound is not None
        assert bound >= len(eval_pandas(t, frames))

    @pytest.mark.parametrize("make", [
        lambda spark, pdf: spark.createDataFrame(pdf.values.tolist(), "src long, dst long"),
        lambda spark, pdf: spark.createDataFrame(pdf).localCheckpoint(),
        lambda spark, pdf: spark.range(8).filter("id > 1"),
        lambda spark, pdf: spark.createDataFrame(pdf).sample(0.5, seed=1),
        lambda spark, pdf: spark.createDataFrame(pdf).sample(0.5, seed=1).cache(),
    ], ids=["list", "checkpoint", "filter", "sample", "unbuilt-cache"])
    def test_no_bound_without_a_counted_leaf(self, spark, env, fig2_e, make):
        # A sample's count in Catalyst is an estimate, which can be below
        # the true count; so is that of a cache of a sample before its
        # buffers are built.
        env = {**env, "L": make(spark, fig2_e)}
        assert plans._row_bound(Rel("L"), env) is None
        assert plans._row_bound(Filter(EqConst("src", 1), Rel("L")), env) is None
        env["L"].unpersist()

    def test_no_bound_over_a_fixpoint(self, env):
        assert plans._row_bound(Filter(EqConst("src", 1), right_tc("P", "C")), env) is None
