"""Spark physical plans for the fixpoint operator (paper §IV): P_gld,
P_plw^s (SetRDD-style pandas local loops), P_plw^pg (per-partition
DuckDB), the auto selection rule, and the P_plw disjointness guarantee."""
import pandas as pd
import pytest

from repro.core import plans
from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_spark import FixConfig, eval_spark
from repro.core.cost import GraphStats
from repro.core.fcond import constant_variable_split
from repro.core.paper_queries import YAGO_QUERIES
from repro.core.planner import plan_crpq
from repro.core.plans import extract_constants, read_constants, split_inputs
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


def test_hand_off_runs_only_the_inputs_in_spark(spark, fig2_e):
    # Spark counts and collects merged_fix's one input relation, E; the
    # action runs constants, seeds and loop in one Python task.
    sc = spark.sparkContext
    env = {"E": spark.createDataFrame(fig2_e)}
    cfg = FixConfig(strategy="auto")
    try:
        sc.setJobGroup("hand-off-build", "hand-off-build")
        out = eval_spark(merged_fix(), env, spark, cfg)
        sc.setJobGroup("hand-off-action", "hand-off-action")
        got = out.toPandas()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert cfg.chosen == ["gld→local"]
    action = jobs_of(spark, "hand-off-action")
    assert len(jobs_of(spark, "hand-off-build")) + len(action) <= 4
    tracker = sc.statusTracker()
    stages = [s for j in action for s in tracker.getJobInfo(j).stageIds]
    assert sum(tracker.getStageInfo(s).numTasks for s in stages) == 1
    assert pairs(got) == pairs(eval_pandas(merged_fix(), {"E": fig2_e.copy()}))


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

    monkeypatch.setattr(plans, "extract_constants", spy(plans.extract_constants))
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
def test_plw_seeds_shuffle_once(spark, fig2_e, fig2_s, strategy):
    """The local engines deduplicate P_plw's seeds, so the seeds' outermost
    π̃ and ∪ keep duplicates: the repartition by the stable column is the
    one Exchange below the MapInPandas."""
    _, env = dup_seeds_env(spark, fig2_e, fig2_s)
    cfg = FixConfig(strategy=strategy)
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


def atom(label):
    return AntiProject(("label",), Filter(EqConst("label", label), Rel("G")))


class TestSplitInputs:
    """The inputs of a handed-off fixpoint: its maximal subterms that
    Spark evaluates without a shuffle."""

    def test_renamed_copies_share_a_slice_and_count_separately(self):
        local, slices, copies = split_inputs(merged_fix(), "__in_")
        assert slices == {"__in_0": Rel("E")}
        assert copies == {"__in_0": 4}
        assert free_rels(local) == {"__in_0"}

    def test_pinned_antiprojection_is_part_of_an_input(self):
        local, slices, copies = split_inputs(labelled_merged_fix(), "__in_")
        assert slices == {"__in_0": atom("a"), "__in_1": atom("b")}
        assert copies == {"__in_0": 2, "__in_1": 2}
        # A π̃ over a column that is not pinned needs a distinct: the
        # input stops below it.
        fix = Fix("X", Union_(AntiProject(("label",), Rel("G")), compose(Var("X"), Rel("E"))))
        _, slices, _ = split_inputs(fix, "__in_")
        assert set(slices.values()) == {Rel("G"), Rel("E")}

    def test_nested_fixpoint_is_an_input(self):
        _, slices, _ = split_inputs(nested_merged_fix(), "__in_")
        assert right_tc() in slices.values()


class TestReadConstants:
    """The seeds read φ's checkpointed constant relations instead of
    recomputing them."""

    def test_q25_seeds_read_the_co_actor_constant(self):
        tri, consts = yago_lite(600, seed=1)
        term = plan_crpq(YAGO_QUERIES["Q25"], GraphStats.from_pandas(tri), consts).term
        (fix,) = [s for s in walk(term) if isinstance(s, Fix)]
        const, phi = constant_variable_split(fix)
        _, cmap = extract_constants(phi, fix.var)
        seeds = read_constants(const, cmap)
        # __bc_0 is ρ[dst→m2](co-actor composition), __bc_1 ρ[src→m2](hasChild).
        assert seeds == AntiProject(
            ("m1",),
            Join(
                Rename("dst", "m1", Rename("m2", "dst", Rel("__bc_0"))),
                Rename("src", "m1", Rename("m2", "src", Rel("__bc_1"))),
            ),
        )
        # The composition's inverse chain ρ[src→inv_t]/ρ[dst→src]/ρ[inv_t→dst]
        # is evaluated once, inside __bc_0, and no longer in the seeds.
        inv = inverse(atom("actedIn"))
        assert inv in walk(cmap["__bc_0"])
        assert inv in walk(const) and inv not in walk(seeds)
        g = {"G": tri}
        cenv = {**g, **{name: eval_pandas(t, g) for name, t in cmap.items()}}
        want = eval_pandas(const, g)
        assert len(want) > 0
        assert pairs(eval_pandas(seeds, cenv)) == pairs(want)

    def test_read_inverts_outer_renames_in_reverse_order(self, fig2_e):
        core = compose(Rel("E"), Rel("E"))
        # The constant is ρ[src→m9](ρ[inv_t→dst](ρ[dst→src](ρ[src→inv_t](core)))).
        _, cmap = extract_constants(compose(Var("X"), inverse(core), "m9"), "X")
        seeds = read_constants(Union_(core, Rel("E")), cmap)
        read = Rename(
            "inv_t",
            "src",
            Rename("src", "dst", Rename("dst", "inv_t", Rename("m9", "src", Rel("__bc_0")))),
        )
        assert seeds == Union_(read, Rel("E"))
        cenv = {"E": fig2_e, "__bc_0": eval_pandas(cmap["__bc_0"], {"E": fig2_e})}
        want = eval_pandas(Union_(core, Rel("E")), {"E": fig2_e})
        assert pairs(eval_pandas(seeds, cenv)) == pairs(want)

    def test_bare_relations_and_nested_fixpoints_are_not_replaced(self):
        _, cmap = extract_constants(compose(Var("X"), Rel("E")), "X")
        assert read_constants(compose(Rel("E"), Rel("E")), cmap) == compose(Rel("E"), Rel("E"))
        core = compose(Rel("E"), Rel("S"))
        _, cmap = extract_constants(compose(Var("X"), core, "m9"), "X")
        # A nested fixpoint binds its own constants under the same names.
        nested = Fix("Y", Union_(core, compose(Var("Y"), Rel("E"), "m9")))
        assert read_constants(Join(core, nested), cmap) == Join(
            Rename("m9", "src", Rel("__bc_0")), nested
        )
