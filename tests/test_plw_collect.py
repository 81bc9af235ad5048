"""A pass whose inputs fit the broadcast budget collects the slices of
each base relation in one filtered scan, and the driver cuts each slice
from it (``plans._collect``): the frames equal the slices' own
``toPandas()``, and the pass runs one collect job per base relation."""
import pandas as pd
import pytest

from repro.core import plans
from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_spark import FixConfig, eval_spark
from repro.core.terms import (
    EqCol,
    EqConst,
    Filter,
    Fix,
    Rel,
    Rename,
    Union_,
    Var,
    compose,
    inverse,
)
from repro.graphs.generators import add_labels, erdos_renyi
from tests.test_spark_plans import atom, build_and_run, jobs_of, pairs, right_tc

# G: labelled edges with self-loops (for σ[src=dst]); H: int32 edges.
G = pd.DataFrame(
    {
        "src": [1, 1, 2, 3, 3, 4, 5, 5, 6, 7],
        "label": ["a", "b", "a", "c", "a", "b", "b", "a", "c", "a"],
        "dst": [2, 1, 3, 3, 4, 5, 6, 5, 7, 1],
    }
)
H = [(1, 2), (2, 3), (3, 4), (9, 9)]

SLICES = {
    # G: ρ after σ, ρ before σ, σ[col=col] (also through a ρ), a pinned π̃
    "g_renamed": Rename("dst", "m", Filter(EqConst("label", "a"), Rel("G"))),
    "g_filtered_renamed": Filter(
        EqConst("x", 3), Rename("src", "x", Filter(EqConst("label", "a"), Rel("G")))
    ),
    "g_loops": Filter(EqCol("src", "dst"), Rel("G")),
    "g_loops_renamed": Filter(
        EqCol("x", "dst"), Rename("src", "x", Filter(EqConst("label", "b"), Rel("G")))
    ),
    "g_inverse": Filter(EqConst("dst", 5), inverse(atom("b"))),
    "g_pinned": atom("c"),
    "g_pinned_as_renamed": atom("a"),  # the σ of g_renamed again
    # H: the bare relation, so the whole of it, and a σ over it
    "h": Rel("H"),
    "h_from_2": Filter(EqConst("src", 2), Rel("H")),
    # over a nested fixpoint: its own checkpoint and collect
    "closure": Filter(EqConst("src", 1), right_tc("E", "E")),
}


def test_grouped_frames_equal_per_slice_frames(spark):
    env = {
        "G": spark.createDataFrame(G),
        "H": spark.createDataFrame(H, "src int, dst int"),
        "E": spark.createDataFrame(pd.DataFrame(H, columns=["src", "dst"])),
    }
    cfg = FixConfig()
    want = {name: eval_spark(core, env, spark, cfg) for name, core in SLICES.items()}
    frames = {
        name: want[name].localCheckpoint(eager=False) if plans._base(core) is None else None
        for name, core in SLICES.items()
    }
    sc = spark.sparkContext
    try:
        sc.setJobGroup("grouped-collect", "grouped-collect")
        tables, fields = plans._collect(SLICES, env, frames.__getitem__, spark)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # One job per base relation (G and H) and one for the nested fixpoint.
    assert len(jobs_of(spark, "grouped-collect")) == 3
    for name, df in want.items():
        expected = df.toPandas()
        assert len(expected) > 0, name
        pd.testing.assert_frame_equal(tables[name], expected, obj=name)
        declared = [(c, f.dataType, f.nullable) for c, f in fields[name].items()]
        assert declared == [(f.name, f.dataType, f.nullable) for f in df.schema], name


def test_quoted_constants_are_bound_as_parameters(spark):
    # Spark SQL reads backslash escapes in a string literal; a bound
    # parameter reaches the rows as it is.
    labels = ["it's", "a\\b", "c"]
    tri = add_labels(erdos_renyi(30, 0.15, seed=3), labels, seed=4)
    step = Union_(atom(labels[0]), atom(labels[1]))
    fix = Fix("X", Union_(step, compose(Var("X"), step)))
    cfg = FixConfig(strategy="plw_s")
    got = eval_spark(fix, {"G": spark.createDataFrame(tri)}, spark, cfg).toPandas()
    assert cfg.chosen == ["plw_s"]
    want = eval_pandas(fix, {"G": tri})
    assert len(want) > 0
    assert pairs(got) == pairs(want)


def test_cached_base_stays_cached_after_a_pass(spark, small_triples):
    g = spark.createDataFrame(small_triples).cache()
    g.count()
    cache = spark._jsparkSession.sharedState().cacheManager()
    fix = Fix("X", Union_(atom("a"), compose(Var("X"), atom("b"))))
    cfg = FixConfig(strategy="plw_s")
    try:
        got = eval_spark(fix, {"G": g}, spark, cfg).toPandas()
        assert cfg.chosen == ["plw_s"]
        assert cache.lookupCachedData(g._jdf).isDefined()
        assert plans._row_bound(Rel("G"), {"G": g}) == len(small_triples)
    finally:
        g.unpersist()
    assert pairs(got) == pairs(eval_pandas(fix, {"G": small_triples}))


@pytest.mark.parametrize("strategy", ["auto", "plw_pg"])
def test_four_label_closure_builds_in_one_collect(spark, strategy):
    # Shaped like Yago Q21, (a|b|c|d)+: four slices of G, one collect job.
    tri = add_labels(erdos_renyi(40, 0.08, seed=1), list("abcd"), seed=2)
    step = Union_(Union_(atom("a"), atom("b")), Union_(atom("c"), atom("d")))
    fix = Fix("X", Union_(step, compose(Var("X"), step)))
    cfg = FixConfig(strategy=strategy)
    env = {"G": spark.createDataFrame(tri)}
    got, build, _ = build_and_run(spark, f"q21-{strategy}", fix, env, cfg)
    assert cfg.chosen == ["plw_s" if strategy == "auto" else strategy]
    assert len(build) == 1
    want = eval_pandas(fix, {"G": tri})
    assert len(want) > 0
    assert pairs(got) == pairs(want)
