"""Spark-side baselines: the Pregel/GraphX substitute and the
BigDatalog substitute — correctness vs the reference, plus assertions
that each baseline exhibits exactly the capability gap the paper
attributes to it (no reversal, full closures, start-only filtering)."""
import re

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines import pregel
from repro.baselines.bigdatalog import eval_crpq_bigdatalog, plan_crpq_bigdatalog
from repro.baselines.pregel import build_nfa, eval_crpq_pregel
from repro.core import compiler_pandas
from repro.core.compiler_spark import eval_spark
from repro.core.fcond import CapacityError
from repro.core.query2mu import GRAPH
from repro.core.terms import Union_
from repro.core.planner import plan_crpq
from repro.core.cost import GraphStats
from repro.core.reference import eval_crpq
from repro.core.paper_queries import ALL_QUERIES
from repro.core.rewriter import is_pure_closure, match_linear_closure
from repro.core.rpq import Label, Plus, Seq, is_var, parse_query, parse_rx
from repro.core.terms import Fix, walk

QUERIES = [
    "?x, ?y <- ?x a+ ?y",
    "?x <- ?x a+ 7",
    "?x <- 7 a+ ?x",
    "?x, ?y <- ?x a+/b+ ?y",
    "?x, ?y <- ?x -a/b+ ?y",
    "?y <- ?x (a|b)+ ?y",
]


def run_set(df, q):
    cols = ["v_" + h[1:] for h in q.head]
    return set(map(tuple, df.toPandas()[cols].values.tolist()))


@pytest.mark.parametrize("query", QUERIES)
def test_pregel_matches_reference(spark, spark_triples, small_triples_list, query):
    q = parse_query(query)
    got = run_set(eval_crpq_pregel(spark, spark_triples, q), q)
    assert got == eval_crpq(q, small_triples_list)


@pytest.mark.parametrize("query", QUERIES)
def test_bigdatalog_matches_reference(spark, spark_triples, small_triples_list, query):
    q = parse_query(query)
    got = run_set(eval_crpq_bigdatalog(spark, spark_triples, q), q)
    assert got == eval_crpq(q, small_triples_list)


def test_pregel_capacity_error(spark, spark_triples):
    with pytest.raises(CapacityError):
        eval_crpq_pregel(spark, spark_triples, "?x, ?y <- ?x (a|b|c)+ ?y", max_rows=50)


def test_pregel_capacity_error_is_the_engines_one(spark, spark_triples, small_triples):
    # One CapacityError for every engine: a handler for the pandas
    # engine's catches Pregel's message cap too.
    q = parse_query("?x, ?y <- ?x (a|b|c)+ ?y")
    with pytest.raises(Exception) as pandas_cap:
        compiler_pandas.eval_pandas(plan_crpq_bigdatalog(q), {GRAPH: small_triples}, row_cap=50)
    with pytest.raises(type(pandas_cap.value)):
        eval_crpq_pregel(spark, spark_triples, "?x, ?y <- ?x (a|b|c)+ ?y", max_rows=50)


def test_pregel_atoms_run_p_gld(monkeypatch, spark, spark_triples, small_triples_list):
    """Each atom is one fixpoint over the messages, run by forced P_gld."""
    cfgs = []

    def spy(term, env, spark, cfg):
        cfgs.append(cfg)
        return eval_spark(term, env, spark, cfg)

    monkeypatch.setattr(pregel, "eval_spark", spy)
    q = parse_query("?x, ?y <- ?x a+/-b ?y, ?y c+ 7")
    got = run_set(eval_crpq_pregel(spark, spark_triples, q), q)
    assert got == eval_crpq(q, small_triples_list)
    assert [cfg.chosen for cfg in cfgs] == [["gld"], ["gld"]]


def final_exchanges(df) -> int:
    """The exchanges of the final adaptive plan of ``df``, once run."""
    df.collect()
    plan = df._jdf.queryExecution().executedPlan().toString().split("== Initial Plan ==")[0]
    return sum(bool(re.match(r"\w*Exchange\b", n.lstrip(" :+-"))) for n in plan.splitlines())


def test_pregel_superstep_shuffles_like_union_distinct(spark, spark_triples, small_triples):
    """A superstep in both directions deduplicates its two branches once:
    its φ has as many exchanges as GraphX-style union().dropDuplicates()."""
    nodes = sorted(set(small_triples["src"]) | set(small_triples["dst"]))
    msgs = spark.createDataFrame(pd.DataFrame({"origin": nodes, "node": nodes, "state": 0}))
    trans = "state long, label string, nxt long"
    fwd = spark.createDataFrame([(0, "a", 0), (0, "c", 1)], trans)
    bwd = spark.createDataFrame([(0, "b", 0), (1, "a", 0)], trans)
    env = {pregel.M: msgs, GRAPH: spark_triples, pregel.FWD: fwd, pregel.BWD: bwd}
    phi = eval_spark(Union_(pregel.superstep(pregel.FWD), pregel.superstep(pregel.BWD)), env, spark)

    g = spark_triples
    parts = [
        msgs.join(g, msgs["node"] == g[here]).join(t, on=["state", "label"])
        .select("origin", F.col(there).alias("node"), F.col("nxt").alias("state"))
        for t, here, there in ((fwd, "src", "dst"), (bwd, "dst", "src"))
    ]
    graphx = parts[0].union(parts[1]).dropDuplicates()
    assert final_exchanges(phi) == final_exchanges(graphx)
    cols = ["origin", "node", "state"]
    assert sorted(phi.select(cols).collect()) == sorted(graphx.select(cols).collect())


class TestBigdatalogCapabilityGap:
    """The paper's §VI claims, verified on the generated plans."""

    def test_c2_keeps_full_closure(self):
        # ?x a+ C: no reversal ⇒ the closure stays pure (full TC + filter)
        term = plan_crpq_bigdatalog("?x <- ?x a+ 7")
        fixes = [s for s in walk(term) if isinstance(s, Fix)]
        assert len(fixes) == 1
        assert is_pure_closure(fixes[0]) is not None

    def test_c2_distmura_seeds_instead(self, small_triples):
        rep = plan_crpq("?x <- ?x a+ 7", GraphStats.from_pandas(small_triples))
        fixes = [s for s in walk(rep.term) if isinstance(s, Fix)]
        assert all(is_pure_closure(f) is None for f in fixes)

    def test_c3_pushes_like_magic_sets(self):
        # 7 a+ ?x: leading constant IS pushed (magic sets can do this)
        term = plan_crpq_bigdatalog("?x <- 7 a+ ?x")
        fixes = [s for s in walk(term) if isinstance(s, Fix)]
        assert len(fixes) == 1
        assert is_pure_closure(fixes[0]) is None  # seeded

    def test_c6_no_merge(self):
        # a+/b+ stays two fixpoints (first one full) — no merged plan
        term = plan_crpq_bigdatalog("?x, ?y <- ?x a+/b+ ?y")
        fixes = [s for s in walk(term) if isinstance(s, Fix)]
        assert len(fixes) == 2
        assert any(is_pure_closure(f) is not None for f in fixes)

    def test_c6_distmura_merges(self, small_triples):
        rep = plan_crpq("?x, ?y <- ?x a+/b+ ?y", GraphStats.from_pandas(small_triples))
        fixes = [s for s in walk(rep.term) if isinstance(s, Fix)]
        assert len(fixes) == 1

    @pytest.mark.parametrize("qid", list(ALL_QUERIES))
    def test_paper_queries_stay_left_to_right(self, qid):
        # Every fixpoint is a closure with one recursive branch, growing on
        # the right: nothing merged, nothing reversed. The plan does not
        # read the graph, so any ints stand in for the named constants.
        q = parse_query(ALL_QUERIES[qid])
        ends = (e for a in q.atoms for e in (a.subj, a.obj) if not is_var(e))
        consts = {e: i for i, e in enumerate(ends)}
        fixes = [s for s in walk(plan_crpq_bigdatalog(q, consts)) if isinstance(s, Fix)]
        assert fixes
        for fix in fixes:
            lc = match_linear_closure(fix)
            assert lc is not None and lc.orientation == "right", fix


class TestNFA:
    def test_label_nfa(self):
        nfa = build_nfa(parse_rx("a"))
        assert len(nfa.trans) == 1

    def test_plus_loops(self):
        nfa = build_nfa(parse_rx("a+"))
        closure = nfa.eps_closure()
        # after one 'a', we can be back at a state accepting another 'a'
        (s, lbl, inv, t) = nfa.trans[0]
        assert s in closure[t] or any(x == s for x in closure[t])

    def test_seq_two_transitions(self):
        nfa = build_nfa(parse_rx("a/b"))
        assert len(nfa.trans) == 2

    def test_alt_inverse(self):
        nfa = build_nfa(parse_rx("(a|-b)"))
        invs = {inv for _, _, inv, _ in nfa.trans}
        assert invs == {False, True}
