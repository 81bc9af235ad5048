"""Spark-side baselines: the Pregel/GraphX substitute and the
BigDatalog substitute — correctness vs the reference, plus assertions
that each baseline exhibits exactly the capability gap the paper
attributes to it (no reversal, full closures, start-only filtering)."""
import pytest

from repro.baselines.bigdatalog import eval_crpq_bigdatalog, plan_crpq_bigdatalog
from repro.baselines.pregel import CapacityError, build_nfa, eval_crpq_pregel
from repro.core import compiler_pandas
from repro.core.planner import plan_crpq
from repro.core.cost import GraphStats
from repro.core.reference import eval_crpq
from repro.core.rewriter import is_pure_closure
from repro.core.rpq import Label, Plus, Seq, parse_query, parse_rx
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


def test_pregel_capacity_error_is_the_engines_one(spark, spark_triples):
    # One CapacityError for every engine: a handler for the pandas
    # engine's catches Pregel's message cap too.
    with pytest.raises(compiler_pandas.CapacityError):
        eval_crpq_pregel(spark, spark_triples, "?x, ?y <- ?x (a|b|c)+ ?y", max_rows=50)


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
