"""BigDatalog-like baseline (paper §V-C, §VI).

BigDatalog is a distributed semi-naive Datalog engine on Spark. Its
*optimization capability envelope*, as characterized by the paper:

* programs are written/evaluated **left-to-right** (left-linear rules);
* Magic Sets / Demand Transformation push selections and propagate
  bindings *in that direction only* — a leading constant seeds the
  recursion, bindings flow into subsequent closures;
* **no fixpoint reversal** — a filter to the *right* of a recursion
  (class C2) cannot be pushed: the full closure is computed, then
  filtered;
* **no fixpoint merging** (impossible in the Datalog framework) —
  concatenated closures a⁺/b⁺ compute the full first closure and chain;
* it *does* have decomposable-plan distribution (GPS + SetRDD), so its
  fixpoints run with the same communication-efficient physical plan as
  Dist-μ-RA's P_plw when a stable column exists.

We reproduce exactly that: the planner's ``ltr`` skeleton of each
branch (:func:`repro.core.planner.skeleton`), the MuRewriter's rules
less reversal and merging, and the shared physical fixpoint machinery.
"""
from __future__ import annotations

from functools import partial
from typing import Mapping

from pyspark.sql import DataFrame, SparkSession

from ..core.compiler_spark import FixConfig, eval_spark
from ..core.fcond import union_of
from ..core.planner import skeleton
from ..core.query2mu import (
    DST,
    GRAPH,
    GRAPH_SCHEMA,
    SRC,
    _Fresh,
    endpoint_values,
    join_project_head,
    name_endpoints,
)
from ..core.rewriter import (
    rewrite,
    try_filter_descend,
    try_push_antiproject,
    try_push_filter,
    try_push_join,
)
from ..core.rpq import CRPQ, distribute_alts, parse_query, seq_items
from ..core.terms import AntiProject, Term

# The MuRewriter's two phases less reversal (try_reverse_push_filter and
# the reversing push-join) and merging (try_merge).
_RULES = (
    (try_push_filter, try_filter_descend, try_push_antiproject),
    (partial(try_push_join, reverse=False),),
)


def plan_crpq_bigdatalog(q: CRPQ | str, consts: Mapping[str, int] | None = None) -> Term:
    """Left-to-right Datalog-style logical plan: each branch is the
    planner's ``ltr`` skeleton, rewritten without reversal or merging."""
    if isinstance(q, str):
        q = parse_query(q)
    consts = consts or {}
    atom_terms = []
    for atom in q.atoms:
        subj_v, obj_v = endpoint_values(atom, consts)
        t = union_of([
            rewrite(skeleton(seq_items(rx), subj_v, obj_v, _Fresh()), GRAPH_SCHEMA, *_RULES)
            for rx in distribute_alts(atom.rx)
        ])
        for col, v in ((SRC, subj_v), (DST, obj_v)):
            if v is not None:
                t = AntiProject((col,), t)
        atom_terms.append(name_endpoints(t, atom))
    return join_project_head(atom_terms, q)


def eval_crpq_bigdatalog(
    spark: SparkSession,
    graph: DataFrame,
    q: CRPQ | str,
    consts: Mapping[str, int] | None = None,
    cfg: FixConfig | None = None,
) -> DataFrame:
    """Evaluate with BigDatalog's plan; physical fixpoints use the same
    decomposable machinery (auto = SetRDD-style local loops when a
    stable column exists, as BigDatalog's GPS technique provides)."""
    term = plan_crpq_bigdatalog(q, consts)
    return eval_spark(term, {GRAPH: graph}, spark, cfg or FixConfig())
