"""Logical plan enumeration + cost-based selection + physical dispatch.

End-to-end pipeline (paper Fig. 3):

    UCRPQ text ──parse──▶ CRPQ ──Query2Mu──▶ naive μ-RA
        ──MuRewriter+candidates──▶ logical plans ──CostEstimator──▶ best
        ──PhysicalPlanGenerator──▶ Spark execution (plans.py)

Candidate generation works per atom branch (after alternation
distribution). For a branch ``t1/t2/…/tk`` with optional endpoint
constants, four skeletons are built, all using the constructive forms
from :mod:`repro.core.rewriter`:

* **ltr** — left-to-right: closures are right-oriented; the subject
  filter is applied at construction start (so the MuRewriter pass can
  seed everything from the left); the object filter lands outside.
* **rtl** — the mirror image (fixpoint-reversal made constructive).
* **merged-ltr / merged-rtl** — the first/last adjacent pure-closure
  pair becomes one merged fixpoint (merge-fixpoints rule), remaining
  items are seeded around it.

Each skeleton then goes through :func:`repro.core.rewriter.rewrite`
(pushes filters/antiprojections into fixpoints, seeds closures) and the
cheapest per the :class:`repro.core.cost.CostModel` wins — the paper's
MuRewriter + CostEstimator in miniature.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .compiler_spark import FixConfig, eval_spark
from .cost import CostModel, GraphStats
from .fcond import union_of
from .query2mu import (
    DST,
    GRAPH,
    GRAPH_SCHEMA,
    SRC,
    _Fresh,
    _resolve,
    join_project_head,
    rx_to_term,
)
from .rewriter import closure, merged_closure, rewrite, seeded_closure
from .rpq import CRPQ, Atom, Plus, Rx, distribute_alts, is_var, parse_query, var_col
from .terms import (
    AntiProject,
    EqCol,
    EqConst,
    Filter,
    Rename,
    Term,
    Union_,
    compose,
    fresh_mid,
    schema,
)


@dataclass
class PlanReport:
    """Chosen logical plan plus what the optimizer considered."""

    term: Term
    cost: float
    candidates: list[tuple[str, float]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Branch skeletons
# ---------------------------------------------------------------------------


def _items(rx: Rx) -> list[Rx]:
    from .rpq import Seq

    return list(rx.parts) if isinstance(rx, Seq) else [rx]


def _base(rx: Rx, fresh: _Fresh) -> Term:
    return rx_to_term(rx, fresh)


def _ltr_skeleton(items: list[Rx], subj_v: Optional[int], fresh: _Fresh) -> Term:
    acc: Optional[Term] = None
    for it in items:
        if isinstance(it, Plus):
            step = _base(it.child, fresh)
            if acc is None:
                acc = closure(step, "right")
                if subj_v is not None:
                    acc = Filter(EqConst(SRC, subj_v), acc)
                    subj_v = None
            else:
                seed = compose(acc, step, fresh_mid(acc, step))
                acc = seeded_closure(seed, step, "right")
        else:
            t = _base(it, fresh)
            if acc is None:
                acc = Filter(EqConst(SRC, subj_v), t) if subj_v is not None else t
                subj_v = None
            else:
                acc = compose(acc, t, fresh_mid(acc, t))
    assert acc is not None
    return acc


def _rtl_skeleton(items: list[Rx], obj_v: Optional[int], fresh: _Fresh) -> Term:
    acc: Optional[Term] = None
    for it in reversed(items):
        if isinstance(it, Plus):
            step = _base(it.child, fresh)
            if acc is None:
                acc = closure(step, "left")
                if obj_v is not None:
                    acc = Filter(EqConst(DST, obj_v), acc)
                    obj_v = None
            else:
                seed = compose(step, acc, fresh_mid(acc, step))
                acc = seeded_closure(seed, step, "left")
        else:
            t = _base(it, fresh)
            if acc is None:
                acc = Filter(EqConst(DST, obj_v), t) if obj_v is not None else t
                obj_v = None
            else:
                acc = compose(t, acc, fresh_mid(acc, t))
    assert acc is not None
    return acc


def _merged_skeletons(
    items: list[Rx], subj_v: Optional[int], obj_v: Optional[int], fresh: _Fresh
) -> list[tuple[str, Term]]:
    """Merge an adjacent pure-closure pair, then chain the rest."""
    out: list[tuple[str, Term]] = []
    pairs = [
        i
        for i in range(len(items) - 1)
        if isinstance(items[i], Plus) and isinstance(items[i + 1], Plus)
    ]
    if not pairs:
        return out
    for name, i in (("merged-first", pairs[0]), ("merged-last", pairs[-1])):
        a = _base(items[i].child, fresh)
        b = _base(items[i + 1].child, fresh)
        merged = merged_closure(a, b)
        # Chain items before i (LTR into the merged fix's left) and after
        # i+1 (appended on the right).
        acc: Term = merged
        if i > 0:
            left = _ltr_skeleton(items[:i], subj_v, fresh)
            acc = compose(left, acc, fresh_mid(left, acc))
        elif subj_v is not None:
            acc = Filter(EqConst(SRC, subj_v), acc)
        for it in items[i + 2 :]:
            if isinstance(it, Plus):
                step = _base(it.child, fresh)
                seed = compose(acc, step, fresh_mid(acc, step))
                acc = seeded_closure(seed, step, "right")
            else:
                t = _base(it, fresh)
                acc = compose(acc, t, fresh_mid(acc, t))
        if obj_v is not None:
            acc = Filter(EqConst(DST, obj_v), acc)
        out.append((name, acc))
        if pairs[0] == pairs[-1]:
            break
    return out


def plan_branch(
    items: list[Rx],
    subj_v: Optional[int],
    obj_v: Optional[int],
    cm: CostModel,
    drop_src: bool = False,
    drop_dst: bool = False,
) -> tuple[Term, float, list[tuple[str, float]]]:
    """Enumerate skeletons for one alternation-free branch, rewrite each
    with MuRewriter, cost them, return the cheapest.

    ``drop_src``/``drop_dst``: the endpoint is not needed downstream
    (constant endpoint, or a variable absent from the head and every
    other atom) — the antiprojection is applied *before* costing so the
    push-antiprojection rewrite influences plan choice (e.g. reach-style
    queries prefer the orientation whose fixpoint carries one column).
    """
    env = GRAPH_SCHEMA
    cands: list[tuple[str, Term]] = []
    fresh = _Fresh()
    ltr = _ltr_skeleton(items, subj_v, fresh)
    if obj_v is not None:
        ltr = Filter(EqConst(DST, obj_v), ltr)
    cands.append(("ltr", ltr))
    rtl = _rtl_skeleton(items, obj_v, fresh)
    if subj_v is not None:
        rtl = Filter(EqConst(SRC, subj_v), rtl)
    cands.append(("rtl", rtl))
    cands.extend(_merged_skeletons(items, subj_v, obj_v, fresh))

    drops = tuple(c for c, d in ((SRC, drop_src), (DST, drop_dst)) if d)
    best: tuple[Term, float] | None = None
    scored: list[tuple[str, float]] = []
    for name, skel in cands:
        if drops and drops != (SRC, DST):
            skel = AntiProject(drops, skel)
        t = rewrite(skel, env)
        c = cm.cost(t)
        scored.append((name, c))
        if best is None or c < best[1]:
            best = (t, c)
    assert best is not None
    return best[0], best[1], scored


# ---------------------------------------------------------------------------
# Atom / query level
# ---------------------------------------------------------------------------


def plan_atom(
    atom: Atom,
    consts: Mapping[str, int],
    cm: CostModel,
    droppable: frozenset[str] = frozenset(),
) -> tuple[Term, float, list]:
    """Plan one atom. ``droppable`` lists this atom's endpoint variables
    that no other atom and no head position needs."""
    subj_v = None if is_var(atom.subj) else _resolve(atom.subj, consts)
    obj_v = None if is_var(atom.obj) else _resolve(atom.obj, consts)
    same_var = is_var(atom.subj) and atom.subj == atom.obj
    drop_src = (subj_v is not None) or (atom.subj in droppable and not same_var)
    drop_dst = (obj_v is not None) or (atom.obj in droppable and not same_var)
    if drop_src and drop_dst:
        drop_dst = False  # keep at least one column (0-ary relations unsupported)
    branches = distribute_alts(atom.rx)
    terms: list[Term] = []
    total = 0.0
    scored_all: list[tuple[str, float]] = []
    for rx in branches:
        t, c, scored = plan_branch(_items(rx), subj_v, obj_v, cm, drop_src, drop_dst)
        terms.append(t)
        total += c
        scored_all.extend(scored)
    t = union_of(terms)
    # Endpoint finishing: name the surviving variable columns.
    if same_var:
        t = Rename(SRC, var_col(atom.subj), AntiProject((DST,), Filter(EqCol(SRC, DST), t)))
        return t, total, scored_all
    if is_var(atom.subj) and not drop_src:
        t = Rename(SRC, var_col(atom.subj), t)
    if is_var(atom.obj) and not drop_dst:
        t = Rename(DST, var_col(atom.obj), t)
    return t, total, scored_all


def plan_crpq(
    q: CRPQ | str,
    stats: GraphStats,
    consts: Mapping[str, int] | None = None,
) -> PlanReport:
    """Optimize a CRPQ into the best logical μ-RA term."""
    if isinstance(q, str):
        q = parse_query(q)
    consts = consts or {}
    cm = CostModel(stats)
    # A variable is droppable inside its atom when the head does not ask
    # for it and no other endpoint occurrence needs it for a join.
    occurrences: dict[str, int] = {}
    for a in q.atoms:
        for e in (a.subj, a.obj):
            if is_var(e):
                occurrences[e] = occurrences.get(e, 0) + 1
    droppable = frozenset(
        v for v, n in occurrences.items() if n == 1 and v not in q.head
    )
    atom_terms = []
    total = 0.0
    scored: list[tuple[str, float]] = []
    for a in q.atoms:
        t, c, s = plan_atom(a, consts, cm, droppable)
        atom_terms.append(t)
        total += c
        scored.extend(s)
    term = join_project_head(atom_terms, q)
    # Final pass: the head antiprojection may push into a top fixpoint
    # (e.g. reach-style queries keeping only destinations).
    term = rewrite(term, GRAPH_SCHEMA)
    return PlanReport(term=term, cost=total, candidates=scored)


# ---------------------------------------------------------------------------
# Execution front door
# ---------------------------------------------------------------------------


def evaluate_ucrpq(
    spark: SparkSession,
    query: CRPQ | str,
    graph: DataFrame,
    consts: Mapping[str, int] | None = None,
    stats: GraphStats | None = None,
    cfg: FixConfig | None = None,
) -> DataFrame:
    """Plan and run a UCRPQ against a (src,label,dst) triples DataFrame."""
    if stats is None:
        stats = GraphStats.from_spark(graph)
    report = plan_crpq(query, stats, consts)
    return eval_spark(report.term, {GRAPH: graph}, spark, cfg or FixConfig())
