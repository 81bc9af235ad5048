"""Logical plan enumeration + cost-based selection + physical dispatch.

End-to-end pipeline (paper Fig. 3):

    UCRPQ text ──parse──▶ CRPQ ──Query2Mu──▶ naive μ-RA
        ──MuRewriter+candidates──▶ logical plans ──CostEstimator──▶ best
        ──PhysicalPlanGenerator──▶ Spark execution (plans.py)

Candidate generation works per atom branch (after alternation
distribution). For a branch ``t1/t2/…/tk`` with optional endpoint
constants, up to four skeletons are built by one builder,
:func:`skeleton`, from the constructive forms of
:mod:`repro.core.rewriter`:

* **ltr** — left-to-right: closures are right-oriented; the subject
  filter is applied at construction start (so the MuRewriter pass can
  seed everything from the left); the object filter lands outside.
  The BigDatalog baseline plans each branch as this skeleton alone.
* **rtl** — the mirror image (fixpoint-reversal made constructive).
* **merged-first / merged-last** — the first/last adjacent pure-closure
  pair becomes one merged fixpoint (merge-fixpoints rule), and the ltr
  chain is built around it.

Each skeleton then goes through :func:`repro.core.rewriter.rewrite`
(pushes filters/antiprojections into fixpoints, seeds closures) and the
cheapest per the :class:`repro.core.cost.CostModel` wins — the paper's
MuRewriter + CostEstimator in miniature.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

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
    endpoint_values,
    join_project_head,
    name_endpoints,
    rx_to_term,
)
from .rewriter import closure, merged_closure, rewrite, seeded_closure
from .rpq import CRPQ, Atom, Plus, Rx, distribute_alts, is_var, parse_query, seq_items
from .terms import AntiProject, EqConst, Filter, Term, compose, fresh_mid


@dataclass
class PlanReport:
    """Chosen logical plan plus what the optimizer considered."""

    term: Term
    cost: float
    candidates: list[tuple[str, float]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Branch skeletons
# ---------------------------------------------------------------------------


def skeleton(
    items: Sequence[Rx | Term],
    subj_v: Optional[int],
    obj_v: Optional[int],
    fresh: _Fresh,
    orientation: str = "right",
) -> Term:
    """Chain a branch's items into one term: left to right with
    right-oriented closures (``orientation="right"``), or the mirror
    image. Each closure after the first item is seeded by the chain built
    so far. The constant at the end the chain starts from filters the
    first item; the other one filters the whole chain. An item is a regex
    or a term built already (a merged pair)."""
    right = orientation == "right"
    ends = [(SRC, subj_v), (DST, obj_v)]
    (near, near_v), (far, far_v) = ends if right else ends[::-1]
    acc: Optional[Term] = None
    for it in items if right else reversed(items):
        plus = isinstance(it, Plus)
        t = it if isinstance(it, Term) else rx_to_term(it.child if plus else it, fresh)
        if acc is None:
            acc = closure(t, orientation) if plus else t
            if near_v is not None:
                acc = Filter(EqConst(near, near_v), acc)
        else:
            mid = fresh_mid(acc, t)
            joined = compose(acc, t, mid) if right else compose(t, acc, mid)
            acc = seeded_closure(joined, t, orientation) if plus else joined
    assert acc is not None
    return acc if far_v is None else Filter(EqConst(far, far_v), acc)


def plan_branch(
    items: list[Rx],
    subj_v: Optional[int],
    obj_v: Optional[int],
    cm: CostModel,
    drops: tuple[str, ...],
) -> tuple[Term, float, list[tuple[str, float]]]:
    """Enumerate skeletons for one alternation-free branch, rewrite each
    with MuRewriter, cost them, return the cheapest.

    ``drops``: endpoint columns not needed downstream (constant
    endpoint, or a variable absent from the head and every other atom)
    — the antiprojection is applied *before* costing so the
    push-antiprojection rewrite influences plan choice (e.g. reach-style
    queries prefer the orientation whose fixpoint carries one column).
    """
    fresh = _Fresh()
    cands = [
        ("ltr", skeleton(items, subj_v, obj_v, fresh)),
        ("rtl", skeleton(items, subj_v, obj_v, fresh, "left")),
    ]
    # Merge the first adjacent pure-closure pair, and the last if it differs.
    plus = [isinstance(it, Plus) for it in items]
    pairs = [i for i in range(len(items) - 1) if plus[i] and plus[i + 1]]
    for name, i in zip(("merged-first", "merged-last"), pairs[:1] + pairs[1:][-1:]):
        merged = merged_closure(*(rx_to_term(it.child, fresh) for it in items[i : i + 2]))
        cands.append((name, skeleton([*items[:i], merged, *items[i + 2 :]], subj_v, obj_v, fresh)))

    best: tuple[Term, float] | None = None
    scored: list[tuple[str, float]] = []
    for name, skel in cands:
        t = rewrite(AntiProject(drops, skel) if drops else skel, GRAPH_SCHEMA)
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
    that no other atom and no head position needs (so never the variable
    of ``?x r ?x``, which occurs twice)."""
    subj_v, obj_v = endpoint_values(atom, consts)
    ends = ((SRC, subj_v, atom.subj), (DST, obj_v, atom.obj))
    # Keep at least one column (0-ary relations unsupported).
    drops = tuple(col for col, v, end in ends if v is not None or end in droppable)[:1]
    terms: list[Term] = []
    total = 0.0
    scored_all: list[tuple[str, float]] = []
    for rx in distribute_alts(atom.rx):
        t, c, scored = plan_branch(seq_items(rx), subj_v, obj_v, cm, drops)
        terms.append(t)
        total += c
        scored_all.extend(scored)
    return name_endpoints(union_of(terms), atom, drops), total, scored_all


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
