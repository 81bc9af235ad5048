"""GraphX/Pregel-style baseline (paper §V-C).

The paper compares against GraphX by compiling each UCRPQ into a Pregel
program: every candidate start node sends a message carrying its
identity; messages traverse the regular expression left-to-right (an
NFA state machine); a superstep = one round of message exchange
(shuffle) + dedup. We reproduce that execution model as one μ-RA
fixpoint over the message relation, run by the P_gld plan of
:mod:`repro.core.plans`:

* message relation M(origin, node, state) — "each node has to keep
  track of its ancestors that satisfy a given regular path query",
  which is the blow-up the paper blames for GraphX's poor times;
* a superstep is one P_gld iteration: the new messages joined with the
  edges and the NFA transitions, deduplicated (one shuffle) and
  subtracted from the messages seen so far;
* selections are pushed **only when the query starts with a constant**
  (then only that node sends the initial message — why Q10/Q24 are the
  queries where GraphX does fine); trailing filters apply at the end.

``max_rows`` is the fixpoint's row cap: it caps the message volume, and
exceeding it raises :class:`CapacityError`, our analogue of the paper's
GraphX crashes (e.g. on all concatenated-closure queries).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.compiler_spark import FixConfig, eval_spark
from ..core.fcond import union_of
from ..core.query2mu import GRAPH
from ..core.rpq import CRPQ, Alt, Atom, Label, Plus, Rx, Seq, is_var, parse_query, var_col
from ..core.terms import AntiProject, Fix, Join, Rel, Rename, Term, Union_, Var


# ---------------------------------------------------------------------------
# Thompson NFA
# ---------------------------------------------------------------------------


@dataclass
class NFA:
    start: int
    accept: int
    # (state, label, inverse, next_state)
    trans: list[tuple[int, str, bool, int]]
    eps: list[tuple[int, int]]

    def eps_closure(self) -> dict[int, frozenset[int]]:
        states = {self.start, self.accept}
        for s, _, _, t in self.trans:
            states |= {s, t}
        for s, t in self.eps:
            states |= {s, t}
        adj: dict[int, set[int]] = {s: set() for s in states}
        for s, t in self.eps:
            adj[s].add(t)
        out = {}
        for s in states:
            seen = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            out[s] = frozenset(seen)
        return out


def build_nfa(rx: Rx) -> NFA:
    counter = itertools.count()

    def fresh() -> int:
        return next(counter)

    def rec(rx: Rx) -> tuple[int, int, list, list]:
        if isinstance(rx, Label):
            s, e = fresh(), fresh()
            return s, e, [(s, rx.name, rx.inverse, e)], []
        if isinstance(rx, Seq):
            s, e, tr, ep = rec(rx.parts[0])
            for p in rx.parts[1:]:
                s2, e2, tr2, ep2 = rec(p)
                tr += tr2
                ep += ep2 + [(e, s2)]
                e = e2
            return s, e, tr, ep
        if isinstance(rx, Alt):
            s, e = fresh(), fresh()
            tr: list = []
            ep: list = []
            for p in rx.parts:
                ps, pe, ptr, pep = rec(p)
                tr += ptr
                ep += pep + [(s, ps), (pe, e)]
            return s, e, tr, ep
        if isinstance(rx, Plus):
            cs, ce, tr, ep = rec(rx.child)
            s, e = fresh(), fresh()
            ep = ep + [(s, cs), (ce, e), (ce, cs)]  # one-or-more
            return s, e, tr, ep
        raise TypeError(f"not a regex: {rx!r}")

    s, e, tr, ep = rec(rx)
    return NFA(s, e, tr, ep)


# ---------------------------------------------------------------------------
# BSP evaluation
# ---------------------------------------------------------------------------

# The message relation, its initial messages, and the (state, label, nxt)
# transitions taken along an edge (FWD) and against it (BWD), each with
# the edge end a message sits at and the end it moves to.
M, M0, FWD, BWD = "M", "M0", "F", "B"
ENDS = {FWD: ("src", "dst"), BWD: ("dst", "src")}


def superstep(direction: str) -> Term:
    """One direction of a superstep: every message at one end of an edge
    whose label a transition of ``direction`` reads in the message's state
    moves to the edge's other end, in the transition's next state.

    The joins are left-deep, so G and the transitions stay bare relations:
    P_gld joins the messages with each, as GraphX does, and precomputes
    nothing.
    """
    here, there = ENDS[direction]
    moved = Join(Join(Rename("node", here, Var(M)), Rel(GRAPH)), Rel(direction))
    return Rename("nxt", "state", Rename(there, "node", AntiProject((here, "state", "label"), moved)))


def eval_atom_pregel(
    spark: SparkSession,
    graph: DataFrame,  # (src, label, dst)
    atom: Atom,
    consts: dict[str, int],
    max_rows: int | None = 20_000_000,
) -> DataFrame:
    """Evaluate one RPQ atom; returns DataFrame(origin, node) pairs."""
    nfa = build_nfa(atom.rx)
    closure = nfa.eps_closure()

    # Initial messages: the query pattern is traversed from left to
    # right, so only a leading constant is pushed (paper §V-C).
    if not is_var(atom.subj):
        v = int(atom.subj) if atom.subj.isdigit() else consts[atom.subj]
        origins = spark.createDataFrame([(v,)], "node long")
    else:
        origins = (
            graph.select(F.col("src").alias("node"))
            .union(graph.select(F.col("dst").alias("node")))
            .distinct()
        )
    init_states = [int(s) for s in closure[nfa.start]]
    msgs = (
        origins.withColumn("origin", F.col("node"))
        .crossJoin(spark.createDataFrame([(s,) for s in init_states], "state long"))
        .select("origin", "node", "state")
    )

    # Transitions per direction, nxt expanded through the epsilon closure.
    trans: dict[str, list[tuple[int, str, int]]] = {FWD: [], BWD: []}
    for s, lbl, inv, t in nfa.trans:
        trans[BWD if inv else FWD] += [(s, lbl, t2) for t2 in closure[t]]
    env = {M0: msgs, GRAPH: graph}
    for name, rows in trans.items():
        if rows:
            env[name] = spark.createDataFrame(rows, "state long, label string, nxt long")
    phi = union_of([superstep(name) for name in trans if name in env])

    # Forced P_gld: one shuffle and one dedup per superstep, and max_rows
    # caps the message volume (fcond.semi_naive's row rule).
    seen = eval_spark(Fix(M, Union_(Rel(M0), phi)), env, spark, FixConfig("gld", row_cap=max_rows))

    accept_states = [s for s, cl in closure.items() if nfa.accept in cl]
    result = seen.where(F.col("state").isin(accept_states)).select("origin", "node").distinct()
    if not is_var(atom.obj):
        v = int(atom.obj) if atom.obj.isdigit() else consts[atom.obj]
        result = result.where(F.col("node") == v)
    return result


def eval_crpq_pregel(
    spark: SparkSession,
    graph: DataFrame,
    query: CRPQ | str,
    consts: dict[str, int] | None = None,
    max_rows: int | None = 20_000_000,
) -> DataFrame:
    """Full CRPQ via per-atom Pregel runs + relational join of the atom
    results (the paper's GraphX comparison evaluates the pattern per
    query; conjunctions join outside the Pregel loop)."""
    if isinstance(query, str):
        query = parse_query(query)
    consts = consts or {}
    acc: DataFrame | None = None
    for atom in query.atoms:
        pairs = eval_atom_pregel(spark, graph, atom, consts, max_rows=max_rows)
        cols = []
        if is_var(atom.subj):
            cols.append(F.col("origin").alias(var_col(atom.subj)))
        if is_var(atom.obj) and atom.obj != atom.subj:
            cols.append(F.col("node").alias(var_col(atom.obj)))
        if is_var(atom.subj) and atom.subj == atom.obj:
            pairs = pairs.where(F.col("origin") == F.col("node"))
            cols = [F.col("origin").alias(var_col(atom.subj))]
        t = pairs.select(*cols).distinct()
        if acc is None:
            acc = t
        else:
            shared = sorted(set(acc.columns) & set(t.columns))
            acc = acc.join(t, on=shared) if shared else acc.crossJoin(t)
    assert acc is not None
    head_cols = [var_col(h) for h in query.head]
    return acc.select(*head_cols).distinct()
