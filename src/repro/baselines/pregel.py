"""GraphX/Pregel-style baseline (paper §V-C).

The paper compares against GraphX by compiling each UCRPQ into a Pregel
program: every candidate start node sends a message carrying its
identity; messages traverse the regular expression left-to-right (an
NFA state machine); a superstep = one round of message exchange
(shuffle) + dedup. We reproduce exactly that execution model on Spark
DataFrames:

* message relation M(origin, node, state) — "each node has to keep
  track of its ancestors that satisfy a given regular path query",
  which is the blow-up the paper blames for GraphX's poor times;
* one shuffle per superstep (join messages × edges + distinct);
* selections are pushed **only when the query starts with a constant**
  (then only that node sends the initial message — why Q10/Q24 are the
  queries where GraphX does fine); trailing filters apply at the end.

``max_rows`` caps the message/result volume; exceeding it raises
:class:`CapacityError`, our analogue of the paper's GraphX crashes
(e.g. on all concatenated-closure queries).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

# The one capacity error of every engine, importable from here too.
from ..core.compiler_pandas import CapacityError
from ..core.rpq import CRPQ, Alt, Atom, Label, Plus, Rx, Seq, is_var, parse_query, var_col


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


def eval_atom_pregel(
    spark: SparkSession,
    graph: DataFrame,  # (src, label, dst)
    atom: Atom,
    consts: dict[str, int],
    max_supersteps: int = 10_000,
    max_rows: int | None = 20_000_000,
) -> DataFrame:
    """Evaluate one RPQ atom; returns DataFrame(origin, node) pairs."""
    nfa = build_nfa(atom.rx)
    closure = nfa.eps_closure()

    # Transition relation as a DataFrame: (state, label, inv, nxt*) where
    # nxt is expanded through the epsilon closure.
    rows = []
    for s, lbl, inv, t in nfa.trans:
        for t2 in closure[t]:
            rows.append((s, lbl, inv, t2))
    trans = spark.createDataFrame(rows, "state long, label string, inv boolean, nxt long")

    # Initial messages: the query pattern is traversed from left to
    # right, so only a leading constant is pushed (paper §V-C).
    if not is_var(atom.subj):
        v = int(atom.subj) if atom.subj.isdigit() else consts[atom.subj]
        origins = spark.range(v, v + 1).withColumnRenamed("id", "node")
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

    fwd = trans.where(~F.col("inv")).select("state", "label", "nxt")
    bwd = trans.where(F.col("inv")).select("state", "label", "nxt")
    have_fwd = fwd.limit(1).count() > 0
    have_bwd = bwd.limit(1).count() > 0

    seen = msgs.localCheckpoint()
    new = seen
    for _ in range(max_supersteps):
        parts = []
        if have_fwd:
            parts.append(
                new.join(graph, on=new["node"] == graph["src"])
                .join(fwd, on=["state", "label"])
                .select("origin", F.col("dst").alias("node"), F.col("nxt").alias("state"))
            )
        if have_bwd:
            parts.append(
                new.join(graph, on=new["node"] == graph["dst"])
                .join(bwd, on=["state", "label"])
                .select("origin", F.col("src").alias("node"), F.col("nxt").alias("state"))
            )
        if not parts:
            break
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        new = (
            out.dropDuplicates()
            .join(seen, on=["origin", "node", "state"], how="left_anti")
            .localCheckpoint()
        )
        n_new = new.count()
        if n_new == 0:
            break
        seen = seen.union(new).localCheckpoint()
        if max_rows is not None and seen.count() > max_rows:
            raise CapacityError(f"pregel message volume exceeded {max_rows}")
    else:
        raise CapacityError("pregel did not converge")

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
