"""Spark backend: μ-RA terms → Spark DataFrame computations.

Non-recursive μ-RA is compiled by :func:`repro.core.compiler_sql.to_sql`,
the compiler DuckDB runs too, and executed as one ``spark.sql`` query,
so Catalyst optimizes it. The paper translates it "directly into Spark
operations using the Dataset API" (§IV); Spark SQL reaches the same
optimizer (DESIGN.md §4). Fixpoints are dispatched to the physical plans
in :mod:`repro.core.plans` (P_gld / P_plw^s / P_plw^pg), each with the
terms around it that are linear in it, and the query reads their results
as relations. :func:`filter_any` keeps the rows of a frame that meet any
of several σ conditions in one scan, so that a pass collects the slices
it reads of one relation in one job.
"""
from __future__ import annotations

import itertools
import uuid
from dataclasses import dataclass, field
from typing import Iterator, Mapping, TypeVar

from pyspark.sql import DataFrame, SparkSession

from .compiler_sql import cond_sql, to_sql
from .fcond import around_fixpoint, constant_variable_split
from .terms import (
    AntiJoin,
    AntiProject,
    Cond,
    Fix,
    Join,
    Rel,
    Rename,
    Term,
    Value,
    Var,
    children,
    map_children,
)

V = TypeVar("V")


@dataclass
class FixConfig:
    """Physical configuration for fixpoint evaluation.

    strategy:
      * ``auto``  — the paper's plan-selection rule (§IV-B-c): P_plw if a
        stable column exists, else P_gld, handed to one worker
        (``gld→local``) when the fixpoint's inputs fit the broadcast
        budget;
      * ``gld`` / ``plw_s`` / ``plw_pg`` — force a plan.
    """

    strategy: str = "auto"
    num_partitions: int | None = None
    # Abort a fixpoint whose accumulated result exceeds this many rows
    # (None = unlimited). Mirrors the paper's crash markers: runaway
    # closures surface as failures instead of unbounded runs.
    row_cap: int | None = None
    # At most this many rows are collected to the driver and broadcast,
    # also capped by ``row_cap``: a pass's inputs (the shuffle-free
    # subterms of each fixpoint's φ and seeds and of the fixpoint's
    # consumer), whose tasks then build the seeds (P_plw, the P_gld
    # hand-off); else the inputs but the first seeds', with the seeds
    # built and repartitioned in Spark (P_plw). A pass of one part reads
    # the rows of one base relation in its task instead of from the
    # driver; the budget bounds them all the same. It does not bound what
    # the tasks build: each of n tasks builds the seeds and the constants
    # of φ and of the consumer.
    broadcast_rows: int = 4_000_000
    # One plan label per fixpoint, filled in by plans.py, for tests/benches.
    chosen: list[str] = field(default_factory=list)
    # Numbers the relations each fixpoint binds (see fresh()).
    _names: Iterator[int] = field(
        default_factory=itertools.count, init=False, repr=False, compare=False
    )

    def fresh(self) -> str:
        """A relation-name prefix that no other fixpoint of the query binds,
        so a nested fixpoint never shadows its enclosing one's relations."""
        return f"__bc{next(self._names)}_"


def columns(t: Term, env: Mapping[str, Mapping[str, V]]) -> dict[str, V]:
    """The columns of ``t`` in the order the DataFrame API gives them,
    each with the value ``env`` gives the input column it comes from (its
    Spark type, say).

    ``env`` maps each relation to its columns in order. A join or
    antijoin puts the shared columns first, sorted, then the left side's
    others and (a join) the right side's; a rename keeps the column's
    place; ∪, σ and π̃ keep the order of their (left) child, and a
    fixpoint that of its constant part.
    """
    if isinstance(t, (Rel, Var)):
        return dict(env[t.name])
    if isinstance(t, Fix):
        return columns(constant_variable_split(t)[0], env)
    if isinstance(t, (Join, AntiJoin)):
        left, right = columns(t.left, env), columns(t.right, env)
        shared = {c: left[c] for c in sorted(left.keys() & right.keys())}
        return {**shared, **left, **right} if isinstance(t, Join) else {**shared, **left}
    cols = columns(children(t)[0], env)
    if isinstance(t, Rename):
        return {t.new if c == t.old else c: v for c, v in cols.items()}
    if isinstance(t, AntiProject):
        return {c: v for c, v in cols.items() if c not in t.cols}
    return cols


def eval_spark(
    term: Term,
    env: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig | None = None,
    distinct: bool = True,
) -> DataFrame:
    """Evaluate ``term`` over DataFrames ``env`` (assumed duplicate-free,
    per μ-RA set semantics). Returns a distinct DataFrame, or with
    ``distinct=False`` one whose outermost ∪ and π̃ keep duplicates.

    Each maximal fixpoint f runs through the physical plans together with
    its consumer S: the largest subterm S[f] around f that reads no other
    fixpoint and is linear in f (:func:`~repro.core.fcond.around_fixpoint`),
    S = f itself at least. f runs once however many ∪ branches of S read it.
    A bare relation or such a subterm is returned as its DataFrame;
    anything else is one ``spark.sql`` query over the DataFrames it
    reads, each bound to a temporary view of its own for that call only
    (:func:`_sql`).
    """
    cfg = cfg or FixConfig()
    frames: dict[str, DataFrame] = {}
    reads: dict[str, Rel] = {}

    def read(df: DataFrame) -> Rel:
        name = _view()
        frames[name] = df
        return Rel(name)

    def lift(t: Term) -> Term:
        fix, consumer = around_fixpoint(t) or (None, None)
        if fix is not None:
            from .plans import execute_fixpoint  # local import: plans uses eval_spark

            return read(execute_fixpoint(fix, env, spark, cfg, consumer))
        if isinstance(t, (Rel, Var)):
            if t.name not in env:
                raise KeyError(f"relation {t.name!r} not bound")
            if t.name not in reads:
                reads[t.name] = read(env[t.name])
            return reads[t.name]
        return map_children(t, lift)

    query = lift(term)
    if isinstance(query, Rel):
        return next(iter(frames.values()))
    inputs = {name: df.columns for name, df in frames.items()}
    sql, params = to_sql(query, inputs, marker=":", distinct=distinct)
    # to_sql sorts its columns; callers read them in DataFrame-API order.
    order = ", ".join(columns(query, {n: dict.fromkeys(cs) for n, cs in inputs.items()}))
    return _sql(spark, f"SELECT {order} FROM ({sql})", params, frames)


def filter_any(df: DataFrame, conjunctions: list[list[Cond]], spark: SparkSession) -> DataFrame:
    """The rows of ``df`` that meet every condition of at least one of
    ``conjunctions``, with all of ``df``'s columns: one filtered scan,
    written as one ``spark.sql`` query with each constant bound as a
    parameter. ``df`` itself if a conjunction is empty."""
    if not all(conjunctions):
        return df
    params: dict[str, Value] = {}
    # Equal conjunctions, written once.
    ors = [" AND ".join(cond_sql(c, params, ":") for c in cs)
           for cs in dict.fromkeys(map(tuple, conjunctions))]
    name = _view()
    return _sql(spark, f"SELECT * FROM {name} WHERE " + " OR ".join(f"({w})" for w in ors),
                params, {name: df})


def _view() -> str:
    return f"_repro_{uuid.uuid4().hex}"


def _sql(
    spark: SparkSession, sql: str, params: dict[str, Value], frames: Mapping[str, DataFrame]
) -> DataFrame:
    """``sql`` over ``frames``, each bound to a temporary view of its name
    for this call only. The views are dropped through the session
    catalog, which leaves a cached frame cached: PySpark's
    ``catalog.dropTempView`` (and so ``spark.sql(**frames)``) uncaches the
    view's plan."""
    catalog = spark._jsparkSession.sessionState().catalog()
    try:
        for name, df in frames.items():
            df.createOrReplaceTempView(name)
        # The query is analyzed here, so it no longer needs its views.
        return spark.sql(sql, args=params)
    finally:
        for name in frames:
            catalog.dropTempView(name)
