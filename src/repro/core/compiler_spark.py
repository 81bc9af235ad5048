"""Spark backend: μ-RA terms → Spark DataFrame computations.

Non-recursive operators compile directly to Dataset/DataFrame
operations (paper §IV: "Non-recursive μ-RA expressions are directly
translated into Spark operations using the Dataset API"), so Catalyst
optimizes them. Fixpoints are dispatched to the physical plans in
:mod:`repro.core.plans` (P_gld / P_plw^s / P_plw^pg).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .terms import (
    AntiJoin,
    AntiProject,
    EqCol,
    EqConst,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    Term,
    Union_,
    Var,
    pinned,
)


@dataclass
class FixConfig:
    """Physical configuration for fixpoint evaluation.

    strategy:
      * ``auto``  — the paper's plan-selection rule (§IV-B-c): P_plw if a
        stable column exists, else P_gld, first tried as P_plw^s over one
        partition (``gld→local``) when φ's constants fit the broadcast
        budget;
      * ``gld`` / ``plw_s`` / ``plw_pg`` — force a plan.
    """

    strategy: str = "auto"
    num_partitions: int | None = None
    max_iterations: int = 100_000
    # Abort a fixpoint whose accumulated result exceeds this many rows
    # (None = unlimited). Mirrors the paper's crash markers: runaway
    # closures surface as failures instead of unbounded runs.
    row_cap: int | None = None
    # At most this many rows of φ's constant relations are collected to
    # the driver and broadcast; also capped by ``row_cap``.
    broadcast_rows: int = 4_000_000
    # Filled in by plans.execute_fixpoint for observability in tests/benches.
    chosen: list[str] = field(default_factory=list)


def eval_spark(
    term: Term,
    env: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig | None = None,
) -> DataFrame:
    """Evaluate ``term`` over DataFrames ``env`` (assumed duplicate-free,
    per μ-RA set semantics). Returns a distinct DataFrame."""
    cfg = cfg or FixConfig()
    return _eval(term, dict(env), spark, cfg)


def _eval(
    t: Term, env: dict[str, DataFrame], spark: SparkSession, cfg: FixConfig
) -> DataFrame:
    if isinstance(t, (Rel, Var)):
        if t.name not in env:
            raise KeyError(f"relation {t.name!r} not bound")
        return env[t.name]
    if isinstance(t, Union_):
        l = _eval(t.left, env, spark, cfg)
        r = _eval(t.right, env, spark, cfg)
        return l.unionByName(r).dropDuplicates()
    if isinstance(t, Join):
        l = _eval(t.left, env, spark, cfg)
        r = _eval(t.right, env, spark, cfg)
        shared = sorted(set(l.columns) & set(r.columns))
        return l.join(r, on=shared) if shared else l.crossJoin(r)
    if isinstance(t, AntiJoin):
        l = _eval(t.left, env, spark, cfg)
        r = _eval(t.right, env, spark, cfg)
        shared = sorted(set(l.columns) & set(r.columns))
        if not shared:
            # l if r is empty, else nothing; lazy, so no job runs here.
            return l.join(r.limit(1).select(), how="left_anti")
        return l.join(r.select(*shared), on=shared, how="left_anti")
    if isinstance(t, Filter):
        df = _eval(t.child, env, spark, cfg)
        if isinstance(t.cond, EqConst):
            return df.where(F.col(t.cond.col) == F.lit(t.cond.value))
        if isinstance(t.cond, EqCol):
            return df.where(F.col(t.cond.col1) == F.col(t.cond.col2))
        raise TypeError(f"unknown condition {t.cond!r}")
    if isinstance(t, AntiProject):
        df = _eval(t.child, env, spark, cfg).drop(*t.cols)
        # The child is a set; dropping columns that hold one value in
        # every row keeps it one, so only other columns need a distinct.
        if set(t.cols) - pinned(t.child).keys():
            df = df.dropDuplicates()
        return df
    if isinstance(t, Rename):
        return _eval(t.child, env, spark, cfg).withColumnRenamed(t.old, t.new)
    if isinstance(t, Fix):
        from .plans import execute_fixpoint  # local import: plans uses eval_spark

        return execute_fixpoint(t, env, spark, cfg)
    raise TypeError(f"not a μ-RA term: {t!r}")
