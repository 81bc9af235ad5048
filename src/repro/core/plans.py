"""Distributed physical plans for the fixpoint operator (paper §IV).

Two plan families:

* **P_gld** — *global loop on the driver*: every iteration of Algorithm 1
  runs as distributed DataFrame operations; the distinct-union costs (at
  least) one shuffle per iteration.

* **P_plw** — *parallel local loops on the workers*: justified by
  Proposition 3, μ(X = R₁∪R₂∪φ) = μ(X = R₁∪φ) ∪ μ(X = R₂∪φ). The
  constant part is hash-repartitioned by a *stable column* (see
  :mod:`repro.core.stabilizer`), the non-recursive relations of φ are
  broadcast, and each partition runs its own semi-naive loop with **no
  data crossing the cluster during the recursion** and **no final
  distinct** (the stable-column partitioning makes partition results
  pairwise disjoint — proof in paper §IV-A2).

  Two implementations, matching the paper's Fig. 7 comparison:
  ``plw_s`` (partition-local loop in pandas, our SetRDD analogue) and
  ``plw_pg`` (partition-local loop in an embedded DuckDB instance — the
  per-worker PostgreSQL substitute, DESIGN.md §4).

Plan selection (``strategy="auto"``) is the paper's rule §IV-B-c:
stable column exists → repartition by it and run P_plw, else P_gld.
Under ``auto``, a fixpoint without a stable column first tries P_plw^s
with all seeds in one partition (``gld→local``: Proposition 3 with a
single part needs no stable column and no final distinct); like any
P_plw, it falls back to P_gld when φ's constant relations overrun the
broadcast budget.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Mapping

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .compiler_pandas import CapacityError, seminaive_loop
from .compiler_spark import FixConfig, eval_spark
from .compiler_sql import DuckdbEvaluator
from .fcond import check_fcond, constant_variable_split, union_branches, union_of
from .stabilizer import stable_columns
from .terms import (
    Fix,
    Rel,
    Rename,
    Term,
    is_constant_in,
    map_children,
)

_CONST_PREFIX = "__bc_"


def extract_constants(phi: Term, var: str) -> tuple[Term, dict[str, Term]]:
    """Replace every maximal subterm of φ constant in ``var`` by a fresh
    relation name.

    The physical plans evaluate those subterms once (with Spark, so
    nested fixpoints recurse through the planner) and broadcast them to
    the partition-local loops — the paper's "all relations in the
    variable part of the fixpoint apart from the recursive relation are
    broadcasted".
    """
    counter = itertools.count()
    mapping: dict[str, Term] = {}

    def rec(t: Term) -> Term:
        if is_constant_in(t, var):
            # Keep bare Rel leaves as-is: they are already named inputs.
            if isinstance(t, Rel):
                return t
            name = f"{_CONST_PREFIX}{next(counter)}"
            mapping[name] = t
            return Rel(name)
        if isinstance(t, Fix):
            raise TypeError(f"fixpoint depending on {var!r} in φ: {t}")
        return map_children(t, rec)

    return rec(phi), mapping


def read_constants(t: Term, consts: Mapping[str, Term]) -> Term:
    """``t`` with every subterm equal to a constant's core replaced by a
    read of that constant's relation.

    A constant's core is the constant without its outer renames; the read
    is the constant's relation with those renames inverted, applied in
    reverse order. Cores that are a bare ``Rel`` are left alone (they are
    named inputs already), and so are nested fixpoints: each binds its own
    constants under the same names.
    """
    reads: dict[Term, Term] = {}
    for name, core in consts.items():
        read: Term = Rel(name)
        while isinstance(core, Rename):
            read = Rename(core.new, core.old, read)
            core = core.child
        if not isinstance(core, Rel):
            reads.setdefault(core, read)

    def rec(u: Term) -> Term:
        if u in reads:
            return reads[u]
        return u if isinstance(u, Fix) else map_children(u, rec)

    return rec(t)


def execute_fixpoint(
    fix: Fix,
    env: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
) -> DataFrame:
    """Entry point used by the Spark compiler for μ(X = Ψ)."""
    check_fcond(fix)
    const, phi = constant_variable_split(fix)
    # Evaluate φ's constant relations once, at their first use; every plan
    # reads them, and so do the seeds wherever they compute the same
    # relation. eval_spark returns a set, so the seeds need no distinct.
    phi2, consts = extract_constants(phi, fix.var)
    cenv = dict(env)
    for name, t in consts.items():
        cenv[name] = eval_spark(t, env, spark, cfg).localCheckpoint(eager=False)
    seeds = eval_spark(read_constants(const, consts), cenv, spark, cfg)
    env_schemas = {k: frozenset(df.columns) for k, df in env.items()}
    x_schema = frozenset(seeds.columns)
    stable = stable_columns(phi, fix.var, env_schemas, x_schema)

    strategy = cfg.strategy
    if strategy == "auto":
        strategy = "plw_s" if stable else "gld→local"
    if strategy in ("plw_s", "plw_pg") and not stable:
        # Forced P_plw without a stable column would lose the
        # disjointness guarantee; the paper never does this — fall back.
        cfg.chosen.append("gld(no-stable-column)")
        return _run_gld(phi2, fix.var, seeds, cenv, spark, cfg)
    cfg.chosen.append(strategy)

    if strategy == "gld":
        return _run_gld(phi2, fix.var, seeds, cenv, spark, cfg)
    if strategy == "gld→local":
        return _run_plw(phi2, fix.var, seeds, [], cenv, spark, cfg, "plw_s")
    return _run_plw(phi2, fix.var, seeds, sorted(stable), cenv, spark, cfg, strategy)


# ---------------------------------------------------------------------------
# P_gld
# ---------------------------------------------------------------------------


def _eval_phi_distributed(
    phi_branches: list[Term],
    var: str,
    delta: DataFrame,
    env: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
) -> DataFrame:
    out: DataFrame | None = None
    bound = {**env, var: delta}
    for b in phi_branches:
        d = eval_spark(b, bound, spark, cfg)
        out = d if out is None else out.unionByName(d)
    assert out is not None
    return out


def _run_gld(
    phi2: Term,
    var: str,
    seeds: DataFrame,
    cenv: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
) -> DataFrame:
    """Driver loop; distributed ∪/∖ with a distinct per iteration."""
    branches = union_branches(phi2)
    cols = list(seeds.columns)

    x = seeds.localCheckpoint()
    total = None
    new = x
    for _ in range(cfg.max_iterations):
        delta = _eval_phi_distributed(branches, var, new, cenv, spark, cfg)
        new = (
            delta.dropDuplicates()
            .join(x, on=cols, how="left_anti")
            .localCheckpoint()
        )
        n_new = new.count()
        if n_new == 0:
            return x
        if cfg.row_cap is not None:
            total = (total if total is not None else x.count()) + n_new
            if total > cfg.row_cap:
                raise CapacityError(f"P_gld fixpoint exceeded row_cap={cfg.row_cap}")
        # new is distinct and disjoint from x, so the union stays a set
        # without a further distinct.
        x = x.unionByName(new).localCheckpoint()
    raise RuntimeError(f"fixpoint did not converge in {cfg.max_iterations} iterations")


# ---------------------------------------------------------------------------
# P_plw (both implementations, and the single-partition P_gld hand-off)
# ---------------------------------------------------------------------------


def _run_plw(
    phi2: Term,
    var: str,
    seeds: DataFrame,
    part_cols: list[str],
    cenv: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
    engine: str,
) -> DataFrame:
    """Run φ's semi-naive loop on each worker over its partition of
    ``seeds``, with the relations φ reads besides ``var`` broadcast.

    Without ``part_cols`` the seeds form one partition: Proposition 3 with
    a single part, which is disjoint from nothing, so it needs no stable
    column (the P_gld hand-off).
    """
    if engine not in ("plw_s", "plw_pg"):
        raise ValueError(f"unknown P_plw engine {engine!r}")
    rels = {s.name: cenv[s.name] for s in _rel_leaves(phi2) if s.name != var}
    # If those relations overrun the broadcast budget, fall back to P_gld
    # (distributed shuffle joins) — the same family of decisions a join
    # planner makes between broadcast and shuffle joins. They are counted
    # before anything is collected, so a fallback collects nothing.
    budget = cfg.broadcast_rows if cfg.row_cap is None else min(cfg.row_cap, cfg.broadcast_rows)
    for df in rels.values():
        budget -= df.count()
        if budget < 0:
            cfg.chosen[-1] = "gld(broadcast-fallback)"
            return _run_gld(phi2, var, seeds, cenv, spark, cfg)

    n = (cfg.num_partitions or spark.sparkContext.defaultParallelism) if part_cols else 1
    # Hash-repartition the constant part by the stable column(s):
    # Proposition 3 + stability ⇒ partition-local fixpoints are disjoint.
    seeds = seeds.repartition(n, *part_cols)
    bc = spark.sparkContext.broadcast({name: df.toPandas() for name, df in rels.items()})
    phi_term = union_of(union_branches(phi2))
    out_cols = seeds.columns
    row_cap = cfg.row_cap

    def run_partition(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        parts = list(it)
        if not parts:
            return
        local_seeds = pd.concat(parts, ignore_index=True)
        if local_seeds.empty:
            return
        if engine == "plw_s":
            result = seminaive_loop(phi_term, var, local_seeds, bc.value, row_cap)
        else:
            ev = DuckdbEvaluator({**bc.value, "__seeds": local_seeds}, row_cap=row_cap)
            try:
                xt = ev.run_seminaive(phi_term, var, "__seeds")
                result = ev.con.execute(f"SELECT * FROM {xt}").fetchdf()
            finally:
                ev.con.close()
        yield result[out_cols]

    return seeds.mapInPandas(run_partition, schema=seeds.schema)


def _rel_leaves(t: Term):
    from .terms import walk

    for s in walk(t):
        if isinstance(s, Rel):
            yield s
