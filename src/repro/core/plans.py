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
Under ``auto``, P_gld first hands the whole fixpoint to one worker
(``gld→local``: Proposition 3 with a single part needs no stable column
and no final distinct). Spark then evaluates only the fixpoint's
*inputs*, its maximal shuffle-free subterms (:func:`split_inputs`), and
counts them in one job. If they fit the broadcast budget they are
collected and broadcast, and one Python task runs :func:`eval_pandas`
on the fixpoint: φ's constants, the seeds and the loop. If they do not,
nothing is collected and the distributed loop runs
(``gld(broadcast-fallback)``).
"""
from __future__ import annotations

from collections import Counter
from functools import reduce
from typing import Iterator, Mapping

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import DataType, StructField, StructType

from .compiler_pandas import CapacityError, eval_pandas, seminaive_loop
from .compiler_spark import FixConfig, eval_spark
from .compiler_sql import DuckdbEvaluator
from .fcond import check_fcond, constant_variable_split, union_branches, union_of
from .stabilizer import stable_columns
from .terms import (
    AntiProject,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    Term,
    children,
    is_constant_in,
    map_children,
    pinned,
    schema,
    walk,
)

_CONST_PREFIX = "__bc_"


def extract_constants(
    phi: Term, var: str, prefix: str = _CONST_PREFIX
) -> tuple[Term, dict[str, Term]]:
    """Replace every maximal subterm of φ constant in ``var`` by a fresh
    relation name, ``prefix`` and a number.

    The physical plans evaluate those subterms once (with Spark, so
    nested fixpoints recurse through the planner) and broadcast them to
    the partition-local loops — the paper's "all relations in the
    variable part of the fixpoint apart from the recursive relation are
    broadcasted".
    """
    mapping: dict[str, Term] = {}

    def rec(t: Term) -> Term:
        if is_constant_in(t, var):
            # Keep bare Rel leaves as-is: they are already named inputs.
            if isinstance(t, Rel):
                return t
            name = f"{prefix}{len(mapping)}"
            mapping[name] = t
            return Rel(name)
        if isinstance(t, Fix):
            raise TypeError(f"fixpoint depending on {var!r} in φ: {t}")
        return map_children(t, rec)

    return rec(phi), mapping


def _peel(t: Term) -> tuple[Term, list[Rename]]:
    """``t`` without its outer renames, and those renames, outermost first."""
    renames = []
    while isinstance(t, Rename):
        renames.append(t)
        t = t.child
    return t, renames


def read_constants(t: Term, consts: Mapping[str, Term]) -> Term:
    """``t`` with every subterm equal to a constant's core replaced by a
    read of that constant's relation.

    A constant's core is the constant without its outer renames; the read
    is the constant's relation with those renames inverted, applied in
    reverse order. Cores that are a bare ``Rel`` are left alone (they are
    named inputs already), and so are nested fixpoints, which are planned
    on their own.
    """
    reads: dict[Term, Term] = {}
    for name, const in consts.items():
        core, renames = _peel(const)
        read: Term = Rel(name)
        for r in renames:
            read = Rename(r.new, r.old, read)
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
    env_schemas = {k: frozenset(df.columns) for k, df in env.items()}
    stable = stable_columns(phi, fix.var, env_schemas, schema(const, env_schemas))

    strategy = cfg.strategy
    if strategy == "auto":
        if not stable:
            return _hand_off(fix, env, spark, cfg)
        strategy = "plw_s"
    phi2, seeds, cenv = _bind_constants(fix, env, spark, cfg)
    if strategy in ("plw_s", "plw_pg") and not stable:
        # Forced P_plw without a stable column would lose the
        # disjointness guarantee; the paper never does this — fall back.
        cfg.chosen.append("gld(no-stable-column)")
        return _run_gld(phi2, fix.var, seeds, cenv, spark, cfg)
    cfg.chosen.append(strategy)

    if strategy == "gld":
        return _run_gld(phi2, fix.var, seeds, cenv, spark, cfg)
    return _run_plw(phi2, fix.var, seeds, sorted(stable), cenv, spark, cfg, strategy)


def _bind_constants(
    fix: Fix, env: Mapping[str, DataFrame], spark: SparkSession, cfg: FixConfig
) -> tuple[Term, DataFrame, dict[str, DataFrame]]:
    """φ over its constant relations, the seeds, and ``env`` with those
    relations bound, for the distributed plans.

    φ's constants are evaluated once, at their first use; every plan reads
    them, and so do the seeds wherever they compute the same relation.
    eval_spark returns a set, so the seeds need no distinct.
    """
    const, phi = constant_variable_split(fix)
    phi2, consts = extract_constants(phi, fix.var, cfg.fresh())
    cenv = dict(env)
    for name, t in consts.items():
        cenv[name] = eval_spark(t, env, spark, cfg).localCheckpoint(eager=False)
    seeds = eval_spark(read_constants(const, consts), cenv, spark, cfg)
    return phi2, seeds, cenv


def _broadcast_budget(cfg: FixConfig) -> int:
    return cfg.broadcast_rows if cfg.row_cap is None else min(cfg.row_cap, cfg.broadcast_rows)


# ---------------------------------------------------------------------------
# The P_gld hand-off: the whole fixpoint on one worker
# ---------------------------------------------------------------------------


def _is_input(t: Term) -> bool:
    """True iff ``t`` is a chain of σ, ρ and pinned-column π̃ over a
    relation or a fixpoint, which Spark evaluates without a shuffle."""
    while isinstance(t, (Filter, Rename)) or (
        isinstance(t, AntiProject) and set(t.cols) <= pinned(t.child).keys()
    ):
        t = t.child
    return isinstance(t, (Rel, Fix))


def split_inputs(fix: Fix, prefix: str) -> tuple[Fix, dict[str, Term], Counter[str]]:
    """``fix`` with each of its inputs, its maximal shuffle-free subterms,
    replaced by a read of a relation named ``prefix`` and a number.

    Inputs that differ only in their outer renames are one relation slice
    under one name; the read re-applies the renames. Returns the rewritten
    fixpoint, the slice of each name, and for each name the number of
    distinct inputs that read it (renamed copies count separately).
    """
    slices: dict[Term, str] = {}  # slice → name
    inputs: dict[Term, str] = {}  # input → name of its slice

    def rec(t: Term) -> Term:
        if not _is_input(t):
            return map_children(t, rec)
        core, renames = _peel(t)
        read: Term = Rel(slices.setdefault(core, f"{prefix}{len(slices)}"))
        inputs[t] = read.name
        for r in reversed(renames):
            read = Rename(r.old, r.new, read)
        return read

    local = Fix(fix.var, rec(fix.body))
    return local, {name: core for core, name in slices.items()}, Counter(inputs.values())


def _total_rows(dfs: Mapping[str, DataFrame], copies: Counter[str]) -> int:
    """Σ copies × rows over the slices, in one Spark job: one task reads
    them all, so adding the counts up needs no shuffle."""
    weighted = [dfs[name].select(F.lit(n).alias("w")) for name, n in copies.items()]
    rows = reduce(DataFrame.unionAll, weighted).coalesce(1).agg(F.sum("w")).collect()
    return rows[0][0] or 0


def _types(t: Term, inputs: Mapping[str, StructType]) -> dict[str, DataType]:
    """The Spark type of each column of ``t``, a fixpoint-free term over
    the relations typed by ``inputs``."""
    if isinstance(t, Rel):
        return {f.name: f.dataType for f in inputs[t.name]}
    if isinstance(t, Join):
        return {**_types(t.left, inputs), **_types(t.right, inputs)}
    # σ, π̃ and ρ keep their child's columns, ∪ and ▷ their left side's.
    types = _types(children(t)[0], inputs)
    if isinstance(t, Rename):
        types[t.new] = types.pop(t.old)
    elif isinstance(t, AntiProject):
        for c in t.cols:
            del types[c]
    return types


def _hand_off(
    fix: Fix, env: Mapping[str, DataFrame], spark: SparkSession, cfg: FixConfig
) -> DataFrame:
    """P_gld as one local loop on one worker, when the fixpoint's inputs
    fit the broadcast budget; else the distributed P_gld loop.

    Spark evaluates the inputs only (a nested fixpoint through the
    planner, checkpointed so that counting and collecting run it once)
    and counts them before anything is collected, so a fallback collects
    nothing. The fallback reads the same input DataFrames, so no nested
    fixpoint is planned twice.
    """
    local, slices, copies = split_inputs(fix, cfg.fresh())
    dfs = {}
    for name, core in slices.items():
        df = eval_spark(core, env, spark, cfg)
        if any(isinstance(s, Fix) for s in walk(core)):
            df = df.localCheckpoint(eager=False)
        dfs[name] = df
    if _total_rows(dfs, copies) > _broadcast_budget(cfg):
        cfg.chosen.append("gld(broadcast-fallback)")
        phi2, seeds, cenv = _bind_constants(local, {**env, **dfs}, spark, cfg)
        return _run_gld(phi2, fix.var, seeds, cenv, spark, cfg)
    cfg.chosen.append("gld→local")

    const, _ = constant_variable_split(local)
    types = _types(const, {name: df.schema for name, df in dfs.items()})
    out = StructType([StructField(c, t) for c, t in types.items()])
    bc = spark.sparkContext.broadcast({name: df.toPandas() for name, df in dfs.items()})
    row_cap = cfg.row_cap

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for _ in batches:  # the one row that starts the task
            pass
        yield eval_pandas(local, bc.value, row_cap)[out.names]

    return spark.range(0, 1, 1, 1).mapInPandas(run, schema=out)


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
# P_plw (both implementations)
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
    ``seeds`` by the stable columns ``part_cols``, with the relations φ
    reads besides ``var`` broadcast."""
    if engine not in ("plw_s", "plw_pg"):
        raise ValueError(f"unknown P_plw engine {engine!r}")
    rels = {s.name: cenv[s.name] for s in walk(phi2) if isinstance(s, Rel) and s.name != var}
    # If those relations overrun the broadcast budget, fall back to P_gld
    # (distributed shuffle joins) — the same family of decisions a join
    # planner makes between broadcast and shuffle joins. They are counted
    # before anything is collected, so a fallback collects nothing.
    budget = _broadcast_budget(cfg)
    for df in rels.values():
        budget -= df.count()
        if budget < 0:
            cfg.chosen[-1] = "gld(broadcast-fallback)"
            return _run_gld(phi2, var, seeds, cenv, spark, cfg)

    n = cfg.num_partitions or spark.sparkContext.defaultParallelism
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
