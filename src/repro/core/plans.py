"""Distributed physical plans for the fixpoint operator (paper §IV).

Two plan families:

* **P_gld** — *global loop on the driver*: every iteration of Algorithm 1
  runs as distributed DataFrame operations; the distinct-union costs (at
  least) one shuffle per iteration.

* **P_plw** — *parallel local loops on the workers*: justified by
  Proposition 3, μ(X = R₁∪R₂∪φ) = μ(X = R₁∪φ) ∪ μ(X = R₂∪φ). The
  constant part is split into parts by the hash of a *stable column* (see
  :mod:`repro.core.stabilizer`), the relations of φ are broadcast, and
  each part runs its own semi-naive loop with **no data crossing the
  cluster during the recursion** and **no final distinct** (the parts
  are hash classes of stable columns, so their results are pairwise
  disjoint — proof in paper §IV-A2).

  Two implementations, matching the paper's Fig. 7 comparison:
  ``plw_s`` (partition-local loop in pandas, our SetRDD analogue) and
  ``plw_pg`` (partition-local loop in an embedded DuckDB instance — the
  per-worker PostgreSQL substitute, DESIGN.md §4). Both evaluate the
  same local term, μ(X = ``__seeds`` ∪ φ), with :func:`eval_pandas` or
  :func:`eval_duckdb`.

  A P_plw fixpoint X whose seeds read a nested P_plw fixpoint Y runs in
  Y's parts (:func:`_chain`), when S, the seeds with Y as a variable, are
  linear in Y and pass the columns that Y's parts are hashed on into
  stable columns of X: one pass evaluates
  μ(X = S[μ(Y = ``__seeds`` ∪ φ_Y)] ∪ φ_X), with nothing shuffled
  between the loops. Chains nest; an unchained fixpoint is the chain of
  length one.

Plan selection (``strategy="auto"``) is the paper's rule §IV-B-c:
stable column exists → P_plw, else P_gld. Under ``auto``, P_gld first
hands the whole fixpoint to one worker (``gld→local``): Proposition 3
with a single part needs no stable column and no final distinct, so the
hand-off is a pass of one part, hashed on no column.

The Spark compiler hands each fixpoint f over with its consumer S: the
largest term S[f] around f that reads no other fixpoint and is linear in
f (:func:`~repro.core.fcond.around_fixpoint`). By Proposition 1,
S(f) = ⋃ₚ S(fₚ) over the parts of f, so a pass evaluates S in its tasks,
over each part's result. The parts' outputs stay disjoint when S passes
every column that the parts are hashed on to its output unchanged
(:func:`~repro.core.stabilizer.provenance`), or when the first seeds pin
every column that they are hashed on; otherwise one final distinct
follows, and a pass of one part never needs it. P_gld evaluates S in
Spark over the fixpoint's frame, a checkpoint.

A pass (:func:`_run_pass`) has Spark evaluate only its *inputs*, the
maximal shuffle-free subterms of every fixpoint's φ and seeds and of S
(:func:`split_inputs`), split once for both of its tiers. It checks the
inputs against the broadcast budget before anything is collected: from
Catalyst's row counts when every input has an upper bound there
(:func:`_row_bound`), else by counting them in one job. If they fit, they
are collected and broadcast: the slices of one base relation in one job,
a scan filtered by the disjunction of their σ conditions, from which the
driver cuts each slice (:func:`_collect`), and a nested fixpoint in its
own. A pass of one part (the hand-off) does not collect its first base
relation: that scan is its task's partition, and the task cuts the
slices (:class:`_Scan`). Each of n tasks then evaluates the first
fixpoint's seeds R and keeps its own hash class of them
(:func:`_run_local`): no Spark join, count or shuffle builds the seeds.
The budget bounds what is collected or scanned, not what the tasks
build: each of the n tasks builds all of R, φ's constants and S's, n×
their CPU. If they do not fit, P_plw builds R in Spark over the input
frames and repartitions it, and its tasks read only the other inputs,
collected as before (:func:`_run_plw`); S runs in the tasks in both
tiers. If those overrun the budget too, the fixpoints run one by one, and
a lone one, or a hand-off over the budget, runs P_gld
(``gld(broadcast-fallback)``, :func:`_gld`) with S in Spark.
"""
from __future__ import annotations

from collections import Counter
from functools import reduce
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import StructField, StructType

from .compiler_pandas import eval_pandas
from .compiler_spark import FixConfig, columns, eval_spark, filter_any
from .compiler_sql import eval_duckdb
from .fcond import around_fixpoint, check_fcond, constant_variable_split, semi_naive
from .stabilizer import provenance, stable_columns
from .terms import (
    AntiProject,
    Cond,
    EqConst,
    EqCol,
    Filter,
    Fix,
    Rel,
    Rename,
    Term,
    Union_,
    Var,
    children,
    is_constant_in,
    map_children,
    pinned,
    schema,
    subst,
)

def _peel(t: Term) -> tuple[Term, list[Rename]]:
    """``t`` without its outer renames, and those renames, outermost first."""
    renames = []
    while isinstance(t, Rename):
        renames.append(t)
        t = t.child
    return t, renames


def _read(name: str, renames: list[Rename]) -> Term:
    """A read of relation ``name`` under ``renames``, outermost first."""
    read: Term = Rel(name)
    for r in reversed(renames):
        read = Rename(r.old, r.new, read)
    return read


_SEEDS = "__seeds"


def execute_fixpoint(
    fix: Fix,
    env: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
    consumer: Term | None = None,
) -> DataFrame:
    """Entry point used by the Spark compiler for S[μ(X = Ψ)]. The
    consumer S reads the fixpoint as ``Var(X)``, is linear in it and reads
    no other fixpoint (:func:`~repro.core.fcond.around_fixpoint`); None
    stands for X itself. A pass evaluates S in its tasks; every other plan
    evaluates it in Spark over the fixpoint's frame."""
    if cfg.strategy not in ("auto", "gld", "plw_s", "plw_pg"):
        raise ValueError(f"unknown fixpoint strategy {cfg.strategy!r}")
    consumer = consumer or Var(fix.var)
    schemas = {k: frozenset(df.columns) for k, df in env.items()}
    stable = _stable_columns(fix, schemas)
    strategy = cfg.strategy
    if strategy == "auto":
        strategy = "plw_s" if stable else "gld→local"
    if strategy == "gld→local" or (strategy != "gld" and stable):
        levels = _chain(fix, stable, schemas)
        # S keeps the parts' outputs disjoint when every column that they
        # are hashed on reaches its output unchanged, or when the first
        # seeds pin every column they are hashed on: all of R is one part.
        prov = provenance(consumer, fix.var, schemas, schema(fix, schemas))
        first = levels[0]
        disjoint = set(levels[-1].hashed) <= set(prov.values()) or (
            set(first.hashed) <= pinned(first.seeds).keys())
        return _run_pass(levels, consumer, disjoint, env, spark, cfg, strategy)
    (level,) = _chain(fix, frozenset(), schemas)
    # Forced P_plw without a stable column would lose the disjointness
    # guarantee; the paper never does this — fall back to P_gld.
    x = _gld(level, env, spark, cfg, "gld" if strategy == "gld" else "gld(no-stable-column)")
    return eval_spark(consumer, {**env, fix.var: x}, spark, cfg)  # x itself if S is X


def _stable_columns(fix: Fix, schemas: Mapping[str, frozenset[str]]) -> frozenset[str]:
    check_fcond(fix)
    const, phi = constant_variable_split(fix)
    return stable_columns(phi, fix.var, schemas, schema(const, schemas))


class _Level(NamedTuple):
    """One fixpoint of a pass (or of P_gld)."""

    var: str
    phi: Term
    seeds: Term  # the first fixpoint's R; a chained one's S, reading ``var``
    hashed: list[str]  # the columns that its parts are hashed on


def _chain(
    fix: Fix, stable: frozenset[str], schemas: Mapping[str, frozenset[str]]
) -> list[_Level]:
    """The fixpoints that one P_plw pass ending with ``fix`` runs in the
    parts of the first one's seeds, each with the columns that those parts
    are hashed on.

    After the first, each fixpoint's seeds S read the fixpoint before it
    as its own variable. ``fix`` chains onto a nested fixpoint Y when Y is
    the one maximal fixpoint of its seeds and would run P_plw itself; S
    is linear and positive in Y (so Y is not joined with itself) and
    reads it in every ∪ branch; and each column that Y's parts are hashed
    on is the provenance of a stable column of ``fix``, which its parts
    are then hashed on. Then S(Y) is the union of S over Y's parts
    (Proposition 1), and the part of ``fix`` grown from one part of Y
    keeps that part's hashed values in those stable columns, so the parts
    stay disjoint (Proposition 3 and stability). Otherwise ``fix`` runs
    alone, hashed on its stable columns (on none if it has none: P_gld).
    """
    const, phi = constant_variable_split(fix)
    around = around_fixpoint(const, fix.var) if stable else None
    if around is not None:
        y, s = around
        y_stable = _stable_columns(y, schemas)
        if y_stable:
            chain = _chain(y, y_stable, schemas)
            prov = provenance(s, fix.var, schemas, schema(y, schemas))
            part = [next((c for c in sorted(stable) if prov[c] == p), None)
                    for p in chain[-1].hashed]
            if None not in part:
                return [*chain, _Level(fix.var, phi, s, part)]
    return [_Level(fix.var, phi, const, sorted(stable))]


def _replace(t: Term, reads: Mapping[Term, Term]) -> Term:
    """``t`` with each subterm that ``reads`` maps replaced by its read.
    Nested fixpoints are not entered: they are planned on their own."""
    if t in reads:
        return reads[t]
    return t if isinstance(t, Fix) else map_children(t, lambda c: _replace(c, reads))


# ---------------------------------------------------------------------------
# A pass: the inputs, the broadcast budget and the two tiers
# ---------------------------------------------------------------------------


def _is_input(t: Term) -> bool:
    """True iff ``t`` is a chain of σ, ρ and pinned-column π̃ over a
    relation or a fixpoint, which Spark evaluates without a shuffle."""
    while isinstance(t, (Filter, Rename)) or (
        isinstance(t, AntiProject) and set(t.cols) <= pinned(t.child).keys()
    ):
        t = t.child
    return isinstance(t, (Rel, Fix))


def split_inputs(
    terms: list[Term], prefix: str, is_input: Callable[[Term], bool] = _is_input
) -> tuple[list[Term], dict[str, Term]]:
    """``terms`` with each of their inputs, their maximal subterms that
    ``is_input`` holds for (by default the shuffle-free ones), replaced by
    a read of a relation named ``prefix`` and a number, and the slice of
    each name.

    Inputs that differ only in their outer renames are one relation slice
    under one name; the read re-applies the renames.
    """
    slices: dict[Term, str] = {}  # slice → name

    def rec(t: Term) -> Term:
        if not is_input(t):
            return map_children(t, rec)
        core, renames = _peel(t)
        return _read(slices.setdefault(core, f"{prefix}{len(slices)}"), renames)

    return [rec(t) for t in terms], {name: core for core, name in slices.items()}


def _leaf_rows(df: DataFrame) -> int | None:
    """The rows of ``df`` as Catalyst knows them without running a job, if
    its plan is a leaf that holds or counts its rows: local data (built
    from pandas), a range, or a cache whose buffers are all built.

    No other plan gives a number that is never too low. A sample's count
    is an estimate, and so is that of a cache or checkpoint of one. The
    stats of a plan are computed once, so a cache's are refreshed: read
    before its buffers were built, they are those of the cached plan.
    """
    plan = df._jdf.queryExecution().optimizedPlan()
    kind = plan.nodeName()
    if kind == "InMemoryRelation":
        if not plan.cacheBuilder().isCachedColumnBuffersLoaded():
            return None
        plan.invalidateStatsCache()
    elif kind not in ("LocalRelation", "Range"):
        return None
    rows = plan.stats().rowCount()
    return int(rows.get()) if rows.isDefined() else None


def _row_bound(t: Term, env: Mapping[str, DataFrame]) -> int | None:
    """An upper bound on the rows of the input slice ``t`` over ``env``,
    found without a Spark job; None over a fixpoint or a leaf without a
    count.

    Leaves read their count from Catalyst (:func:`_leaf_rows`). With
    ``spark.sql.cbo.enabled`` and ``spark.sql.cbo.planStats.enabled`` off,
    as :func:`repro.bench.session.get_spark` leaves them, Catalyst counts
    only local, in-memory and range leaves, never from table statistics
    an ``ANALYZE`` may have left stale. σ, ρ and π̃ keep their child's
    bound.
    """
    while isinstance(t, (Filter, Rename, AntiProject)):
        t = t.child
    return _leaf_rows(env[t.name]) if isinstance(t, Rel) else None


def _over_budget(
    frame: Callable[[str], DataFrame],
    terms: Mapping[str, Term],
    env: Mapping[str, DataFrame],
    copies: Counter[str],
    cfg: FixConfig,
) -> bool:
    """Whether Σ copies × rows over the relations ``copies`` names exceeds
    the broadcast budget (``broadcast_rows``, and ``row_cap`` if lower).

    ``terms`` gives each relation's term over ``env``. If all of them have
    a row bound (:func:`_row_bound`) and the bounds fit, no job runs and
    ``frame`` is not called. Otherwise one Spark job counts the relations,
    each ``frame(name)``: one task reads them all, so adding the counts
    up needs no shuffle. The job is written without Column objects: the
    first one a process builds imports IPython to record its call site."""
    budget = cfg.broadcast_rows if cfg.row_cap is None else min(cfg.row_cap, cfg.broadcast_rows)
    bounds = [_row_bound(terms[name], env) for name in copies]
    if None not in bounds and sum(n * b for n, b in zip(copies.values(), bounds)) <= budget:
        return False
    weighted = [frame(name).selectExpr(f"{n} AS w") for name, n in copies.items()]
    rows = reduce(DataFrame.unionAll, weighted).coalesce(1).agg({"w": "sum"}).collect()
    return (rows[0][0] or 0) > budget


def _run_pass(
    levels: list[_Level],
    consumer: Term,
    disjoint: bool,
    env: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
    engine: str,
) -> DataFrame:
    """S[f] for the fixpoints of ``levels``, f the last, run in one pass of
    local loops labelled ``engine``: ``plw_s`` or ``plw_pg``, hashed on the
    first one's stable columns, or ``gld→local``, one part hashed on none.
    S is ``consumer``, reading f as its variable; ``disjoint`` says whether
    S keeps the parts' outputs disjoint.

    Spark evaluates only the inputs of every fixpoint's φ and seeds and of
    S (a nested fixpoint through the planner, checkpointed so that
    counting and collecting run it once; its plan has no exchange when it
    ran as a pass), split once for both tiers, and checks them against the
    broadcast budget before anything is collected. If they fit, n tasks
    each build the first seeds, keep their part of them and evaluate S
    over their part of f (:func:`_run_local`): S(f) = ⋃ₚ S(fₚ)
    (Proposition 1). The parts' outputs are one distinct apart unless
    ``disjoint`` or n = 1. Each base relation is collected in one job
    (:func:`_collect`) and broadcast, and so is each nested fixpoint; but a
    pass of one part reads the slices of its first base relation in its
    task, from one filtered scan. A slice of a base relation gets a
    DataFrame of its own only if the check counts it or the pass runs over
    the budget. Then the pass runs over the input frames, so no nested
    fixpoint is planned twice: P_plw builds its seeds in Spark
    (:func:`_run_plw`), and the hand-off runs the distributed loop, S in
    Spark over f's frame.
    """
    var = levels[-1].var
    reads = [t for lv in levels for t in (lv.seeds, lv.phi)]
    (*terms, s), slices = split_inputs([*reads, consumer], cfg.fresh())
    split = [lv._replace(seeds=sd, phi=p) for lv, sd, p in zip(levels, terms[::2], terms[1::2])]
    # A nested fixpoint is planned now, in the order of the labels; a
    # slice of a base relation is built in Spark only if it is counted or
    # the pass runs over the budget.
    dfs = {
        name: eval_spark(core, env, spark, cfg).localCheckpoint(eager=False)
        for name, core in slices.items()
        if _base(core) is None
    }

    def frame(name: str) -> DataFrame:
        if name not in dfs:
            dfs[name] = eval_spark(slices[name], env, spark, cfg)
        return dfs[name]

    if _over_budget(frame, slices, env, _copies(*terms, s), cfg):
        frames = {**env, **{name: frame(name) for name in slices}}
        if split[0].hashed:
            return _run_plw(split, s, disjoint, slices, frames, spark, cfg, engine)
        x = _gld(split[0], frames, spark, cfg, "gld(broadcast-fallback)")
        return eval_spark(s, {**frames, var: x}, spark, cfg)
    cfg.chosen.extend([engine] * len(levels))
    hashed = split[0].hashed
    n = (cfg.num_partitions or spark.sparkContext.defaultParallelism) if hashed else 1
    scans = _by_base(slices)
    scan = None
    if n == 1 and scans:  # the one task reads its first base relation
        rel, conds = next(iter(scans.items()))
        rows = filter_any(env[rel], list(conds.values()), spark)
        # Catalyst drops a task over rows it knows to be none, so such a
        # scan is collected instead.
        if _leaf_rows(rows) != 0:
            scan = _Scan(rel, rows.coalesce(1), {name: slices[name] for name in conds})
    tables, fields = _collect(slices, env, frame, spark, scan and scan.rel)
    local = subst(s, var, _local_term(split))
    out = _run_local(local, tables, fields, split[0].seeds, spark, cfg, engine, hashed, n, scan)
    return out if disjoint or n == 1 else out.distinct()


def _base(core: Term) -> tuple[str, list[Cond]] | None:
    """For a slice over a base relation, that relation and the slice's σ
    conditions, each over the relation's own columns (mapped back through
    the ρs below it); None for a slice over a nested fixpoint."""
    conds: list[Cond] = []
    while not isinstance(core, (Rel, Fix)):
        if isinstance(core, Filter):
            conds.append(core.cond)
        elif isinstance(core, Rename):
            back = {core.new: core.old}
            conds = [
                EqConst(back.get(c.col, c.col), c.value)
                if isinstance(c, EqConst)
                else EqCol(back.get(c.col1, c.col1), back.get(c.col2, c.col2))
                for c in conds
            ]
        core = core.child
    return (core.name, conds) if isinstance(core, Rel) else None


def _by_base(slices: Mapping[str, Term]) -> dict[str, dict[str, list[Cond]]]:
    """For each base relation that ``slices`` read, each of its slices
    with the slice's σ conditions over it (:func:`_base`)."""
    scans: dict[str, dict[str, list[Cond]]] = {}
    for name, core in slices.items():
        base = _base(core)
        if base is not None:
            scans.setdefault(base[0], {})[name] = base[1]
    return scans


def _fields(df: DataFrame) -> dict[str, StructField]:
    return {f.name: f for f in df.schema}


def _collect(
    slices: Mapping[str, Term],
    env: Mapping[str, DataFrame],
    frame: Callable[[str], DataFrame],
    spark: SparkSession,
    skip: str | None = None,
) -> tuple[dict[str, pd.DataFrame], dict[str, dict[str, StructField]]]:
    """Each input slice as a pandas frame, and its Spark fields in order;
    a slice of the base relation ``skip`` has its fields only.

    The slices of one base relation are collected in one job: one scan
    keeps the rows that meet the σ conditions of one of them or more
    (:func:`~repro.core.compiler_spark.filter_any`), and the driver cuts
    each slice from those rows with :func:`eval_pandas`. A slice drops
    only pinned columns, which its σs read, so the scan keeps every
    column of the relation. The rows keep the scan's order, so each
    frame equals the slice's own ``toPandas()`` (for a column without
    nulls: a column with nulls in the scan is float where the slice's
    may be integer). A slice over a nested fixpoint is collected from its
    checkpoint, ``frame(name)``."""
    tables, fields = {}, {}
    for name, core in slices.items():
        if _base(core) is None:
            tables[name], fields[name] = frame(name).toPandas(), _fields(frame(name))
    for rel, conds in _by_base(slices).items():
        base_fields = {rel: _fields(env[rel])}
        fields |= {name: columns(slices[name], base_fields) for name in conds}
        if rel != skip:
            rows = filter_any(env[rel], list(conds.values()), spark).toPandas()
            tables |= {name: eval_pandas(slices[name], {rel: rows}, distinct=False)
                       for name in conds}
    return tables, fields


# ---------------------------------------------------------------------------
# P_gld
# ---------------------------------------------------------------------------


def _gld(
    level: _Level, env: Mapping[str, DataFrame], spark: SparkSession, cfg: FixConfig, label: str
) -> DataFrame:
    """The fixpoint of ``level`` over ``env`` as a driver loop, labelled
    ``label``: distributed ∪/∖ with a distinct per iteration.

    φ's maximal subterms constant in X are named with
    :func:`split_inputs`. Each core, such a subterm without its outer
    renames, is evaluated once and checkpointed unless it is a bare
    relation, and the seeds, a set, read it wherever they hold it, so
    Q25's seeds do not recompute the co-actor composition. The label is
    appended once they are bound, after those of the fixpoints they nest.
    The checkpoint is not lazy: under adaptive execution,
    ``localCheckpoint(eager=False)`` runs the shuffle stages of a plan
    with an exchange (a join, say) when it is called, a job each, and
    leaves only the final stage to the first action. φ's branches are one
    term, so one query evaluates them and their distinct union
    (eval_spark returns a set).

    The loop runs with Catalyst's constraint propagation off. A checkpoint
    keeps the constraints of the plan it ran, such as ``isnotnull`` on a
    non-nullable column (one built from ``spark.range``, say). A plan that
    reads one checkpoint twice gives the second read fresh column ids,
    but Spark 4.1 keeps its constraints over the old ones, and a union
    over it then fails (``key not found`` in ``rewriteConstraints``).
    x ∪ new is such a union: each delta keeps the column ids of x. With
    propagation off, the checkpoints carry no constraints."""
    var = level.var
    (phi,), cores = split_inputs([level.phi], cfg.fresh(), lambda t: is_constant_in(t, var))
    cenv = dict(env)
    for name, core in cores.items():
        df = eval_spark(core, env, spark, cfg)  # a bare relation's own frame
        cenv[name] = df if isinstance(core, Rel) else df.localCheckpoint(eager=False)
    reads = {core: Rel(name) for name, core in cores.items() if not isinstance(core, Rel)}
    seeds = eval_spark(_replace(level.seeds, reads), cenv, spark, cfg)
    cfg.chosen.append(label)
    cols = list(seeds.columns)
    key = "spark.sql.constraintPropagation.enabled"
    propagate = spark.conf.get(key)
    spark.conf.set(key, "false")
    try:
        x = new = seeds.localCheckpoint()

        def step() -> int:
            nonlocal x, new
            delta = eval_spark(phi, {**cenv, var: new}, spark, cfg)
            new = delta.join(x, on=cols, how="left_anti").localCheckpoint()
            n_new = new.count()
            if n_new:
                # new is distinct and disjoint from x, so the union stays a
                # set without a further distinct.
                x = x.unionByName(new).localCheckpoint()
            return n_new

        semi_naive(step, x.count(), cfg.row_cap)
    finally:
        spark.conf.set(key, propagate)
    return x


# ---------------------------------------------------------------------------
# P_plw (both implementations)
# ---------------------------------------------------------------------------


def _local_term(levels: list[_Level]) -> Fix:
    """μ(X = S[μ(Y = __seeds ∪ φ_Y)] ∪ φ_X), and so on along ``levels``."""
    first, *chained = levels
    t = Fix(first.var, Union_(Rel(_SEEDS), first.phi))
    for level in chained:
        t = Fix(level.var, Union_(subst(level.seeds, level.var, t), level.phi))
    return t


def _copies(*ts: Term) -> Counter[str]:
    """For each relation that the terms ``ts`` read, the number of
    renamings it is read under."""
    reads = set()

    def rec(u: Term) -> None:
        core, _ = _peel(u)
        if isinstance(core, Rel):
            reads.add(u)
        else:
            for c in children(core):
                rec(c)

    for t in ts:
        rec(t)
    return Counter(_peel(u)[0].name for u in reads)


def _run_plw(
    levels: list[_Level],
    consumer: Term,
    disjoint: bool,
    slices: Mapping[str, Term],
    frames: Mapping[str, DataFrame],
    spark: SparkSession,
    cfg: FixConfig,
    engine: str,
) -> DataFrame:
    """S[f] for the fixpoints of ``levels``, f the last, in one P_plw pass
    whose inputs overrun the broadcast budget: ``levels`` and S
    (``consumer``) read the input ``slices`` (each a term over the base
    relations), whose frames ``frames`` holds with the base relations.

    Spark builds the first fixpoint's seeds R and hash-repartitions them
    on its hashed columns. Equal rows of R share a partition, whose engine
    removes the duplicates. The tasks read only the other slices, those of
    every φ, of each chained fixpoint's seeds and of S: if they fit the
    budget, they are collected (:func:`_collect`) and broadcast, and each
    partition's task evaluates S[:func:`_local_term`] over its seeds, as
    the pass does when its inputs fit, with the same ``disjoint`` rule. If
    they do not, the last fixpoint runs alone over the output of the
    others, and a lone fixpoint runs P_gld with S in Spark."""
    first, (*inner, top) = levels[0], levels
    tasks = [first.phi, *(t for lv in levels[1:] for t in (lv.seeds, lv.phi)), consumer]
    copies = _copies(*tasks)
    if _over_budget(frames.__getitem__, slices, frames, copies, cfg):
        if not inner:
            x = _gld(top, frames, spark, cfg, "gld(broadcast-fallback)")
            return eval_spark(consumer, {**frames, top.var: x}, spark, cfg)
        # The last fixpoint's seeds read the others' output as its variable.
        x = _run_plw(inner, Var(inner[-1].var), True, slices, frames, spark, cfg, engine)
        frames = {**frames, top.var: x}
        return _run_plw([top], consumer, disjoint, slices, frames, spark, cfg, engine)
    cfg.chosen.extend([engine] * len(levels))
    n = cfg.num_partitions or spark.sparkContext.defaultParallelism
    seeds = eval_spark(first.seeds, frames, spark, cfg, distinct=False)
    # Proposition 3 + stability ⇒ partition-local fixpoints are disjoint.
    seeds = seeds.repartition(n, *first.hashed)
    tables, fields = _collect({name: slices[name] for name in copies}, frames,
                              frames.__getitem__, spark)
    local = subst(consumer, top.var, _local_term(levels))
    out = _run_local(local, tables, fields, seeds, spark, cfg, engine)
    return out if disjoint or n == 1 else out.distinct()


def _hash_parts(rows: pd.DataFrame, cols: Sequence[str], n: int) -> pd.Series:
    """The part, of ``n``, of each row: its ``cols`` under pandas' keyed
    hash, which, unlike Python's ``hash`` of a string, is the same in
    every process."""
    return pd.util.hash_pandas_object(rows[list(cols)], index=False) % n


class _Scan(NamedTuple):
    """The rows of base relation ``rel`` that a one-part pass reads as its
    partition, and the slices its task cuts from them."""

    rel: str
    rows: DataFrame
    slices: dict[str, Term]


def _run_local(
    local: Term,
    tables: Mapping[str, pd.DataFrame],
    fields: Mapping[str, Mapping[str, StructField]],
    seeds: DataFrame | Term,
    spark: SparkSession,
    cfg: FixConfig,
    engine: str,
    hashed: Sequence[str] = (),
    n: int = 1,
    scan: _Scan | None = None,
) -> DataFrame:
    """``local`` evaluated by ``engine``'s evaluator (:func:`eval_duckdb`
    for ``plw_pg``, else :func:`eval_pandas`) once per part of its seeds,
    which it reads as ``__seeds``, with the collected relations ``tables``
    broadcast; ``fields`` gives each one's Spark fields in order. The
    parts are the non-empty partitions of the DataFrame ``seeds``; or,
    for a term ``seeds`` over ``tables``, task p of n evaluates it and
    keeps the rows whose ``hashed`` columns hash to p
    (:func:`_hash_parts`). With a ``scan``, the one task (n = 1) reads
    the scan's rows as its partition, cuts its slices from them with
    :func:`eval_pandas` and adds them to ``tables``; it runs even if the
    scan keeps no row."""
    # Each output column has the type and nullability of the input one.
    fields = dict(fields)
    if isinstance(seeds, DataFrame):
        fields[_SEEDS], partitions, term = _fields(seeds), seeds, None
    else:
        fields[_SEEDS], term = columns(seeds, fields), seeds
        partitions = spark.range(0, n, 1, n) if scan is None else scan.rows
    cols = columns(local, fields)
    out = StructType([StructField(c, f.dataType, f.nullable) for c, f in cols.items()])
    bc = spark.sparkContext.broadcast(dict(tables)) if tables else None
    row_cap = cfg.row_cap
    evaluate = eval_duckdb if engine == "plw_pg" else eval_pandas
    # The task reads no DataFrame: the scan's relation, slices and schema.
    rel, cuts, schema = (None, {}, None) if scan is None else (
        scan.rel, scan.slices, scan.rows.schema)

    def run_partition(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        parts = list(it)
        if not parts and rel is None:
            return
        if parts:
            part = pd.concat(parts, ignore_index=True)
        else:  # no row of the scan, with the columns that rows would have
            part = to_arrow_schema(schema).empty_table().to_pandas()
        env = bc.value if bc else {}
        if rel is not None:  # the partition holds the rows of a base relation
            env = {**env, **{k: eval_pandas(t, {rel: part}, distinct=False)
                             for k, t in cuts.items()}}
        if term is not None:  # else the partition holds the seeds
            rows = evaluate(term, env, row_cap)
            # Without a scan, the partition holds its task's number.
            part = rows if n == 1 else rows[_hash_parts(rows, hashed, n) == part["id"].iat[0]]
        if part.empty:
            return
        result = evaluate(local, {**env, _SEEDS: part}, row_cap)
        if not result.empty:
            yield result[out.names]

    return partitions.mapInPandas(run_partition, schema=out)
