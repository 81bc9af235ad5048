"""SQL backend: the one compiler of non-recursive μ-RA, and DuckDB.

* :func:`to_sql` — fixpoint-free μ-RA term → a single SELECT. Both SQL
  engines run it: DuckDB here, and Spark SQL through
  :func:`repro.core.compiler_spark.eval_spark`, so Catalyst optimizes it
  (paper §IV; DESIGN.md §4).
* :func:`eval_duckdb` — full terms (incl. fixpoints) on a DuckDB
  connection, the reproduction's substitute for the paper's PostgreSQL
  backend (DESIGN.md §4). Each fixpoint runs as one ``WITH RECURSIVE``
  query, in which DuckDB itself evaluates semi-naively. P_plw^pg runs
  its partition-local fixpoints this way, one local engine per worker,
  and so does the centralized μ-RA baseline.

Compiled SELECTs always project an explicit, sorted column list so
set-operations line up positionally. Constants are bound as named
parameters, never quoted into the text: Spark SQL reads backslash
escapes in string literals and DuckDB does not.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping

import duckdb
import pandas as pd

from .fcond import check_fcond, check_rows, constant_variable_split, row_limit
from .terms import (
    AntiJoin,
    AntiProject,
    Cond,
    EqConst,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    SchemaError,
    Term,
    Union_,
    Value,
    Var,
    map_children,
    pinned,
    schema,
)


def to_sql(
    t: Term,
    env: Mapping[str, Iterable[str]],
    bound: Mapping[str, str] | None = None,
    marker: str = "$",
    distinct: bool = True,
) -> tuple[str, dict[str, Value]]:
    """Compile a fixpoint-free μ-RA term to one SELECT and its parameters.

    ``env`` gives the columns of each base relation; ``bound`` maps any
    free recursion variable to the *table name* holding its current
    value (used by the semi-naive loop). Each σ constant is a named
    parameter, ``marker`` and its name: DuckDB's marker is ``$``, Spark
    SQL's ``:``. (Spark binds ``?`` markers in an order of its own, not
    the text's.) With ``distinct=False`` the outermost ∪ and π̃ keep
    duplicate rows, for a caller that removes them itself.
    """
    bound = dict(bound or {})
    counter = itertools.count()
    params: dict[str, Value] = {}

    def sch(t: Term) -> frozenset[str]:
        # A bound recursion variable has the fixpoint's schema, which
        # the caller puts in env as "__var__<name>".
        return schema(t, env, {v: env[f"__var__{v}"] for v in bound})

    def rec(t: Term, bag: bool = False) -> str:
        a = f"t{next(counter)}"
        b = f"t{next(counter)}"
        if isinstance(t, Rel):
            cols = ", ".join(sorted(env[t.name]))
            return f"SELECT {cols} FROM {t.name}"
        if isinstance(t, Var):
            if t.name not in bound:
                raise SchemaError(f"unbound recursion variable {t.name!r}")
            cols = ", ".join(sorted(env[f"__var__{t.name}"]))
            return f"SELECT {cols} FROM {bound[t.name]}"
        if isinstance(t, Union_):
            # Branches keep duplicates: UNION removes them once, or in bag
            # mode the caller does.
            op = "UNION ALL" if bag else "UNION"
            return f"({rec(t.left, True)}) {op} ({rec(t.right, True)})"
        if isinstance(t, Join):
            ls, rs = sch(t.left), sch(t.right)
            shared = sorted(ls & rs)
            out = ", ".join(
                f"{a}.{c}" if c in ls else f"{b}.{c}" for c in sorted(ls | rs)
            )
            on = (
                " AND ".join(f"{a}.{c} = {b}.{c}" for c in shared)
                if shared
                else "TRUE"
            )
            return (
                f"SELECT {out} FROM ({rec(t.left)}) AS {a} "
                f"JOIN ({rec(t.right)}) AS {b} ON {on}"
            )
        if isinstance(t, AntiJoin):
            ls, rs = sch(t.left), sch(t.right)
            shared = sorted(ls & rs)
            cols = ", ".join(f"{a}.{c}" for c in sorted(ls))
            if not shared:
                cond = f"NOT EXISTS (SELECT 1 FROM ({rec(t.right)}) AS {b})"
            else:
                eqs = " AND ".join(f"{a}.{c} = {b}.{c}" for c in shared)
                cond = f"NOT EXISTS (SELECT 1 FROM ({rec(t.right)}) AS {b} WHERE {eqs})"
            return f"SELECT {cols} FROM ({rec(t.left)}) AS {a} WHERE {cond}"
        if isinstance(t, Filter):
            cols = ", ".join(sorted(sch(t.child)))
            w = cond_sql(t.cond, params, marker)
            return f"SELECT {cols} FROM ({rec(t.child, bag)}) AS {a} WHERE {w}"
        if isinstance(t, AntiProject):
            keep = ", ".join(sorted(sch(t.child) - set(t.cols)))
            # The child is a set; dropping columns that hold one value in
            # every row keeps it one, so only other columns need a DISTINCT.
            dedup = not bag and set(t.cols) - pinned(t.child).keys()
            return f"SELECT {'DISTINCT ' if dedup else ''}{keep} FROM ({rec(t.child)}) AS {a}"
        if isinstance(t, Rename):
            cs = sch(t.child)
            # Emit in sorted *output* order: set-ops align positionally.
            out_cols = sorted((cs - {t.old}) | {t.new})
            out = ", ".join(
                f"{t.old} AS {t.new}" if c == t.new else c for c in out_cols
            )
            return f"SELECT {out} FROM ({rec(t.child, bag)}) AS {a}"
        if isinstance(t, Fix):
            raise SchemaError("to_sql only compiles fixpoint-free terms")
        raise TypeError(f"not a μ-RA term: {t!r}")

    return rec(t, not distinct), params


def cond_sql(cond: Cond, params: dict[str, Value], marker: str) -> str:
    """σ condition ``cond`` as SQL text; a constant is added to ``params``
    under a new name, and the text reads it as ``marker`` and that name."""
    if isinstance(cond, EqConst):
        name = f"p{len(params)}"
        params[name] = cond.value
        return f"{cond.col} = {marker}{name}"
    return f"{cond.col1} = {cond.col2}"


class DuckdbEvaluator:
    """Evaluate arbitrary μ-RA terms on one DuckDB connection.

    Every table of the evaluator is a set. Each fixpoint is one recursive
    query whose result becomes the temp table ``__fix_x_<n>``; the paper
    drives PostgreSQL the same way, one local engine per worker.
    """

    def __init__(
        self,
        tables: Mapping[str, pd.DataFrame],
        con: duckdb.DuckDBPyConnection | None = None,
        row_cap: int | None = None,
    ):
        self.con = con or duckdb.connect()
        self.row_cap = row_cap  # abort fixpoints above this size (≙ crash)
        self.env: dict[str, frozenset[str]] = {}
        self._n = itertools.count()
        for name, df in tables.items():
            self.con.register(f"__reg_{name}", df)
            self.con.execute(
                f"CREATE OR REPLACE TEMP TABLE {name} AS "
                f"SELECT DISTINCT * FROM __reg_{name}"
            )
            self.env[name] = frozenset(df.columns)

    def evaluate(self, term: Term) -> pd.DataFrame:
        # One SELECT over the tables, a top-level fixpoint's result included.
        sql, params = to_sql(self._lift_fixpoints(term, {}), self.env)
        return self.con.execute(sql, params).fetchdf()

    # -- internals ---------------------------------------------------------

    def _lift_fixpoints(self, t: Term, bound: dict[str, str]) -> Term:
        """Replace every maximal Fix subterm by a Rel over its
        materialized result table."""
        if isinstance(t, Fix):
            return Rel(self._eval_fix(t, bound))
        return map_children(t, lambda c: self._lift_fixpoints(c, bound))

    def _eval_fix(self, fix: Fix, bound: dict[str, str]) -> str:
        check_fcond(fix)
        const, phi = constant_variable_split(fix)
        seeds = self._lift_fixpoints(const, bound)
        if not isinstance(seeds, Rel):
            # The tables are sets, and so is a SELECT of to_sql over sets.
            name = f"__t_{next(self._n)}"
            sql, params = to_sql(seeds, self.env, bound)
            self.con.execute(f"CREATE OR REPLACE TEMP TABLE {name} AS {sql}", params)
            self.env[name] = schema(seeds, self.env, {v: self.env[f"__var__{v}"] for v in bound})
            seeds = Rel(name)
        return self.run_seminaive(phi, fix.var, seeds.name, bound)

    def run_seminaive(
        self, phi: Term, var: str, seeds_table: str, bound: dict[str, str] | None = None
    ) -> str:
        """Algorithm 1 from the constant part R in ``seeds_table``; returns
        the table holding the fixpoint.

        ``WITH RECURSIVE … UNION`` feeds each step only its new rows and
        deduplicates against one hash table of X: DuckDB runs the loop.
        That UNION also removes a step's own duplicates, so φ is compiled
        without its outermost ``DISTINCT`` and ``UNION`` (``distinct=False``),
        which would hash each step's rows a second time.
        The row cap is its LIMIT: one row over X's
        :func:`~repro.core.fcond.row_limit` stops a runaway closure early
        and raises :class:`~repro.core.fcond.CapacityError`.
        """
        bound = dict(bound or {})
        i = next(self._n)
        xt, w = f"__fix_x_{i}", f"__fix_w_{i}"
        fix_schema = self.env[seeds_table]
        cols = ", ".join(sorted(fix_schema))
        self.env[xt] = self.env[f"__var__{var}"] = fix_schema
        phi = self._lift_fixpoints(phi, bound)
        phi_sql, params = to_sql(phi, self.env, {**bound, var: w}, distinct=False)
        limit = row_limit(self.row_cap, self._rows(seeds_table))
        self.con.execute(
            f"CREATE OR REPLACE TEMP TABLE {xt} AS WITH RECURSIVE {w}({cols}) AS "
            f"(SELECT {cols} FROM {seeds_table} UNION SELECT {cols} FROM ({phi_sql})) "
            f"SELECT {cols} FROM {w}" + ("" if limit is None else f" LIMIT {limit + 1}"),
            params,
        )
        if limit is not None:
            check_rows(self._rows(xt), limit)
        return xt

    def _rows(self, table: str) -> int:
        return self.con.execute(f"SELECT count(*) FROM {table}").fetchone()[0]


def eval_duckdb(
    term: Term, tables: Mapping[str, pd.DataFrame], row_cap: int | None = None
) -> pd.DataFrame:
    """One-shot convenience: evaluate ``term`` over pandas ``tables``."""
    ev = DuckdbEvaluator(tables, row_cap=row_cap)
    try:
        return ev.evaluate(term)
    finally:
        ev.con.close()
