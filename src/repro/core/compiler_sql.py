"""SQL backend: compile μ-RA terms to DuckDB SQL and evaluate them.

This is the reproduction's substitute for the paper's PostgreSQL
backend (see DESIGN.md §4): it provides

* :func:`to_sql` — non-recursive μ-RA term → a single SELECT;
* :func:`eval_duckdb` — full terms (incl. fixpoints) on a DuckDB
  connection, fixpoints run as semi-naive loops issuing SQL per
  iteration against temp tables (exactly how the paper drives a local
  PostgreSQL instance per worker in P_plw^pg, and how the centralized
  μ-RA baseline runs).

Compiled SELECTs always project an explicit, sorted column list so
set-operations line up positionally.
"""
from __future__ import annotations

import itertools
from typing import Mapping

import duckdb
import pandas as pd

from .compiler_pandas import CapacityError
from .fcond import check_fcond, constant_variable_split, union_branches
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
    SchemaError,
    Term,
    Union_,
    Var,
    map_children,
    schema,
)

MAX_ITERATIONS = 100_000


def _quote(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    return repr(v)


def to_sql(
    t: Term,
    env: Mapping[str, frozenset[str]],
    bound: Mapping[str, str] | None = None,
) -> str:
    """Compile a fixpoint-free μ-RA term to a DuckDB SELECT.

    ``env`` gives the schema of each base relation; ``bound`` maps any
    free recursion variable to the *table name* holding its current
    value (used by the semi-naive loop).
    """
    bound = dict(bound or {})
    counter = itertools.count()
    bound_schemas = {v: None for v in bound}  # filled lazily below

    def sch(t: Term) -> frozenset[str]:
        # Recursion variables carry the schema of the table they are
        # bound to; for SQL generation the caller guarantees the loop
        # table has the fixpoint schema, which we thread via env lookups
        # using a pseudo-entry "__var__<name>".
        return schema(t, env, {v: env[f"__var__{v}"] for v in bound})

    def rec(t: Term) -> str:
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
            return f"({rec(t.left)}) UNION ({rec(t.right)})"
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
            if isinstance(t.cond, EqConst):
                w = f"{t.cond.col} = {_quote(t.cond.value)}"
            else:
                w = f"{t.cond.col1} = {t.cond.col2}"
            return f"SELECT {cols} FROM ({rec(t.child)}) AS {a} WHERE {w}"
        if isinstance(t, AntiProject):
            keep = ", ".join(sorted(sch(t.child) - set(t.cols)))
            return f"SELECT DISTINCT {keep} FROM ({rec(t.child)}) AS {a}"
        if isinstance(t, Rename):
            cs = sch(t.child)
            # Emit in sorted *output* order: set-ops align positionally.
            out_cols = sorted((cs - {t.old}) | {t.new})
            out = ", ".join(
                f"{t.old} AS {t.new}" if c == t.new else c for c in out_cols
            )
            return f"SELECT {out} FROM ({rec(t.child)}) AS {a}"
        if isinstance(t, Fix):
            raise SchemaError("to_sql only compiles fixpoint-free terms")
        raise TypeError(f"not a μ-RA term: {t!r}")

    del bound_schemas
    return rec(t)


class DuckdbEvaluator:
    """Evaluate arbitrary μ-RA terms on one DuckDB connection.

    Fixpoints run Algorithm 1 with temp tables ``__fix_x_<n>`` (the
    accumulated X) and ``__fix_d_<n>`` (the delta), mirroring how the
    paper drives PostgreSQL.
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
        name = self._materialize(term, {})
        return self.con.execute(f"SELECT * FROM {name}").fetchdf()

    # -- internals ---------------------------------------------------------

    def _materialize(self, term: Term, bound: dict[str, str]) -> str:
        """Evaluate ``term`` into a temp table; returns the table name."""
        term = self._lift_fixpoints(term, bound)
        name = f"__t_{next(self._n)}"
        sql = to_sql(term, self.env, bound)
        self.con.execute(f"CREATE OR REPLACE TEMP TABLE {name} AS SELECT DISTINCT * FROM ({sql})")
        self.env[name] = schema(
            term, self.env, {v: self.env[f"__var__{v}"] for v in bound}
        )
        return name

    def _lift_fixpoints(self, t: Term, bound: dict[str, str]) -> Term:
        """Replace every maximal Fix subterm by a Rel over its
        materialized result table."""
        if isinstance(t, Fix):
            return Rel(self._eval_fix(t, bound))
        return map_children(t, lambda c: self._lift_fixpoints(c, bound))

    def _eval_fix(self, fix: Fix, bound: dict[str, str]) -> str:
        check_fcond(fix)
        const, phi = constant_variable_split(fix)
        seeds = self._materialize(const, bound)
        return self.run_seminaive(phi, fix.var, seeds, bound)

    def run_seminaive(
        self, phi: Term, var: str, seeds_table: str, bound: dict[str, str] | None = None
    ) -> str:
        """Semi-naive loop; ``seeds_table`` is the constant part R.

        Returns the name of the temp table holding the fixpoint. Public
        because P_plw^pg calls it directly with a partition's seeds.
        """
        bound = dict(bound or {})
        i = next(self._n)
        xt, dt = f"__fix_x_{i}", f"__fix_d_{i}"
        fix_schema = self.env[seeds_table]
        cols = ", ".join(sorted(fix_schema))
        self.con.execute(f"CREATE OR REPLACE TEMP TABLE {xt} AS SELECT DISTINCT {cols} FROM {seeds_table}")
        self.con.execute(f"CREATE OR REPLACE TEMP TABLE {dt} AS SELECT {cols} FROM {xt}")
        self.env[xt] = self.env[dt] = fix_schema
        self.env[f"__var__{var}"] = fix_schema
        branches = [self._lift_fixpoints(b, bound) for b in union_branches(phi)]
        phi_sql = " UNION ".join(
            f"({to_sql(b, self.env, {**bound, var: dt})})" for b in branches
        )
        if self.row_cap is not None:
            size = self.con.execute(f"SELECT count(*) FROM {xt}").fetchone()[0]
        for _ in range(MAX_ITERATIONS):
            self.con.execute(
                f"CREATE OR REPLACE TEMP TABLE {dt}__next AS "
                f"SELECT {cols} FROM ({phi_sql}) EXCEPT SELECT {cols} FROM {xt}"
            )
            n = self.con.execute(f"SELECT count(*) FROM {dt}__next").fetchone()[0]
            self.con.execute(f"DROP TABLE {dt}")
            self.con.execute(f"ALTER TABLE {dt}__next RENAME TO {dt}")
            if n == 0:
                return xt
            self.con.execute(f"INSERT INTO {xt} SELECT {cols} FROM {dt}")
            if self.row_cap is not None:
                # The new rows are disjoint from X: keep |X| as a running total.
                size += n
                if size > self.row_cap:
                    raise CapacityError(f"fixpoint exceeded row_cap={self.row_cap}")
        raise RuntimeError(f"fixpoint did not converge in {MAX_ITERATIONS} iterations")


def eval_duckdb(term: Term, tables: Mapping[str, pd.DataFrame]) -> pd.DataFrame:
    """One-shot convenience: evaluate ``term`` over pandas ``tables``."""
    ev = DuckdbEvaluator(tables)
    try:
        return ev.evaluate(term)
    finally:
        ev.con.close()
