"""Centralized μ-RA baseline (paper §V-C: [11] on PostgreSQL).

The same optimized logical plan Dist-μ-RA produces, executed on a
single local relational engine — DuckDB substituting for PostgreSQL
(DESIGN.md §4) — with fixpoints driven by the iterative semi-naive SQL
loop of :class:`repro.core.compiler_sql.DuckdbEvaluator`. This is the
"Centralized μ-RA" series of Figs. 9/10: same logical optimizations,
no distribution.
"""
from __future__ import annotations

import pandas as pd

from ..core.compiler_sql import DuckdbEvaluator, eval_duckdb
from ..core.query2mu import GRAPH
from ..core.terms import Term


def eval_term_centralized(
    term: Term, graph: pd.DataFrame, row_cap: int | None = None
) -> pd.DataFrame:
    """``row_cap`` models the paper's centralized-μ-RA timeouts on
    exploding closures (Fig. 10: it times out on every concatenated-
    closure query)."""
    if row_cap is None:
        return eval_duckdb(term, {GRAPH: graph})
    ev = DuckdbEvaluator({GRAPH: graph}, row_cap=row_cap)
    try:
        return ev.evaluate(term)
    finally:
        ev.con.close()
