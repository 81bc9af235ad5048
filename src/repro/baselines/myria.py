"""Myria-like baseline (paper §V-C, §VI).

Myria is a shared-nothing parallel relational engine with incremental
(semi-naive) Datalog recursion but **no logical optimization of the
recursive operator**: no pushing of joins into fixpoints, no merging,
no reversal (paper §VI). The paper could only run it on a single
machine (4 local workers).

Substitute: the *naive* Query2Mu translation (classic non-recursive RA
pushdowns are left to the engine; recursions are full closures)
evaluated by the single-machine pandas engine with semi-naive
iteration. ``row_cap`` models Myria's observed crashes on large
closures (it "even crashes for rnd_10k_0.001" on same-generation).
"""
from __future__ import annotations

from typing import Mapping

import pandas as pd

from ..core.compiler_pandas import CapacityError, eval_pandas
from ..core.query2mu import GRAPH, crpq_to_term
from ..core.rpq import CRPQ, parse_query
from ..core.terms import Term


def eval_crpq_myria(
    graph: pd.DataFrame,
    q: CRPQ | str,
    consts: Mapping[str, int] | None = None,
    row_cap: int | None = 30_000_000,
) -> pd.DataFrame:
    if isinstance(q, str):
        q = parse_query(q)
    term = crpq_to_term(q, consts or {})
    return eval_term_myria(term, graph, row_cap=row_cap)


def eval_term_myria(
    term: Term, graph: pd.DataFrame, row_cap: int | None = 30_000_000
) -> pd.DataFrame:
    """Evaluate an (unoptimized) μ-RA term the way Myria would: semi-
    naive, single machine, capacity-capped."""
    return eval_pandas(term, {GRAPH: graph}, row_cap=row_cap)


__all__ = ["eval_crpq_myria", "eval_term_myria", "CapacityError"]
