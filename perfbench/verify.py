"""Correctness gate: order-independent checksums and independent oracles.

Each query's result is checked outside the timed region against an
evaluator that shares no optimizer code with the systems under test:

* small results: ``repro.core.reference.eval_crpq`` (plain Python sets);
* larger results: DuckDB on the *unoptimized* ``query2mu.crpq_to_term``;
* same-generation (not a CRPQ): tree depths, computed here with NumPy.

A result is summarised as (row count, checksum); the checksum is a sum
of per-row 64-bit hashes, so row order does not matter.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

# Above this many result rows the Python-set reference gets slow, so the
# DuckDB oracle is used instead.
REFERENCE_MAX_ROWS = 20_000

_K1 = np.uint64(0x9E3779B97F4A7C15)
_K2 = np.uint64(0xBF58476D1CE4E5B9)


def digest_rows(rows: np.ndarray) -> tuple[int, int]:
    """(rows, checksum) of an int64 matrix, one row per tuple."""
    rows = np.asarray(rows, dtype=np.int64).reshape(len(rows), -1).view(np.uint64)
    h = np.zeros(len(rows), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(rows.shape[1]):
            h = (h ^ rows[:, j]) * _K1
            h ^= h >> np.uint64(31)
            h *= _K2
    return len(rows), int(h.sum(dtype=np.uint64))


def digest_frame(df: pd.DataFrame, cols: list[str]) -> tuple[int, int]:
    if df.duplicated(subset=cols).any():
        raise ValueError("result has duplicate rows (set semantics violated)")
    return digest_rows(df[cols].to_numpy(dtype=np.int64))


def digest_tuples(tuples) -> tuple[int, int]:
    tuples = list(tuples)
    return digest_rows(np.array(tuples, dtype=np.int64).reshape(len(tuples), -1))


def crpq_oracle(q, triples: pd.DataFrame, consts: dict, expected_rows: int) -> tuple[int, int]:
    """Digest of a CRPQ's answer, in head-variable order."""
    from repro.core.query2mu import GRAPH, crpq_to_term
    from repro.core.reference import eval_crpq
    from repro.core.rpq import var_col

    if expected_rows <= REFERENCE_MAX_ROWS:
        rows = list(triples[["src", "label", "dst"]].itertuples(index=False, name=None))
        return digest_tuples(eval_crpq(q, rows, consts))
    from repro.core.compiler_sql import eval_duckdb

    out = eval_duckdb(crpq_to_term(q, consts), {GRAPH: triples})
    return digest_frame(out, [var_col(h) for h in q.head])


def same_generation_oracle(child_parent: pd.DataFrame) -> tuple[int, int]:
    """Same-generation pairs of a tree given as (src=child, dst=parent):
    every ordered pair of nodes at the same depth below the root."""
    children: dict[int, list[int]] = {}
    for c, p in zip(child_parent["src"].tolist(), child_parent["dst"].tolist()):
        children.setdefault(p, []).append(c)
    roots = set(children) - set(child_parent["src"].tolist())
    if len(roots) != 1:
        raise ValueError(f"expected one tree, found {len(roots)} roots")
    level, blocks = list(roots), []
    while level:
        level = [c for p in level for c in children.get(p, ())]
        a = np.array(level, dtype=np.int64)
        blocks.append(np.stack([np.repeat(a, len(a)), np.tile(a, len(a))], axis=1))
    return digest_rows(np.concatenate(blocks))
