"""Pandas backend: evaluate μ-RA terms over in-memory pandas relations.

This backend plays three roles:

* the partition-local engine inside the P_plw^s physical plan (our
  SetRDD analogue — each Spark partition runs its own semi-naive loop
  here, see :mod:`repro.core.plans`);
* the engine of the Myria-like single-machine baseline;
* a fast reference implementation for cross-backend agreement tests.

Relations are pandas DataFrames under *set* semantics: deduplication is
applied at union and antiprojection, exactly where μ-RA requires it.

The semi-naive loop keeps X as a :class:`RowSet`: the disjoint frames
that built it, concatenated once at the end, plus one hashed key per row
(:func:`row_keys`; two in-range integer columns pack into one int64, in
the style of Soufflé's specialized tuple stores). Each iteration encodes
only the delta, drops its duplicates, looks its keys up in X's once, and
appends the keys it did not find; X is never deduplicated or copied
row-wise again.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np
import pandas as pd

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
    Term,
    Union_,
    Var,
)

MAX_ITERATIONS = 100_000

# Integer values in [0, _PACK_LIMIT) fit the 32 bits of a packed key half.
_PACK_LIMIT = 1 << 32


class CapacityError(RuntimeError):
    """A fixpoint exceeded its row cap (≙ the paper's crash markers)."""


def dedup(df: pd.DataFrame) -> pd.DataFrame:
    return df.drop_duplicates(ignore_index=True)


def set_union(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
    """Distinct union of two same-schema frames (columns may be ordered
    differently)."""
    cols = sorted(a.columns)
    return dedup(pd.concat([a[cols], b[cols]], ignore_index=True))


def _packs(col: np.ndarray) -> bool:
    return col.dtype.kind in "iu" and (
        len(col) == 0 or (col.min() >= 0 and col.max() < _PACK_LIMIT)
    )


def row_keys(df: pd.DataFrame, pack: bool = True) -> pd.Index:
    """One hashable key per row of ``df``: equal rows, equal keys.

    With ``pack``, two integer columns whose values all lie in [0, 2³²)
    become one int64 per row, ``a << 32 | b``. For a ≥ 2³¹ the shift sets
    the sign bit: such keys are negative but still distinct, and keys are
    only compared, never decoded into rows. Every other frame gets a
    MultiIndex. Keys of the two kinds never match each other, so keys
    that are compared must come from frames with the same column order
    and the same encoding (:meth:`RowSet.keys_of` sees to that).
    """
    cols = [df[c].to_numpy() for c in df.columns]
    if pack and len(cols) == 2 and all(_packs(c) for c in cols):
        a, b = (c.astype(np.int64) for c in cols)
        return pd.Index((a << 32) | b)
    return pd.MultiIndex.from_arrays(cols)


class RowSet:
    """A set of rows: the disjoint frames that built it, and one key per
    row (:func:`row_keys`) for membership tests.

    X of Algorithm 1: built once from the seeds, grown by each
    iteration's new rows, concatenated once by :meth:`frame`. Its keys
    stay packed while every frame it is compared with packs; the first
    one that does not re-encodes X as a MultiIndex for good.
    """

    def __init__(self, rows: pd.DataFrame) -> None:
        self.parts = [rows]
        self.keys = row_keys(rows)

    def __len__(self) -> int:
        return len(self.keys)

    def keys_of(self, df: pd.DataFrame) -> pd.Index:
        """Keys of ``df``'s rows, comparable with :attr:`keys`."""
        packed = not isinstance(self.keys, pd.MultiIndex)
        keys = row_keys(df, pack=packed)
        if packed and isinstance(keys, pd.MultiIndex):
            self.keys = row_keys(self.frame(), pack=False)
        return keys

    def add(self, rows: pd.DataFrame) -> None:
        """Add rows not in the set yet, indexed by their keys, as
        :func:`set_difference` returns them."""
        self.parts.append(rows)
        self.keys = self.keys.append(rows.index)

    def frame(self) -> pd.DataFrame:
        return pd.concat(self.parts, ignore_index=True)


def set_difference(a: pd.DataFrame, b: pd.DataFrame | RowSet) -> pd.DataFrame:
    """Distinct rows of ``a`` not in ``b``, indexed by their row keys.

    ``b`` is a frame with ``a``'s columns, or a :class:`RowSet` of them
    (the semi-naive loop's X, which is then neither deduplicated nor
    encoded again).
    """
    x = b if isinstance(b, RowSet) else RowSet(b[list(a.columns)])
    keys = x.keys_of(a)
    keep = ~(keys.duplicated() | keys.isin(x.keys))
    return a[keep].set_axis(keys[keep])


def natural_join(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
    shared = sorted(set(a.columns) & set(b.columns))
    if not shared:
        return a.merge(b, how="cross")
    return a.merge(b, on=shared, how="inner")


def anti_join(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
    shared = sorted(set(a.columns) & set(b.columns))
    if not shared:
        return a if b.empty else a.iloc[0:0]
    x = RowSet(b[shared])
    return a[~x.keys_of(a[shared]).isin(x.keys)].reset_index(drop=True)


def eval_pandas(
    term: Term, env: Mapping[str, pd.DataFrame], row_cap: int | None = None
) -> pd.DataFrame:
    """Evaluate ``term``; ``env`` binds relation names *and* any free
    recursion variables to frames. The result is deduplicated.

    A fixpoint (nested ones too) whose X grows past ``row_cap`` rows
    raises :class:`CapacityError`; ``None`` means no cap.
    """
    return dedup(_eval(term, dict(env), row_cap))


def _eval(t: Term, env: dict[str, pd.DataFrame], row_cap: int | None) -> pd.DataFrame:
    if isinstance(t, Rel):
        return env[t.name]
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Union_):
        return set_union(_eval(t.left, env, row_cap), _eval(t.right, env, row_cap))
    if isinstance(t, Join):
        return natural_join(_eval(t.left, env, row_cap), _eval(t.right, env, row_cap))
    if isinstance(t, AntiJoin):
        return anti_join(_eval(t.left, env, row_cap), _eval(t.right, env, row_cap))
    if isinstance(t, Filter):
        df = _eval(t.child, env, row_cap)
        if isinstance(t.cond, EqConst):
            return df[df[t.cond.col] == t.cond.value]
        if isinstance(t.cond, EqCol):
            return df[df[t.cond.col1] == df[t.cond.col2]]
        raise TypeError(f"unknown condition {t.cond!r}")
    if isinstance(t, AntiProject):
        return dedup(_eval(t.child, env, row_cap).drop(columns=list(t.cols)))
    if isinstance(t, Rename):
        return _eval(t.child, env, row_cap).rename(columns={t.old: t.new})
    if isinstance(t, Fix):
        check_fcond(t)
        const, phi = constant_variable_split(t)
        return seminaive_loop(phi, t.var, _eval(const, env, row_cap), env, row_cap)
    raise TypeError(f"not a μ-RA term: {t!r}")


def seminaive_loop(
    phi: Term,
    var: str,
    seeds: pd.DataFrame,
    env: Mapping[str, pd.DataFrame],
    row_cap: int | None = None,
) -> pd.DataFrame:
    """Run Algorithm 1 locally: X=R; new=R; while new: new=φ(new)∖X; X∪=new.

    Exposed separately so the P_plw^s physical plan can run it inside a
    ``mapInPandas`` partition with broadcast constant relations. Raises
    :class:`CapacityError` once |X| > ``row_cap``. Each iteration calls
    the module-level :func:`set_difference` once, looked up at call time,
    so wrapping it counts iterations.
    """
    branches = union_branches(phi)
    env = dict(env)
    cols = list(seeds.columns)
    new = dedup(seeds)
    x = RowSet(new)
    for _ in range(MAX_ITERATIONS):
        if new.empty:
            return x.frame()
        env[var] = new
        delta = pd.concat([_eval(b, env, row_cap)[cols] for b in branches], ignore_index=True)
        new = set_difference(delta, x)
        if not new.empty:
            x.add(new)
            if row_cap is not None and len(x) > row_cap:
                raise CapacityError(f"fixpoint exceeded row_cap={row_cap}")
    raise RuntimeError(f"fixpoint did not converge in {MAX_ITERATIONS} iterations")
