"""Pandas backend: evaluate μ-RA terms over in-memory relations.

This backend plays three roles:

* the partition-local engine inside the P_plw^s physical plan (our
  SetRDD analogue — each Spark partition runs its own semi-naive loop
  here, see :mod:`repro.core.plans`);
* the engine of the Myria-like single-machine baseline;
* a fast reference implementation for cross-backend agreement tests.

:func:`eval_pandas` and :func:`seminaive_loop` take and return pandas
DataFrames. Inside, a relation is columnar: a dict of equal-length NumPy
arrays (:data:`Cols`), so a rename costs nothing and no DataFrame is
built per operator. Set semantics: deduplication is applied at union and
antiprojection, exactly where μ-RA requires it.

Each :func:`seminaive_loop` call compiles φ once (:func:`_compile`).
Every subterm without X — relations, filters, compositions, nested
fixpoints — is evaluated then, once; what is left is a function of X's
delta that does only NumPy work. A join or antijoin with such a constant
side probes an :class:`_Index` of it, built once per join node and set
of shared columns.

X is a :class:`RowSet`: the disjoint column sets that built it,
concatenated once at the end, plus one key per row (:func:`row_keys`;
integer columns in [0, 2³²) pack into one int64, in the style of
Soufflé's specialized tuple stores). Packed keys are kept sorted: each
iteration's delta is deduplicated with ``np.unique``, looked up with
``searchsorted`` and merged in with ``np.insert``. X is never
deduplicated or copied row-wise again.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, Union

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
_HALF = _PACK_LIMIT - 1

# A relation: column name → values, all of one length.
Cols = dict[str, np.ndarray]
# A subterm of φ as a function of the recursion variable's current value.
Plan = Callable[[Cols], Cols]
# Row keys: packed int64 values, or a MultiIndex.
Keys = Union[np.ndarray, pd.MultiIndex]


class CapacityError(RuntimeError):
    """A fixpoint exceeded its row cap (≙ the paper's crash markers)."""


def columns(df: pd.DataFrame) -> Cols:
    return {c: df[c].to_numpy() for c in df.columns}


def frame(c: Cols) -> pd.DataFrame:
    return pd.DataFrame(c, copy=False)


def _len(c: Cols) -> int:
    return len(next(iter(c.values()))) if c else 0


def _take(c: Cols, idx: np.ndarray) -> Cols:
    return {k: v[idx] for k, v in c.items()}


def _packs(col: np.ndarray) -> bool:
    return col.dtype.kind in "iu" and (
        len(col) == 0 or (col.min() >= 0 and col.max() < _PACK_LIMIT)
    )


def row_keys(c: Cols, names: list[str], pack: bool = True) -> Keys:
    """One key per row of ``c``'s columns ``names``: equal rows, equal keys.

    With ``pack``, one or two integer columns whose values all lie in
    [0, 2³²) become one int64 per row: the value, or ``a << 32 | b``. For
    a ≥ 2³¹ the shift sets the sign bit: such keys are negative but still
    distinct, and :func:`_unpack` still recovers the row. Every other
    relation gets a MultiIndex. Keys of the two kinds never match each
    other, so keys that are compared must come from the same column
    order and the same encoding (:meth:`RowSet.keys_of` sees to that).
    """
    cols = [c[n] for n in names]
    if pack and len(cols) in (1, 2) and all(_packs(v) for v in cols):
        keys = cols[0].astype(np.int64, copy=False)
        return keys if len(cols) == 1 else (keys << 32) | cols[1].astype(np.int64, copy=False)
    return pd.MultiIndex.from_arrays(cols)


def _unpack(keys: np.ndarray, like: Cols, names: list[str]) -> Cols:
    """The rows whose packed :func:`row_keys` are ``keys``, with the
    dtypes of ``like``."""
    vals = [keys] if len(names) == 1 else [(keys >> 32) & _HALF, keys & _HALF]
    return {n: v.astype(like[n].dtype, copy=False) for n, v in zip(names, vals)}


def _distinct(c: Cols, names: list[str], keys: Keys) -> tuple[Cols, Keys]:
    """The distinct rows of ``c``'s columns ``names``, whose keys are
    ``keys``, and their keys (packed keys come out sorted)."""
    if isinstance(keys, np.ndarray):
        keys = np.unique(keys)
        return _unpack(keys, c, names), keys
    first = np.flatnonzero(~keys.duplicated())
    return {n: c[n][first] for n in names}, keys[first]


def dedup(c: Cols) -> Cols:
    """Distinct rows of ``c``."""
    if not c:
        return c
    names = list(c)
    return _distinct(c, names, row_keys(c, names))[0]


def set_union(a: Cols, b: Cols) -> Cols:
    """Distinct union of two relations with the same columns (in any
    order)."""
    return dedup({k: np.concatenate([a[k], b[k]]) for k in a})


class RowSet:
    """A set of rows: the disjoint column sets that built it, and one key
    per row (:func:`row_keys`) for membership tests.

    X of Algorithm 1: built once from the seeds, grown by each
    iteration's new rows, concatenated once by :meth:`rows`. Its keys are
    a sorted int64 array while every relation compared with it packs;
    the first one that does not re-encodes X as a MultiIndex for good.
    """

    def __init__(self, rows: Cols) -> None:
        self.cols = list(rows)
        rows, self.keys = _distinct(rows, self.cols, row_keys(rows, self.cols))
        self.parts = [rows]

    def __len__(self) -> int:
        return len(self.keys)

    def keys_of(self, c: Cols) -> Keys:
        """Keys of ``c``'s rows, comparable with :attr:`keys`."""
        packed = isinstance(self.keys, np.ndarray)
        keys = row_keys(c, self.cols, pack=packed)
        if packed and not isinstance(keys, np.ndarray):
            self.keys = row_keys(self.rows(), self.cols, pack=False)
        return keys

    def missing(self, keys: Keys) -> np.ndarray:
        """Mask of the ``keys`` (from :meth:`keys_of`) not in the set."""
        if isinstance(self.keys, np.ndarray):
            pos = np.searchsorted(self.keys, keys)
            found = pos < len(self.keys)
            found[found] = self.keys[pos[found]] == keys[found]
            return ~found
        return ~keys.isin(self.keys)

    def add(self, rows: Cols) -> None:
        """Add distinct rows not in the set yet, as :func:`set_difference`
        returns them."""
        keys = self.keys_of(rows)
        self.parts.append(rows)
        if isinstance(self.keys, np.ndarray):
            self.keys = np.insert(self.keys, np.searchsorted(self.keys, keys), keys)
        else:
            self.keys = self.keys.append(keys)

    def rows(self) -> Cols:
        return {k: np.concatenate([p[k] for p in self.parts]) for k in self.cols}


def set_difference(a: Cols, b: Cols | RowSet) -> Cols:
    """Distinct rows of ``a`` not in ``b``, in ``b``'s column order.

    ``b`` has ``a``'s columns; it may be a :class:`RowSet` (the semi-naive
    loop's X, which is then neither deduplicated nor encoded again).
    """
    x = b if isinstance(b, RowSet) else RowSet({k: b[k] for k in a})
    rows, keys = _distinct(a, x.cols, x.keys_of(a))
    return _take(rows, x.missing(keys))


class _Index:
    """The rows of a relation grouped by their values on columns ``on``,
    for joins that probe it: the distinct values as an Index that
    ``get_indexer`` probes, the rows stably sorted by group, and each
    group's count and start in that order."""

    def __init__(self, rel: Cols, on: list[str]) -> None:
        self.on = on
        key = _key(rel, on)
        # (An empty MultiIndex cannot be factorized.)
        codes, groups = (
            pd.factorize(key, use_na_sentinel=False) if len(key) else (np.empty(0, np.intp), key)
        )
        self.groups = pd.Index(groups)
        self.order = np.argsort(codes, kind="stable")
        self.counts = np.bincount(codes, minlength=len(self.groups))
        self.starts = np.cumsum(self.counts) - self.counts

    def group_of(self, rel: Cols) -> np.ndarray:
        """Each row's group in the index, or -1 where it has none."""
        return self.groups.get_indexer(_key(rel, self.on))

    def probe(self, rel: Cols) -> tuple[np.ndarray, np.ndarray]:
        """Row pairs (i of ``rel``, j of the indexed relation) that agree
        on ``on``."""
        g = self.group_of(rel)
        i = np.flatnonzero(g >= 0)
        g = g[i]
        n = self.counts[g]
        ends = np.cumsum(n)
        total = int(ends[-1]) if len(ends) else 0
        j = self.order[np.repeat(self.starts[g] - ends + n, n) + np.arange(total)]
        return np.repeat(i, n), j


def _key(rel: Cols, on: list[str]) -> pd.Index:
    if len(on) == 1:
        return pd.Index(rel[on[0]])
    return pd.MultiIndex.from_arrays([rel[c] for c in on])


def _shared(a: Cols, b: Cols) -> list[str]:
    return [k for k in b if k in a]


def natural_join(a: Cols, b: Cols, index: _Index | None = None) -> Cols:
    """a ⋈ b on their shared columns; ``index`` is ``b``'s on them, if
    one is built already (else the smaller side is indexed for this call)."""
    on = index.on if index else _shared(a, b)
    if not on:
        i = np.repeat(np.arange(_len(a)), _len(b))
        j = np.tile(np.arange(_len(b)), _len(a))
    elif index is None and _len(a) < _len(b):
        j, i = _Index(a, on).probe(b)
    else:
        i, j = (index or _Index(b, on)).probe(a)
    out = _take(a, i)
    out.update({k: v[j] for k, v in b.items() if k not in out})
    return out


def anti_join(a: Cols, b: Cols, index: _Index | None = None) -> Cols:
    """Rows of ``a`` with no match in ``b`` on their shared columns."""
    on = index.on if index else _shared(a, b)
    if not on:
        return a if _len(b) == 0 else _take(a, np.arange(0))
    return _take(a, (index or _Index(b, on)).group_of(a) < 0)


def _filter(c: Cols, cond: EqConst | EqCol) -> Cols:
    if isinstance(cond, EqConst):
        return _take(c, c[cond.col] == cond.value)
    if isinstance(cond, EqCol):
        return _take(c, c[cond.col1] == c[cond.col2])
    raise TypeError(f"unknown condition {cond!r}")


def _antiproject(c: Cols, cols: tuple[str, ...]) -> Cols:
    return dedup({k: v for k, v in c.items() if k not in cols})


def _rename(c: Cols, old: str, new: str) -> Cols:
    return {(new if k == old else k): v for k, v in c.items()}


def _probing(op, plan: Plan, const: Cols) -> Plan:
    """``op(plan(x), const)`` for a join or antijoin, probing an index of
    ``const`` built at the first call for each set of shared columns."""
    indexes: dict[tuple[str, ...], _Index | None] = {}

    def run(x: Cols) -> Cols:
        a = plan(x)
        on = tuple(_shared(a, const))
        if on not in indexes:
            indexes[on] = _Index(const, list(on)) if on else None
        return op(a, const, indexes[on])

    return run


def _lift(p: Cols | Plan) -> Plan:
    return (lambda x: p) if isinstance(p, dict) else p


def _compile(
    t: Term, var: str | None, env: Mapping[str, pd.DataFrame], row_cap: int | None
) -> Cols | Plan:
    """``t`` as a :data:`Plan` of the value of recursion variable ``var``;
    a subterm in which ``var`` does not occur is evaluated now, once, and
    returned as :data:`Cols`."""
    if isinstance(t, Var) and t.name == var:
        return lambda x: x
    if isinstance(t, (Rel, Var)):
        return columns(env[t.name])
    if isinstance(t, Fix):
        check_fcond(t)
        const, phi = constant_variable_split(t)
        seeds = _compile(const, None, env, row_cap)
        return columns(seminaive_loop(phi, t.var, frame(seeds), env, row_cap))
    if isinstance(t, (Filter, AntiProject, Rename)):
        child = _compile(t.child, var, env, row_cap)
        if isinstance(t, Filter):
            op = partial(_filter, cond=t.cond)
        elif isinstance(t, AntiProject):
            op = partial(_antiproject, cols=t.cols)
        else:
            op = partial(_rename, old=t.old, new=t.new)
        if isinstance(child, dict):
            return op(child)
        return lambda x: op(child(x))
    if isinstance(t, (Union_, Join, AntiJoin)):
        op = {Union_: set_union, Join: natural_join, AntiJoin: anti_join}[type(t)]
        left = _compile(t.left, var, env, row_cap)
        right = _compile(t.right, var, env, row_cap)
        if isinstance(left, dict) and isinstance(right, dict):
            return op(left, right)
        if isinstance(right, dict) and op is not set_union:
            return _probing(op, left, right)
        if isinstance(left, dict) and op is natural_join:
            return _probing(op, right, left)
        left, right = _lift(left), _lift(right)
        return lambda x: op(left(x), right(x))
    raise TypeError(f"not a μ-RA term: {t!r}")


def eval_pandas(
    term: Term, env: Mapping[str, pd.DataFrame], row_cap: int | None = None
) -> pd.DataFrame:
    """Evaluate ``term``; ``env`` binds relation names *and* any free
    recursion variables to frames. The result is deduplicated.

    A fixpoint (nested ones too) whose X grows past ``row_cap`` rows
    raises :class:`CapacityError`; ``None`` means no cap.
    """
    return frame(dedup(_compile(term, None, env, row_cap)))


def seminaive_loop(
    phi: Term,
    var: str,
    seeds: pd.DataFrame,
    env: Mapping[str, pd.DataFrame],
    row_cap: int | None = None,
) -> pd.DataFrame:
    """Run Algorithm 1 locally: X=R; new=R; while new: new=φ(new)∖X; X∪=new.

    Exposed separately so the P_plw^s physical plan can run it inside a
    ``mapInPandas`` partition with broadcast constant relations. φ is
    compiled once per call. Raises :class:`CapacityError` once
    |X| > ``row_cap``. Each iteration calls the module-level
    :func:`set_difference` once, looked up at call time, so wrapping it
    counts iterations.
    """
    branches = [_lift(_compile(b, var, env, row_cap)) for b in union_branches(phi)]
    x = RowSet(columns(seeds))
    new = x.parts[0]
    for _ in range(MAX_ITERATIONS):
        if not _len(new):
            return frame(x.rows())
        outs = [b(new) for b in branches]
        delta = {k: np.concatenate([o[k] for o in outs]) for k in x.cols}
        new = set_difference(delta, x)
        if _len(new):
            x.add(new)
            if row_cap is not None and len(x) > row_cap:
                raise CapacityError(f"fixpoint exceeded row_cap={row_cap}")
    raise RuntimeError(f"fixpoint did not converge in {MAX_ITERATIONS} iterations")
