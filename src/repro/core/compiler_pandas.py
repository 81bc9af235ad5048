"""Pandas backend: evaluate μ-RA terms over in-memory relations.

This backend plays two roles:

* the partition-local engine of the P_plw^s physical plan (our SetRDD
  analogue: each Spark partition runs its own semi-naive loop here) and
  the one-task loop of the ``gld→local`` hand-off, see
  :mod:`repro.core.plans`;
* :func:`eval_pandas`, the single-machine evaluator that the benchmark
  suites run as the Myria-like baseline and that tests use as a fast
  reference.

:func:`eval_pandas` and :func:`seminaive_loop` take and return pandas
DataFrames. Inside, a relation is columnar: a dict of equal-length NumPy
arrays (:data:`Cols`), so a rename costs nothing and no DataFrame is
built per operator. Set semantics: deduplication is applied at union and
antiprojection, exactly where μ-RA requires it. The top-level π̃ of a
branch of φ is the exception: its duplicates go to the loop's one
:func:`set_difference` per iteration, which removes them anyway.

Each :func:`seminaive_loop` call compiles φ once (:func:`_compile`).
Every subterm without X — relations, filters, compositions, nested
fixpoints — is evaluated then, once; what is left is a function of X's
delta that does only NumPy work. A join or antijoin with such a constant
side probes an :class:`_Index` of it, built once per join node and set
of shared columns. An index on one integer column of small values is a
direct-address table (:data:`TABLE_FACTOR`).

X is a :class:`RowSet`: the disjoint column sets that built it,
concatenated once at the end, plus a membership structure chosen once
per loop. μ-RA creates no values, so every value of X comes from the
seeds or from the constants that φ combines with X; the loop reads their
maximum once. When X's columns are non-negative integers and the
mixed-radix domain of its rows fits :data:`DENSE_BITS`, X is a bitmap
over that domain: an iteration gathers the delta's bits, deduplicates
the unseen keys alone with ``np.unique``, sets their bits and unpacks
them with ``divmod``. Otherwise X keeps sorted packed keys (one or two
integer columns in [0, 2³²), :func:`row_keys`, in the style of Soufflé's
specialized tuple stores), merged in with ``np.insert`` at the positions
that the iteration's one ``searchsorted`` found, or, for any other rows,
a MultiIndex. X is never deduplicated or copied row-wise again.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, Union

import numpy as np
import pandas as pd

from .fcond import check_fcond, constant_variable_split, semi_naive, union_branches
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

# Integer values in [0, _PACK_LIMIT) fit the 32 bits of a packed key half.
_PACK_LIMIT = 1 << 32
_HALF = _PACK_LIMIT - 1

DENSE_BITS = 1 << 28
"""The most bits that one loop's X bitmap may hold: 32 MiB, allocated
with ``np.zeros``, so pages that no key reaches cost nothing. Beyond it X
keeps sorted keys. ``jobs/kernel_bench.py`` (4-core VM, medians of 5):
tc tree_15k, whose 15k² domain (2.25·10⁸ bits) is the largest that a
case reaches, runs in 8–9 ms against 13 ms with sorted keys, so a sparse
domain near the budget still gains; tc rnd_2k_0.01 takes 0.13 s against
0.29 s, and yago_lite 30k Q21 0.45 s against 0.92 s. A larger budget
would let each of an executor's concurrent loops touch more memory, for
no input that the benchmarks have."""

TABLE_FACTOR = 8
"""An :class:`_Index` on one column of non-negative integers whose
largest value is below TABLE_FACTOR × its rows is a direct-address
table: three intp arrays of at most that many slots, 192 bytes per
indexed row at 8. ``jobs/kernel_bench.py`` (4-core VM, medians of 5):
the six local-engines cases join on node ids below their rows and sum to
19–20 ms at any factor from 1 to 1024, against 23 ms with no tables;
yago_lite 30k Q25 (0.30–0.34 s) and Q21 (0.44–0.48 s) stay within noise
at every factor. So the factor only bounds the memory of sparse tables."""

# A relation: column name → values, all of one length.
Cols = dict[str, np.ndarray]
# A subterm of φ as a function of the recursion variable's current value.
Plan = Callable[[Cols], Cols]
# Row keys: packed int64 values, or a MultiIndex.
Keys = Union[np.ndarray, pd.MultiIndex]

# Bit i of a byte, for the bitmap's scatter.
_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)


def columns(df: pd.DataFrame) -> Cols:
    return {c: df[c].to_numpy() for c in df.columns}


def frame(c: Cols) -> pd.DataFrame:
    return pd.DataFrame(c, copy=False)


def _len(c: Cols) -> int:
    return len(next(iter(c.values()))) if c else 0


def _take(c: Cols, idx: np.ndarray) -> Cols:
    return {k: v[idx] for k, v in c.items()}


def _ints(col: np.ndarray) -> bool:
    return col.dtype.kind in "iu"


def _packs(col: np.ndarray) -> bool:
    return _ints(col) and (len(col) == 0 or (col.min() >= 0 and col.max() < _PACK_LIMIT))


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


def _radix_keys(c: Cols, names: list[str], radix: int) -> np.ndarray:
    """Each row's number in the mixed-radix domain of ``names``, whose
    values lie in [0, radix): Σᵢ vᵢ·radix^(k-1-i), lexicographic order."""
    keys = c[names[0]].astype(np.int64, copy=len(names) > 1)
    for n in names[1:]:
        keys *= radix
        keys += c[n].astype(np.int64, copy=False)
    return keys


def _radix_rows(keys: np.ndarray, like: Cols, names: list[str], radix: int) -> Cols:
    """The rows whose :func:`_radix_keys` are ``keys``, with the dtypes of
    ``like``."""
    out = {}
    for n in reversed(names[1:]):
        keys, out[n] = np.divmod(keys, radix)
    out[names[0]] = keys
    return {n: out[n].astype(like[n].dtype, copy=False) for n in names}


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
    """A set of rows: the disjoint column sets that built it, and one
    membership structure, for X of Algorithm 1.

    Built once from the seeds, grown by each iteration's new rows,
    concatenated once by :meth:`rows`. ``high``, if given, bounds every
    value the set will ever hold, all non-negative integers (as
    :func:`seminaive_loop` derives it). With it, and Π(high+1) over the
    columns within :data:`DENSE_BITS`, membership is a bitmap over each
    row's :func:`_radix_keys`. Otherwise it is a sorted int64 array of
    :func:`row_keys` while every relation compared with the set packs;
    the first one that does not (and, for a bitmap, the first one with a
    column that is not an integer) re-encodes the set as a MultiIndex
    for good.
    """

    def __init__(self, rows: Cols, high: int | None = None) -> None:
        self.cols = list(rows)
        self.parts: list[Cols] = []
        self.size = 0
        self.bits = self.keys = None
        dense = high is not None and self.cols and all(_ints(rows[c]) for c in self.cols)
        if dense and (high + 1) ** len(self.cols) <= DENSE_BITS:
            self.radix = high + 1
            self.bits = np.zeros(-(-self.radix ** len(self.cols) // 8), np.uint8)
        else:
            self.keys = row_keys(rows, self.cols)[:0]
        self._found: tuple[Cols, Keys, np.ndarray | None] | None = None
        self.add(rows)

    def __len__(self) -> int:
        return self.size

    @property
    def encoding(self) -> str:
        """How membership is kept: "dense", "sorted" or "index"."""
        if self.bits is not None:
            return "dense"
        return "sorted" if isinstance(self.keys, np.ndarray) else "index"

    def keys_of(self, c: Cols) -> Keys:
        """Keys of ``c``'s rows in the set's encoding (which changes for
        good if ``c`` does not fit it)."""
        if self.bits is not None:
            if all(_ints(c[n]) for n in self.cols):
                return _radix_keys(c, self.cols, self.radix)
            self.bits, self.keys = None, row_keys(self.rows(), self.cols, pack=False)
        packed = isinstance(self.keys, np.ndarray)
        keys = row_keys(c, self.cols, pack=packed)
        if packed and not isinstance(keys, np.ndarray):
            self.keys = row_keys(self.rows(), self.cols, pack=False)
        return keys

    def difference(self, c: Cols) -> Cols:
        """The distinct rows of ``c`` not in the set, in its column order.
        :meth:`add` of them reuses the keys (and sorted positions) found
        here."""
        keys = self.keys_of(c)
        pos = None
        if self.bits is not None:
            seen = (self.bits[keys >> 3] >> (keys & 7).astype(np.uint8)) & 1
            keys = np.unique(keys[seen == 0])
            new = _radix_rows(keys, c, self.cols, self.radix)
        elif isinstance(keys, np.ndarray):
            new, keys = _distinct(c, self.cols, keys)
            pos = np.searchsorted(self.keys, keys)
            found = pos < len(self.keys)
            found[found] = self.keys[pos[found]] == keys[found]
            miss = ~found
            new, keys, pos = _take(new, miss), keys[miss], pos[miss]
        else:
            new, keys = _distinct(c, self.cols, keys)
            miss = ~keys.isin(self.keys)
            new, keys = _take(new, miss), keys[miss]
        self._found = (new, keys, pos)
        return new

    def add(self, rows: Cols) -> None:
        """Add ``rows`` (only those not in the set yet)."""
        if self._found is None or self._found[0] is not rows:
            self.difference(rows)
        rows, keys, pos = self._found
        self._found = None
        self.parts.append(rows)
        self.size += len(keys)
        if self.bits is not None:
            np.bitwise_or.at(self.bits, keys >> 3, _BIT[keys & 7])
        elif pos is not None:
            self.keys = np.insert(self.keys, pos, keys)
        else:
            self.keys = self.keys.append(keys)

    def rows(self) -> Cols:
        return {k: np.concatenate([p[k] for p in self.parts]) for k in self.cols}


def set_difference(a: Cols, b: Cols | RowSet) -> Cols:
    """Distinct rows of ``a`` not in ``b``.

    ``b`` has ``a``'s columns; it may be a :class:`RowSet` (the semi-naive
    loop's X, which is then neither deduplicated nor encoded again, and
    whose column order the rows take).
    """
    x = b if isinstance(b, RowSet) else RowSet({k: b[k] for k in a})
    return x.difference(a)


class _Index:
    """The rows of a relation grouped by their values on columns ``on``,
    for joins that probe it: the rows stably sorted by group, and each
    group's count and start in that order.

    On one column of non-negative integers below :data:`TABLE_FACTOR` ×
    the rows, a value is its own group and ``table`` maps it to itself
    (-1 where no row holds it). Otherwise the groups are numbered, and
    their distinct values are an Index that ``get_indexer`` probes.
    """

    def __init__(self, rel: Cols, on: list[str]) -> None:
        self.on = on
        self.table = None
        col = rel[on[0]]
        if len(on) == 1 and _ints(col) and len(col) and col.min() >= 0 and (
            col.max() < TABLE_FACTOR * len(col)
        ):
            codes = col.astype(np.intp, copy=False)
            self.counts = np.bincount(codes)
            # One spare slot, which a probe of any value out of range reads.
            self.table = np.append(np.where(self.counts > 0, np.arange(len(self.counts)), -1), -1)
        else:
            key = _key(rel, on)
            # (An empty MultiIndex cannot be factorized.)
            codes, groups = (
                pd.factorize(key, use_na_sentinel=False) if len(key) else (np.empty(0, np.intp), key)
            )
            self.groups = pd.Index(groups)
            self.counts = np.bincount(codes, minlength=len(self.groups))
        self.order = np.argsort(codes, kind="stable")
        self.starts = np.cumsum(self.counts) - self.counts

    def group_of(self, rel: Cols) -> np.ndarray:
        """Each row's group in the index, or -1 where it has none."""
        if self.table is None:
            return self.groups.get_indexer(_key(rel, self.on))
        col = rel[self.on[0]]
        if _ints(col):
            # (uint64 values ≥ 2⁶³ turn negative, which is out of range too.)
            return self.table[np.clip(col.astype(np.int64, copy=False), -1, len(self.counts))]
        values = np.flatnonzero(self.counts)
        pos = pd.Index(values).get_indexer(col)
        return np.where(pos >= 0, values[pos], -1)

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


def _antiproject(c: Cols, cols: tuple[str, ...], distinct: bool = True) -> Cols:
    kept = {k: v for k, v in c.items() if k not in cols}
    return dedup(kept) if distinct else kept


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
    t: Term,
    var: str | None,
    env: Mapping[str, pd.DataFrame],
    row_cap: int | None,
    sources: list[Cols] | None = None,
    bag: bool = False,
) -> Cols | Plan:
    """``t`` as a :data:`Plan` of the value of recursion variable ``var``;
    a subterm in which ``var`` does not occur is evaluated now, once, and
    returned as :data:`Cols`.

    ``sources`` collects the constants whose values a plan's output can
    hold: the sides of joins and unions with a plan. With ``bag``, a π̃
    at the top (under filters and renames only) keeps its duplicates.
    """
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
        if isinstance(t, AntiProject):
            child = _compile(t.child, var, env, row_cap, sources)
            op = partial(_antiproject, cols=t.cols, distinct=not bag)
        else:
            child = _compile(t.child, var, env, row_cap, sources, bag)
            if isinstance(t, Filter):
                op = partial(_filter, cond=t.cond)
            else:
                op = partial(_rename, old=t.old, new=t.new)
        if isinstance(child, dict):
            return op(child)
        return lambda x: op(child(x))
    if isinstance(t, (Union_, Join, AntiJoin)):
        op = {Union_: set_union, Join: natural_join, AntiJoin: anti_join}[type(t)]
        left = _compile(t.left, var, env, row_cap, sources)
        right = _compile(t.right, var, env, row_cap, sources)
        if isinstance(left, dict) and isinstance(right, dict):
            return op(left, right)
        for side in (left, right):
            if isinstance(side, dict) and not (op is anti_join and side is right):
                sources.append(side)
        if isinstance(right, dict) and op is not set_union:
            return _probing(op, left, right)
        if isinstance(left, dict) and op is natural_join:
            return _probing(op, right, left)
        left, right = _lift(left), _lift(right)
        return lambda x: op(left(x), right(x))
    raise TypeError(f"not a μ-RA term: {t!r}")


def eval_pandas(
    term: Term,
    env: Mapping[str, pd.DataFrame],
    row_cap: int | None = None,
    distinct: bool = True,
) -> pd.DataFrame:
    """Evaluate ``term``; ``env`` binds relation names *and* any free
    recursion variables to frames. The result is deduplicated (that of a
    term :func:`_is_set` already is), unless ``distinct`` is false: then a
    π̃ at the top (under σ and ρ only) keeps its duplicates, and the rows
    of a σ, ρ and π̃ chain over a relation keep that relation's order.

    A fixpoint (nested ones too) whose X grows past ``row_cap`` rows
    raises :class:`CapacityError`; ``None`` means no cap.
    """
    out = _compile(term, None, env, row_cap, bag=not distinct)
    return frame(out if not distinct or _is_set(term) else dedup(out))


def _is_set(t: Term) -> bool:
    """Whether ``t`` evaluates to a set even if the frames it reads hold
    duplicates: a fixpoint, ∪ and π̃ deduplicate their rows, and σ, ρ, ⋈
    and ▷ keep sets sets."""
    if isinstance(t, (Fix, Union_, AntiProject)):
        return True
    if isinstance(t, (Filter, Rename)):
        return _is_set(t.child)
    if isinstance(t, Join):
        return _is_set(t.left) and _is_set(t.right)
    return isinstance(t, AntiJoin) and _is_set(t.left)


def _high(seeds: Cols, sources: list[Cols]) -> int | None:
    """The largest value in the integer columns of the seeds and
    ``sources``, None if one of them is negative. μ-RA creates no values,
    so X's integer values come from there, or from boolean columns that
    NumPy concatenates with integers (a column of X that is not an
    integer keeps X off the bitmap, see :class:`RowSet`)."""
    cols = [v for c in (seeds, *sources) for v in c.values() if v.dtype.kind in "iub" and len(v)]
    if any(v.min() < 0 for v in cols):
        return None
    return max((int(v.max()) for v in cols), default=0)


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
    compiled once per call, and X's encoding is chosen once
    (:class:`RowSet`); :func:`repro.core.fcond.semi_naive` drives the
    loop and its caps. Each iteration calls the module-level
    :func:`set_difference` once, looked up at call time, so wrapping it
    counts iterations.
    """
    sources: list[Cols] = []
    branches = []
    for b in union_branches(phi):
        plan = _compile(b, var, env, row_cap, sources, bag=True)
        if isinstance(plan, dict):
            sources.append(plan)
        branches.append(_lift(plan))
    seeds = columns(seeds)
    x = RowSet(seeds, _high(seeds, sources))
    new = x.parts[0]

    def step() -> int:
        nonlocal new
        outs = [b(new) for b in branches]
        delta = {k: np.concatenate([o[k] for o in outs]) for k in x.cols}
        new = set_difference(delta, x)
        if _len(new):
            x.add(new)
        return _len(new)

    semi_naive(step, len(x), row_cap)
    return frame(x.rows())
