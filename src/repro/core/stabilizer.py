"""Stable-column analysis (paper §IV-A2, Definition 10 of [11]).

A column ``c`` of a fixpoint μ(X = R ∪ φ) is *stable* when every tuple
produced by φ carries, at column ``c``, the exact value that the
consumed X-tuple had at the *same* column ``c`` — i.e. the column "is
not altered during the fixpoint iteration".

Consequences used by Dist-μ-RA:

* a filter σ_{c=v} commutes with the fixpoint when c is stable
  (push-filter-into-fixpoint rewrite);
* repartitioning the constant part R by a stable column makes the
  per-partition local fixpoints pairwise disjoint (paper's proof in
  §IV-A2), so P_plw needs no final ``distinct``.

The analysis computes, for each output column of φ, its *provenance*:
either the X column whose value flows through unchanged, or ``None``
(value produced/altered by constants, renames across names, etc.).
"""
from __future__ import annotations

from typing import Mapping, Optional

from .terms import (
    AntiJoin,
    AntiProject,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    SchemaError,
    Term,
    Union_,
    Var,
    free_vars,
    schema,
)


def provenance(
    t: Term,
    x: str,
    env: Mapping[str, frozenset[str]],
    x_schema: frozenset[str],
) -> dict[str, Optional[str]]:
    """Column provenance of a term with ``x`` free (see module docstring).

    Maps each output column to the X column it copies, or None.
    """
    bound = {x: x_schema}

    def rec(t: Term) -> dict[str, Optional[str]]:
        if isinstance(t, Var) and t.name == x:
            return {c: c for c in x_schema}
        if x not in free_vars(t):
            # Constant subterm: contributes no X provenance.
            return {c: None for c in schema(t, env, bound)}
        if isinstance(t, (Join, AntiJoin)):
            lp = rec(t.left) if x in free_vars(t.left) else {
                c: None for c in schema(t.left, env, bound)
            }
            if isinstance(t, AntiJoin):
                return lp  # output schema is the left side's
            rp = rec(t.right) if x in free_vars(t.right) else {
                c: None for c in schema(t.right, env, bound)
            }
            # Shared join columns: the value equals both sides'; if the
            # X side passes it through, the joined value is still X's.
            out: dict[str, Optional[str]] = {}
            for c in set(lp) | set(rp):
                out[c] = lp.get(c) or rp.get(c)
            return out
        if isinstance(t, Filter):
            return rec(t.child)
        if isinstance(t, Rename):
            p = rec(t.child)
            p[t.new] = p.pop(t.old)
            return p
        if isinstance(t, AntiProject):
            p = rec(t.child)
            for c in t.cols:
                p.pop(c, None)
            return p
        if isinstance(t, Union_):
            lp, rp = rec(t.left), rec(t.right)
            if set(lp) != set(rp):
                raise SchemaError("union of incompatible schemas in provenance")
            return {c: lp[c] if lp[c] == rp[c] else None for c in lp}
        if isinstance(t, (Rel, Fix, Var)):
            # Rel/inner-Fix are constant in x (handled above); a Var here
            # would be a different recursion variable, also constant.
            return {c: None for c in schema(t, env, bound)}
        raise TypeError(f"not a μ-RA term: {t!r}")

    return rec(t)


def stable_columns(
    phi: Term,
    x: str,
    env: Mapping[str, frozenset[str]],
    x_schema: frozenset[str],
) -> frozenset[str]:
    """Columns of the fixpoint left unchanged by the variable part φ.

    A column is stable iff its provenance is itself in every union
    branch of φ.
    """
    prov = provenance(phi, x, env, x_schema)
    return frozenset(c for c, origin in prov.items() if origin == c)


def used_columns(
    phi: Term,
    x: str,
    env: Mapping[str, frozenset[str]],
    x_schema: frozenset[str],
) -> frozenset[str]:
    """X columns that φ actively consumes (renamed, filtered, dropped,
    or used as join keys on the X path).

    Conservative over-approximation used by the
    push-antiprojection-into-fixpoint rewrite: a stable column may only
    be dropped from the fixpoint if φ never references it. Names are
    tracked on the X path only, which is exact for rename-before-join
    terms (everything :func:`repro.core.terms.compose` builds) and
    conservative otherwise.
    """
    from .terms import EqCol, EqConst, walk

    bound = {x: x_schema}
    used: set[str] = set()

    def on_x_path(t: Term) -> bool:
        return x in free_vars(t)

    for sub in walk(phi):
        if isinstance(sub, Rename) and on_x_path(sub.child):
            used.add(sub.old)
        if isinstance(sub, Filter) and on_x_path(sub.child):
            if isinstance(sub.cond, EqConst):
                used.add(sub.cond.col)
            elif isinstance(sub.cond, EqCol):
                used.update((sub.cond.col1, sub.cond.col2))
        if isinstance(sub, AntiProject) and on_x_path(sub.child):
            used.update(sub.cols)
        if isinstance(sub, (Join, AntiJoin)) and on_x_path(sub):
            shared = schema(sub.left, env, bound) & schema(sub.right, env, bound)
            used.update(shared)
    return frozenset(used)
