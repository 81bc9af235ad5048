"""μ-RA term language (paper §II-A, Fig. 1).

Terms are immutable dataclasses forming the AST of the recursive
relational algebra of [Jachiet et al., SIGMOD'20] as recalled by the
Dist-μ-RA paper:

    ψ ::= X                  recursion variable          (:class:`Var`)
        | R                  database relation            (:class:`Rel`)
        | ψ1 ∪ ψ2            union                        (:class:`Union`)
        | ψ1 ⋈ ψ2            natural join                 (:class:`Join`)
        | ψ1 ▷ ψ2            antijoin                     (:class:`AntiJoin`)
        | σ_f(ψ)             filter                       (:class:`Filter`)
        | π̃_c(ψ)             antiprojection (drop cols)   (:class:`AntiProject`)
        | ρ_a→b(ψ)           column rename                (:class:`Rename`)
        | μ(X = ψ)           fixpoint                     (:class:`Fix`)

The data model is *set* semantics over named columns: a relation is a
set of tuples mapping column names to values. Every compiler backend
(Spark / pandas / SQL) must preserve set semantics at ∪ and π̃.

Filter conditions (:class:`Cond`) cover the forms needed by UCRPQs and
the paper's μ-RA example terms: column = constant and column = column.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Union as TyUnion

Value = TyUnion[int, str, float]

# ---------------------------------------------------------------------------
# Filter conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqConst:
    """σ condition ``col = value``."""

    col: str
    value: Value

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"{self.col}={self.value!r}"


@dataclass(frozen=True)
class EqCol:
    """σ condition ``col1 = col2``."""

    col1: str
    col2: str

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"{self.col1}={self.col2}"


Cond = TyUnion[EqConst, EqCol]

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """Base class for μ-RA terms. Subclasses are frozen dataclasses."""

    __slots__ = ()

    # Convenience operators for test/plan readability.
    def union(self, other: "Term") -> "Union_":
        return Union_(self, other)

    def join(self, other: "Term") -> "Join":
        return Join(self, other)


@dataclass(frozen=True)
class Rel(Term):
    """A free database relation variable (e.g. graph edges)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Var(Term):
    """A recursion variable bound by an enclosing μ."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Union_(Term):
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} ∪ {self.right})"


@dataclass(frozen=True)
class Join(Term):
    """Natural join on the common columns of the two sides."""

    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} ⋈ {self.right})"


@dataclass(frozen=True)
class AntiJoin(Term):
    """t1 ▷ t2: tuples of t1 with no match in t2 on common columns."""

    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} ▷ {self.right})"


@dataclass(frozen=True)
class Filter(Term):
    cond: Cond
    child: Term

    def __str__(self) -> str:
        return f"σ[{self.cond}]({self.child})"


@dataclass(frozen=True)
class AntiProject(Term):
    """π̃_cols: drop ``cols`` then deduplicate (set semantics)."""

    cols: tuple[str, ...]
    child: Term

    def __str__(self) -> str:
        return f"π̃[{','.join(self.cols)}]({self.child})"


@dataclass(frozen=True)
class Rename(Term):
    """ρ_old→new: rename column ``old`` to ``new``."""

    old: str
    new: str
    child: Term

    def __str__(self) -> str:
        return f"ρ[{self.old}→{self.new}]({self.child})"


@dataclass(frozen=True)
class Fix(Term):
    """μ(var = body): least fixpoint of ``body`` in ``var``."""

    var: str
    body: Term

    def __str__(self) -> str:
        return f"μ({self.var} = {self.body})"


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def children(t: Term) -> tuple[Term, ...]:
    """Direct sub-terms of ``t`` (empty for leaves)."""
    if isinstance(t, (Rel, Var)):
        return ()
    if isinstance(t, (Union_, Join, AntiJoin)):
        return (t.left, t.right)
    if isinstance(t, (Filter, AntiProject, Rename)):
        return (t.child,)
    if isinstance(t, Fix):
        return (t.body,)
    raise TypeError(f"not a μ-RA term: {t!r}")


def walk(t: Term) -> Iterator[Term]:
    """Pre-order traversal of all sub-terms, including ``t`` itself."""
    yield t
    for c in children(t):
        yield from walk(c)


def free_vars(t: Term) -> frozenset[str]:
    """Names of recursion variables occurring free in ``t``."""
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Fix):
        return free_vars(t.body) - {t.var}
    out: frozenset[str] = frozenset()
    for c in children(t):
        out |= free_vars(c)
    return out


def free_rels(t: Term) -> frozenset[str]:
    """Names of database relations referenced anywhere in ``t``."""
    out: frozenset[str] = frozenset()
    for s in walk(t):
        if isinstance(s, Rel):
            out |= {s.name}
    return out


def is_constant_in(t: Term, var: str) -> bool:
    """True iff the recursion variable ``var`` does not occur free in ``t``."""
    return var not in free_vars(t)


def map_children(t: Term, f: Callable[[Term], Term]) -> Term:
    """``t`` rebuilt with ``f`` applied to each direct sub-term (the cases
    of :func:`children`); leaves are returned as they are."""
    if isinstance(t, (Rel, Var)):
        return t
    if isinstance(t, (Union_, Join, AntiJoin)):
        return type(t)(f(t.left), f(t.right))
    if isinstance(t, Filter):
        return Filter(t.cond, f(t.child))
    if isinstance(t, AntiProject):
        return AntiProject(t.cols, f(t.child))
    if isinstance(t, Rename):
        return Rename(t.old, t.new, f(t.child))
    if isinstance(t, Fix):
        return Fix(t.var, f(t.body))
    raise TypeError(f"not a μ-RA term: {t!r}")


def subst(t: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of free occurrences of ``var``.

    Inner fixpoints that rebind ``var`` shadow it (their bodies are left
    untouched), matching the binding rules of [11].
    """
    if isinstance(t, Var) and t.name == var:
        return replacement
    if isinstance(t, Fix) and t.var == var:
        return t
    return map_children(t, lambda c: subst(c, var, replacement))


def pinned(t: Term) -> dict[str, Value]:
    """Columns that hold one constant in every row of ``t``, with it.

    ``σ[c=v]`` pins ``c``; ``σ[a=b]`` passes a pin from one column to the
    other; a union keeps the pins both sides agree on. Leaves and
    fixpoints pin nothing.
    """
    if isinstance(t, Filter):
        p = pinned(t.child)
        if isinstance(t.cond, EqConst):
            p[t.cond.col] = t.cond.value
        elif t.cond.col1 in p:
            p.setdefault(t.cond.col2, p[t.cond.col1])
        elif t.cond.col2 in p:
            p[t.cond.col1] = p[t.cond.col2]
        return p
    if isinstance(t, Rename):
        return {t.new if c == t.old else c: v for c, v in pinned(t.child).items()}
    if isinstance(t, Join):
        return {**pinned(t.left), **pinned(t.right)}
    if isinstance(t, AntiJoin):
        return pinned(t.left)
    if isinstance(t, AntiProject):
        return {c: v for c, v in pinned(t.child).items() if c not in t.cols}
    if isinstance(t, Union_):
        r = pinned(t.right)
        return {c: v for c, v in pinned(t.left).items() if c in r and r[c] == v}
    if isinstance(t, (Rel, Var, Fix)):
        return {}
    raise TypeError(f"not a μ-RA term: {t!r}")


# ---------------------------------------------------------------------------
# Schema inference
# ---------------------------------------------------------------------------


class SchemaError(ValueError):
    """Raised when a term is ill-typed w.r.t. its input schemas."""


def schema(
    t: Term,
    env: Mapping[str, frozenset[str]],
    bound: Mapping[str, frozenset[str]] | None = None,
) -> frozenset[str]:
    """Output columns of ``t``.

    ``env`` maps database relation names to their column sets; ``bound``
    maps in-scope recursion variables to theirs. Fixpoint bodies are
    typed under the assumption that the variable has the fixpoint's own
    schema, which for F_cond terms equals the constant part's schema —
    resolved here by iterating from the union of constant branches.
    """
    bound = dict(bound or {})
    if isinstance(t, Rel):
        if t.name not in env:
            raise SchemaError(f"unknown relation {t.name!r}")
        return frozenset(env[t.name])
    if isinstance(t, Var):
        if t.name not in bound:
            raise SchemaError(f"unbound recursion variable {t.name!r}")
        return frozenset(bound[t.name])
    if isinstance(t, Union_):
        ls, rs = schema(t.left, env, bound), schema(t.right, env, bound)
        if ls != rs:
            raise SchemaError(f"union of incompatible schemas {sorted(ls)} vs {sorted(rs)}")
        return ls
    if isinstance(t, Join):
        return schema(t.left, env, bound) | schema(t.right, env, bound)
    if isinstance(t, AntiJoin):
        schema(t.right, env, bound)  # type-check right side too
        return schema(t.left, env, bound)
    if isinstance(t, Filter):
        s = schema(t.child, env, bound)
        cols = (
            {t.cond.col}
            if isinstance(t.cond, EqConst)
            else {t.cond.col1, t.cond.col2}
        )
        missing = cols - s
        if missing:
            raise SchemaError(f"filter on missing columns {sorted(missing)}")
        return s
    if isinstance(t, AntiProject):
        s = schema(t.child, env, bound)
        missing = set(t.cols) - s
        if missing:
            raise SchemaError(f"antiprojection of missing columns {sorted(missing)}")
        return s - set(t.cols)
    if isinstance(t, Rename):
        s = schema(t.child, env, bound)
        if t.old not in s:
            raise SchemaError(f"rename of missing column {t.old!r}")
        if t.new in s:
            raise SchemaError(f"rename target {t.new!r} already present")
        return (s - {t.old}) | {t.new}
    if isinstance(t, Fix):
        # Schema of the fixpoint = schema of the body with X bound to it.
        # For F_cond terms the constant part fixes the schema; we compute
        # it by typing the body with X mapped to the constant branches'
        # schema and checking the result is a (schema-)fixpoint.
        from .fcond import constant_variable_split  # local import, no cycle at module load

        const, _ = constant_variable_split(t)
        s0 = schema(const, env, bound)
        s1 = schema(t.body, env, {**bound, t.var: s0})
        if s1 != s0:
            raise SchemaError(
                f"fixpoint body schema {sorted(s1)} differs from constant part {sorted(s0)}"
            )
        return s0
    raise TypeError(f"not a μ-RA term: {t!r}")


# ---------------------------------------------------------------------------
# Binary-relation convenience constructors (src,dst graph relations)
# ---------------------------------------------------------------------------

SRC = "src"
DST = "dst"


def compose(a: Term, b: Term, mid: str = "m0") -> Term:
    """Relation composition a∘b over (src,dst) binary relations.

    ``π̃_mid(ρ_dst→mid(a) ⋈ ρ_src→mid(b))`` — the paper's Example 1 shape.
    """
    return AntiProject((mid,), Join(Rename(DST, mid, a), Rename(SRC, mid, b)))


def fresh_mid(*terms: Term) -> str:
    """A middle-column name not colliding with any column name in ``terms``.

    Collisions only arise from nested ``compose`` calls, whose rename
    targets are drawn from ``_MIDS``; columns of base relations are
    src/dst/label, so scanning rename targets suffices.
    """
    used = set()
    for t in terms:
        for s in walk(t):
            if isinstance(s, Rename):
                used.add(s.new)
            if isinstance(s, AntiProject):
                used.update(s.cols)
    i = 0
    while f"m{i}" in used:
        i += 1
    return f"m{i}"


def inverse(a: Term) -> Term:
    """Swap src/dst of a binary relation (the UCRPQ ``-label`` operator).

    ρ needs three steps because both names exist: src→t, dst→src, t→dst.
    """
    return Rename("inv_t", DST, Rename(DST, SRC, Rename(SRC, "inv_t", a)))
