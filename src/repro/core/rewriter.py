"""MuRewriter: fixpoint-specific rewrite rules (paper §III).

Implemented rules, with the conditions under which each is sound:

* :func:`try_push_filter` — σ_{c=v}(μ(X=R∪φ)) → μ(X=σ_{c=v}(R)∪φ) when
  ``c`` is a *stable* column of φ (stabilizer analysis). Works for any
  F_cond fixpoint, not only compose-shaped ones.
* :func:`try_push_antiproject` — π̃_c(μ(X=R∪φ)) → μ(X=π̃_c(R)∪φ) when
  ``c`` is stable *and* never referenced by φ (the column just flows
  through, so it can be dropped before the recursion).
* :func:`try_reverse` — for a pure closure a⁺:
  μ(X = A ∪ X∘A) ↔ μ(X = A ∪ A∘X). Reversal of general seeded
  fixpoints is handled constructively by the planner, which chooses the
  orientation when it builds the fixpoint (see planner.py docstring).
* :func:`try_push_join` — B ∘ μ(X = R ∪ X∘E) → μ(X = B∘R ∪ X∘E) and
  μ(X = R ∪ E∘X) ∘ B → μ(X = R∘B ∪ E∘X); sound by associativity of ∘
  (B∘(R∘E*) = (B∘R)∘E*). If the orientation does not match, a pure
  closure is first reversed.
* :func:`try_merge` — a⁺ ∘ b⁺ → μ(Z = a∘b ∪ a∘Z ∪ Z∘b): the merged
  fixpoint enumerates exactly the paths aⁱbʲ (i,j ≥ 1). This is the
  rule Datalog Magic Sets / Demand Transformation cannot express.

:func:`rewrite` runs these to a fixpoint bottom-up (filters/antiprojs
pushed, joins pushed, closures merged), which is enough to optimize the
naive Query2Mu output for every query class C1–C6; the planner uses the
same rules constructively plus cost-based candidate selection.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .fcond import constant_variable_split, union_branches, union_of
from .stabilizer import stable_columns, used_columns
from .terms import (
    AntiProject,
    DST,
    EqConst,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    SRC,
    Term,
    Union_,
    Var,
    compose,
    fresh_mid,
    is_constant_in,
    map_children,
    schema,
)

Schemas = Mapping[str, frozenset[str]]


# ---------------------------------------------------------------------------
# Pattern matchers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComposeParts:
    left: Term
    right: Term
    mid: str


def match_compose(t: Term) -> Optional[ComposeParts]:
    """Match π̃_m(ρ_dst→m(A) ⋈ ρ_src→m(B)) (either join order)."""
    if not (isinstance(t, AntiProject) and len(t.cols) == 1):
        return None
    m = t.cols[0]
    j = t.child
    if not isinstance(j, Join):
        return None
    for a, b in ((j.left, j.right), (j.right, j.left)):
        if (
            isinstance(a, Rename)
            and a.old == DST
            and a.new == m
            and isinstance(b, Rename)
            and b.old == SRC
            and b.new == m
        ):
            return ComposeParts(a.child, b.child, m)
    return None


@dataclass(frozen=True)
class LinearClosure:
    """μ(X = R ∪ X∘E) (orientation="right") or μ(X = R ∪ E∘X) ("left")."""

    var: str
    orientation: str
    const: Term
    step: Term


def match_linear_closure(fix: Fix) -> Optional[LinearClosure]:
    try:
        const, phi = constant_variable_split(fix)
    except Exception:
        return None
    branches = union_branches(phi)
    if len(branches) != 1:
        return None
    c = match_compose(branches[0])
    if c is None:
        return None
    if isinstance(c.left, Var) and c.left.name == fix.var and is_constant_in(c.right, fix.var):
        return LinearClosure(fix.var, "right", const, c.right)
    if isinstance(c.right, Var) and c.right.name == fix.var and is_constant_in(c.left, fix.var):
        return LinearClosure(fix.var, "left", const, c.left)
    return None


def is_pure_closure(fix: Fix) -> Optional[LinearClosure]:
    """A closure whose constant part equals its step relation (a⁺)."""
    lc = match_linear_closure(fix)
    if lc is not None and lc.const == lc.step:
        return lc
    return None


# ---------------------------------------------------------------------------
# Constructive helpers shared with the planner
# ---------------------------------------------------------------------------


def closure(step: Term, orientation: str = "right") -> Fix:
    """a⁺ as a linear fixpoint of the requested orientation."""
    x = _fresh_var(step)
    xv = Var(x)
    body = (
        compose(xv, step, fresh_mid(step))
        if orientation == "right"
        else compose(step, xv, fresh_mid(step))
    )
    return Fix(x, Union_(step, body))


def seeded_closure(seed: Term, step: Term, orientation: str) -> Fix:
    """seed∘E⁺-style fixpoint: μ(X = seed ∪ X∘E) (orientation="right",
    i.e. new edges appended on the right) or μ(X = seed ∪ E∘X)."""
    x = _fresh_var(seed, step)
    xv = Var(x)
    body = (
        compose(xv, step, fresh_mid(seed, step))
        if orientation == "right"
        else compose(step, xv, fresh_mid(seed, step))
    )
    return Fix(x, Union_(seed, body))


def merged_closure(a: Term, b: Term) -> Fix:
    """a⁺ ∘ b⁺ as one fixpoint (merge-fixpoints rule)."""
    z = _fresh_var(a, b)
    zv = Var(z)
    seed = compose(a, b, fresh_mid(a, b))
    prepend = compose(a, zv, fresh_mid(a, b, seed))
    append = compose(zv, b, fresh_mid(a, b, seed))
    return Fix(z, Union_(seed, Union_(prepend, append)))


def _fresh_var(*terms: Term) -> str:
    from .terms import walk

    used = set()
    for t in terms:
        for s in walk(t):
            if isinstance(s, (Var, Fix)):
                used.add(s.name if isinstance(s, Var) else s.var)
    i = 0
    while f"Z{i}" in used:
        i += 1
    return f"Z{i}"


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------


def try_push_filter(t: Term, env: Schemas) -> Optional[Term]:
    """σ_{c=v}(μ(X=R∪φ)) → μ(X=σ_{c=v}(R)∪φ) when c is stable in φ."""
    if not (isinstance(t, Filter) and isinstance(t.child, Fix) and isinstance(t.cond, EqConst)):
        return None
    fix = t.child
    try:
        const, phi = constant_variable_split(fix)
        x_schema = schema(fix, env)
    except Exception:
        return None
    stable = stable_columns(phi, fix.var, env, x_schema)
    if t.cond.col not in stable:
        return None
    return Fix(fix.var, Union_(Filter(t.cond, const), phi))


def try_push_antiproject(t: Term, env: Schemas) -> Optional[Term]:
    """π̃_cols(μ(X=R∪φ)) → μ(X=π̃_cols(R)∪φ) when every dropped column is
    stable and unused by φ."""
    if not (isinstance(t, AntiProject) and isinstance(t.child, Fix)):
        return None
    fix = t.child
    try:
        const, phi = constant_variable_split(fix)
        x_schema = schema(fix, env)
    except Exception:
        return None
    stable = stable_columns(phi, fix.var, env, x_schema)
    used = used_columns(phi, fix.var, env, x_schema)
    if not all(c in stable and c not in used for c in t.cols):
        return None
    return Fix(fix.var, Union_(AntiProject(t.cols, const), phi))


def try_reverse(t: Term) -> Optional[Term]:
    """Reverse the orientation of a pure closure a⁺."""
    if not isinstance(t, Fix):
        return None
    lc = is_pure_closure(t)
    if lc is None:
        return None
    flipped = "left" if lc.orientation == "right" else "right"
    return closure(lc.step, flipped)


def try_push_join(t: Term) -> Optional[Term]:
    """Push a composition into an adjacent closure, seeding it.

    A ∘ μ(X = R ∪ X∘E) → μ(X = A∘R ∪ X∘E)  (sound for *any* A:
    A∘(R∘E*) = (A∘R)∘E* by associativity), and symmetrically
    μ(X = R ∪ E∘X) ∘ B → μ(X = R∘B ∪ E∘X). Pure closures are reversed
    first when the orientation does not fit. try_merge runs before this
    rule, so a⁺∘b⁺ merges rather than seeding with a full closure.
    """
    c = match_compose(t)
    if c is None:
        return None
    # A ∘ fix: seed a right-oriented closure from the left context.
    if isinstance(c.right, Fix):
        fix = c.right
        lc = match_linear_closure(fix)
        if lc is not None:
            if lc.orientation == "left":
                lc = (
                    LinearClosure(lc.var, "right", lc.const, lc.step)
                    if is_pure_closure(fix) is not None
                    else None
                )
            if lc is not None:
                seed = compose(c.left, lc.const, fresh_mid(c.left, lc.const, lc.step))
                return seeded_closure(seed, lc.step, "right")
    # fix ∘ B: seed a left-oriented closure from the right context.
    if isinstance(c.left, Fix):
        fix = c.left
        lc = match_linear_closure(fix)
        if lc is not None:
            if lc.orientation == "right":
                lc = (
                    LinearClosure(lc.var, "left", lc.const, lc.step)
                    if is_pure_closure(fix) is not None
                    else None
                )
            if lc is not None:
                seed = compose(lc.const, c.right, fresh_mid(c.right, lc.const, lc.step))
                return seeded_closure(seed, lc.step, "left")
    return None


def try_merge(t: Term) -> Optional[Term]:
    """a⁺ ∘ b⁺ → merged single fixpoint."""
    c = match_compose(t)
    if c is None or not (isinstance(c.left, Fix) and isinstance(c.right, Fix)):
        return None
    la, lb = is_pure_closure(c.left), is_pure_closure(c.right)
    if la is None or lb is None:
        return None
    return merged_closure(la.step, lb.step)


# ---------------------------------------------------------------------------
# Generic RA filter descent (standard relational algebra equivalences;
# they carry σ/π̃ down to the fixpoints where the μ-specific rules apply)
# ---------------------------------------------------------------------------


def try_filter_descend(t: Term, env: Schemas) -> Optional[Term]:
    """Push σ through ∪ / π̃ / ρ / ⋈ one step (classic RA rewrites)."""
    if not (isinstance(t, Filter) and isinstance(t.cond, EqConst)):
        return None
    cond, child = t.cond, t.child
    if isinstance(child, Union_):
        return Union_(Filter(cond, child.left), Filter(cond, child.right))
    if isinstance(child, AntiProject) and cond.col not in child.cols:
        return AntiProject(child.cols, Filter(cond, child.child))
    if isinstance(child, Rename):
        if cond.col == child.new:
            return Rename(child.old, child.new, Filter(EqConst(child.old, cond.value), child.child))
        if cond.col != child.old:
            return Rename(child.old, child.new, Filter(cond, child.child))
        return None
    if isinstance(child, Join):
        try:
            ls = schema(child.left, env)
            rs = schema(child.right, env)
        except Exception:
            return None
        if cond.col in ls:
            return Join(Filter(cond, child.left), child.right)
        if cond.col in rs:
            return Join(child.left, Filter(cond, child.right))
    return None


def try_reverse_push_filter(t: Term, env: Schemas) -> Optional[Term]:
    """σ on a non-stable column of a *pure closure*: reverse the closure
    (paper's reverse-fixpoint rule) so the column becomes stable, then
    push — e.g. σ_dst=C(a⁺) with the right-linear a⁺ (class C2)."""
    if not (isinstance(t, Filter) and isinstance(t.child, Fix) and isinstance(t.cond, EqConst)):
        return None
    if try_push_filter(t, env) is not None:
        return None  # plain push suffices
    rev = try_reverse(t.child)
    if rev is None:
        return None
    return try_push_filter(Filter(t.cond, rev), env)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def rewrite(
    t: Term,
    env: Schemas,
    max_passes: int = 30,
    phase1: tuple[Callable, ...] | None = None,
    phase2: tuple[Callable, ...] | None = None,
) -> Term:
    """MuRewriter driver: two alternating phases until a (syntactic)
    fixpoint.

    Phase 1 — *selection pushing*: descend σ through classic RA
    operators and push σ/π̃ into fixpoints (reversing pure closures when
    that makes the filtered column stable). Runs before any join
    restructuring so a selective seed is in place first.

    Phase 2 — *recursion restructuring*: merge adjacent pure closures
    (a⁺∘b⁺), then seed remaining closures from their composition
    context (push-join, with reversal as needed).
    """
    p1 = _PHASE1 if phase1 is None else phase1
    p2 = _PHASE2 if phase2 is None else phase2
    for _ in range(max_passes):
        t1 = _apply_bottom_up(t, env, p1)
        t2 = _apply_bottom_up(t1, env, p2)
        if t2 == t:
            return t
        t = t2
    return t


_PHASE1: tuple[Callable, ...] = (
    try_push_filter,
    try_reverse_push_filter,
    try_filter_descend,
    try_push_antiproject,
)
_PHASE2: tuple[Callable, ...] = (try_merge, try_push_join)
_NEEDS_ENV = {try_push_filter, try_reverse_push_filter, try_filter_descend, try_push_antiproject}


def _apply_bottom_up(t: Term, env: Schemas, rules: tuple[Callable, ...]) -> Term:
    # Rewrite children first, then try each rule at this node; repeat at
    # this node until no rule fires (a rule may expose another).
    if isinstance(t, (Rel, Var)):
        return t
    t = map_children(t, lambda c: _apply_bottom_up(c, env, rules))
    for _ in range(10):
        fired = False
        for rule in rules:
            out = rule(t, env) if rule in _NEEDS_ENV else rule(t)
            if out is not None and out != t:
                # The rewritten node may expose new opportunities below.
                t = _apply_bottom_up(out, env, rules) if isinstance(out, Term) else t
                fired = True
                break
        if not fired:
            return t
    return t
