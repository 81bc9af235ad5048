"""F_cond checks and constant/variable decomposition (paper §II-B).

A fixpoint μ(X = Ψ) is admissible when it is *positive* (X never on the
right of an antijoin), *linear* (no join/antijoin with X free on both
sides) and *non mutually recursive* (X does not occur free inside an
inner fixpoint on another variable). Under F_cond, Proposition 1 gives
Ψ(S) = Ψ(∅) ∪ ⋃_{x∈S} Ψ({x}), which justifies both semi-naive
evaluation (Algorithm 1) and the P_plw fixpoint-splitting plan
(Proposition 3).

Proposition 2: every admissible fixpoint can be written μ(X = R ∪ φ)
with R constant in X and φ(∅) = ∅. :func:`constant_variable_split`
computes that decomposition by flattening the top-level union.

:func:`semi_naive` is Algorithm 1's control, with the row cap and the
iteration cap that every engine's loop shares.
"""
from __future__ import annotations

from typing import Callable

from .terms import (
    AntiJoin,
    Fix,
    Join,
    Term,
    Union_,
    Var,
    children,
    free_vars,
    is_constant_in,
    map_children,
    walk,
)


# semi_naive gives up after this many steps (read at call time); DuckDB's
# recursive queries are bounded by the row cap alone.
MAX_ITERATIONS = 100_000


class CapacityError(RuntimeError):
    """A fixpoint exceeded its row cap (≙ the paper's crash markers)."""


def row_limit(row_cap: int | None, seeds: int) -> int | None:
    """The most rows X may hold: max(``row_cap``, |seeds|), None without a
    cap. A fixpoint fails only once φ has added rows to an X above the cap."""
    return None if row_cap is None else max(row_cap, seeds)


def check_rows(rows: int, limit: int | None) -> None:
    """Raise :class:`CapacityError` if X's ``rows`` exceed its row_limit."""
    if limit is not None and rows > limit:
        raise CapacityError(f"fixpoint exceeded row_cap: more than {limit} rows")


def semi_naive(step: Callable[[], int], seeds: int, row_cap: int | None) -> None:
    """Algorithm 1's control: X = R; new = R; while new: new = φ(new) ∖ X; X ∪= new.

    ``step`` runs one iteration (φ on the last new rows, minus X, added to
    X) and returns |new|; ``seeds`` is |R|. Raises :class:`CapacityError`
    once X holds more than row_limit rows, RuntimeError after
    MAX_ITERATIONS steps.
    """
    rows, limit = seeds, row_limit(row_cap, seeds)
    for _ in range(MAX_ITERATIONS):
        new = step()
        if not new:
            return
        rows += new
        check_rows(rows, limit)
    raise RuntimeError(f"fixpoint did not converge in {MAX_ITERATIONS} iterations")


class FCondError(ValueError):
    """The fixpoint violates one of the F_cond conditions."""


def union_branches(t: Term) -> list[Term]:
    """Flatten nested top-level unions into a list of branches."""
    if isinstance(t, Union_):
        return union_branches(t.left) + union_branches(t.right)
    return [t]


def union_of(branches: list[Term]) -> Term:
    """Right-fold a non-empty branch list back into a Union_ tree."""
    if not branches:
        raise ValueError("empty union")
    out = branches[-1]
    for b in reversed(branches[:-1]):
        out = Union_(b, out)
    return out


def check_fcond(fix: Fix) -> None:
    """Raise :class:`FCondError` unless ``fix`` satisfies F_cond."""
    x = fix.var
    for sub in walk(fix.body):
        if isinstance(sub, AntiJoin) and x in free_vars(sub.right):
            raise FCondError(f"not positive: {x} free on the right of ▷ in {sub}")
        if isinstance(sub, (Join, AntiJoin)):
            if x in free_vars(sub.left) and x in free_vars(sub.right):
                raise FCondError(f"not linear: {x} free on both sides of {sub}")
        if isinstance(sub, Fix) and sub is not fix and sub.var != x:
            if x in free_vars(sub):
                raise FCondError(
                    f"mutually recursive: {x} free inside inner fixpoint μ({sub.var}=…)"
                )


def is_linear(t: Term, x: str) -> bool:
    """Whether ``t`` is positive and linear in ``x`` and reads ``x`` in
    every branch of its top-level union. Then t(∅) = ∅ and, by
    Proposition 1, t(S₁ ∪ S₂) = t(S₁) ∪ t(S₂)."""
    try:
        check_fcond(Fix(x, t))
        for b in union_branches(t):
            if x not in free_vars(b):
                return False
            _check_vanishes_at_empty(b, x)
    except FCondError:
        return False
    return True


def around_fixpoint(t: Term, var: str | None = None) -> tuple[Fix, Term] | None:
    """``t`` as S[f]: its one maximal fixpoint f (read one or more times)
    and S, which reads f as ``Var(var)`` (f's own variable by default), if
    ``t`` has no free variable and S :func:`is_linear` in it; else None.
    Then S(f) = ⋃ₚ S(fₚ) over any parts fₚ of f (Proposition 1)."""
    fixes = set(_maximal_fixpoints(t))
    if len(fixes) != 1 or free_vars(t):
        return None
    (f,) = fixes
    var = var or f.var

    def read(u: Term) -> Term:
        return Var(var) if isinstance(u, Fix) else map_children(u, read)

    s = read(t)
    return (f, s) if is_linear(s, var) else None


def _maximal_fixpoints(t: Term) -> list[Fix]:
    if isinstance(t, Fix):
        return [t]
    return [f for c in children(t) for f in _maximal_fixpoints(c)]


def constant_variable_split(fix: Fix) -> tuple[Term, Term]:
    """Decompose μ(X = Ψ) into (R, φ) with Ψ ≡ R ∪ φ (Proposition 2).

    Branches of the flattened top-level union are sorted into constant
    branches (no free X) forming R, and variable branches forming φ.
    Under F_cond every variable branch v satisfies v(∅)=∅ because X is
    joined/renamed/filtered, never unioned with a constant below the
    top level of that branch — verified structurally here.
    """
    x = fix.var
    const: list[Term] = []
    var: list[Term] = []
    for b in union_branches(fix.body):
        (const if is_constant_in(b, x) else var).append(b)
    if not var:
        raise FCondError(f"fixpoint body has no recursive branch: {fix}")
    if not const:
        raise FCondError(f"fixpoint body has no constant branch (empty fixpoint): {fix}")
    for v in var:
        _check_vanishes_at_empty(v, x)
    return union_of(const), union_of(var)


def _check_vanishes_at_empty(t: Term, x: str) -> None:
    """Structurally verify t(∅) = ∅ for a branch with X free.

    Sufficient conditions: every union *on the X path* (i.e. with X
    free in it) must have X free on both sides, else a constant
    sub-branch would survive X=∅. Unions fully constant in X are plain
    constant relations and are fine. All other operators (join,
    antijoin-left, filter, rename, antiproj) map empty input to empty
    output along the X path.
    """
    for sub in walk(t):
        if isinstance(sub, Union_) and x in free_vars(sub):
            if not (x in free_vars(sub.left) and x in free_vars(sub.right)):
                raise FCondError(
                    f"variable branch {t} does not vanish at ∅: "
                    f"union {sub} has a constant side"
                )
