"""Query2Mu: translate UCRPQs into μ-RA terms (paper §III).

The graph is one relation ``G(src, label, dst)`` (the paper's Yago
facts table of triples). A regex compiles to a binary (src,dst) term:

* label ``a``        → π̃_label(σ_label=a(G))
* inverse ``-a``     → src/dst swap of the above
* concatenation      → compose (Example 1 shape)
* alternation        → union
* ``e+``             → μ(X = T_e ∪ T_e∘X … ) — orientation chosen here is
                       the *naive* right-linear form; the planner
                       (:mod:`repro.core.planner`) explores better
                       seeded/merged/reversed forms.

An atom ``subj rx obj`` filters/renames endpoints; a CRPQ joins its
atoms on shared variables and antiprojects to the head.
"""
from __future__ import annotations

import itertools
from typing import Mapping, Optional

from .rpq import CRPQ, Alt, Atom, Label, Plus, Rx, Seq, is_var, var_col
from .terms import (
    AntiProject,
    EqCol,
    EqConst,
    Filter,
    Fix,
    Rel,
    Rename,
    Term,
    Union_,
    Var,
    compose,
    fresh_mid,
    inverse,
    schema,
)

GRAPH = "G"
LABEL_COL = "label"
SRC, DST = "src", "dst"

GRAPH_SCHEMA: dict[str, frozenset[str]] = {GRAPH: frozenset({SRC, LABEL_COL, DST})}


class _Fresh:
    def __init__(self) -> None:
        self._vars = itertools.count()

    def var(self) -> str:
        return f"X{next(self._vars)}"


def label_term(name: str, inv: bool = False, graph: str = GRAPH) -> Term:
    t: Term = AntiProject((LABEL_COL,), Filter(EqConst(LABEL_COL, name), Rel(graph)))
    return inverse(t) if inv else t


def rx_to_term(rx: Rx, fresh: _Fresh | None = None, graph: str = GRAPH) -> Term:
    """Naive translation of a regex to a binary μ-RA term."""
    fresh = fresh or _Fresh()
    if isinstance(rx, Label):
        return label_term(rx.name, rx.inverse, graph)
    if isinstance(rx, Seq):
        out = rx_to_term(rx.parts[0], fresh, graph)
        for p in rx.parts[1:]:
            nxt = rx_to_term(p, fresh, graph)
            out = compose(out, nxt, fresh_mid(out, nxt))
        return out
    if isinstance(rx, Alt):
        parts = [rx_to_term(p, fresh, graph) for p in rx.parts]
        out = parts[0]
        for p in parts[1:]:
            out = Union_(out, p)
        return out
    if isinstance(rx, Plus):
        base = rx_to_term(rx.child, fresh, graph)
        x = fresh.var()
        step = compose(Var(x), base, fresh_mid(base))
        return Fix(x, Union_(base, step))
    raise TypeError(f"not a regex: {rx!r}")


def atom_to_term(
    atom: Atom,
    consts: Mapping[str, int],
    fresh: _Fresh | None = None,
    graph: str = GRAPH,
) -> Term:
    """Translate an atom; output columns are variable columns (v_*)."""
    t = rx_to_term(atom.rx, fresh, graph)
    return bind_endpoints(t, atom, consts)


def bind_endpoints(t: Term, atom: Atom, consts: Mapping[str, int]) -> Term:
    """Select and drop ``atom``'s constant endpoints of a binary term,
    then name the rest with :func:`name_endpoints`. The naive
    translation's endpoints; the planners push the selections into their
    skeletons and share only :func:`name_endpoints`."""
    for col, v in zip((SRC, DST), endpoint_values(atom, consts)):
        if v is not None:
            t = AntiProject((col,), Filter(EqConst(col, v), t))
    return name_endpoints(t, atom)


def name_endpoints(t: Term, atom: Atom, dropped: tuple[str, ...] = ()) -> Term:
    """Rename the src/dst columns of ``atom``'s term to its variables'
    columns (v_*). Constant endpoints and the columns in ``dropped`` are
    not renamed; ``?x r ?x`` keeps the rows with src = dst, as v_x."""
    subj, obj = atom.subj, atom.obj
    if is_var(subj) and subj == obj:
        return Rename(SRC, var_col(subj), AntiProject((DST,), Filter(EqCol(SRC, DST), t)))
    for col, end in ((SRC, subj), (DST, obj)):
        if is_var(end) and col not in dropped:
            t = Rename(col, var_col(end), t)
    return t


def endpoint_values(atom: Atom, consts: Mapping[str, int]) -> tuple[Optional[int], Optional[int]]:
    """The constant at each end of ``atom``, None at a variable end."""
    subj, obj = (None if is_var(e) else _resolve(e, consts) for e in (atom.subj, atom.obj))
    return subj, obj


def _resolve(c: str, consts: Mapping[str, int]) -> int:
    if c.isdigit():
        return int(c)
    if c not in consts:
        raise KeyError(f"unknown constant {c!r}; provide it in `consts`")
    return consts[c]


def crpq_to_term(q: CRPQ, consts: Mapping[str, int] | None = None, graph: str = GRAPH) -> Term:
    """Naive translation of a full CRPQ: join atoms, project the head."""
    consts = consts or {}
    fresh = _Fresh()
    atom_terms = [atom_to_term(a, consts, fresh, graph) for a in q.atoms]
    return join_project_head(atom_terms, q, graph)


def join_project_head(atom_terms: list[Term], q: CRPQ, graph: str = GRAPH) -> Term:
    """Join translated atoms on shared variable columns, antiproject to
    the head variables."""
    out = atom_terms[0]
    for t in atom_terms[1:]:
        out = out.join(t)
    head_cols = {var_col(h) for h in q.head}
    env = {graph: GRAPH_SCHEMA[GRAPH]} if graph == GRAPH else {graph: frozenset({SRC, LABEL_COL, DST})}
    all_cols = schema(out, env)
    drop = tuple(sorted(all_cols - head_cols))
    missing = head_cols - all_cols
    if missing:
        raise ValueError(f"head variables {sorted(missing)} not bound by the body")
    return AntiProject(drop, out) if drop else out
