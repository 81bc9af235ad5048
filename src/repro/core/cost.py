"""CostEstimator: cardinality estimation for μ-RA terms (paper §III).

Follows the spirit of [Lawal et al., CIKM'20] at laptop scale: per-label
relation statistics (row count, distinct src, distinct dst) drive
textbook estimates for joins/filters, and a geometric frontier-expansion
model estimates fixpoint sizes:

    |μ(X = R ∪ X∘E)| ≈ min( |R|·Σ_{k≤D} f^k,  |R|·reach(E),  n² )

with f the average fan-out of the step relation E, D a diameter bound,
and reach(E) the number of distinct reachable endpoints. The model only
needs to *rank* candidate plans (seeded vs full closure vs merged);
absolute accuracy is not required, matching the paper's use of [20].

Estimates are :class:`Est` objects carrying rows plus per-column
distinct counts, so antiprojection/filter selectivities compose.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import pandas as pd

from .fcond import constant_variable_split, union_branches
from .rewriter import match_compose, match_linear_closure
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
    is_constant_in,
)

if TYPE_CHECKING:
    from pyspark.sql import DataFrame


@dataclass
class Est:
    """Estimated relation: row count and per-column distinct counts."""

    rows: float
    d: dict[str, float]

    def clamp(self) -> "Est":
        cap = 1.0
        for c in self.d:
            self.d[c] = max(1.0, min(self.d[c], self.rows))
            cap *= self.d[c]
        self.rows = max(0.0, min(self.rows, cap))
        return self


@dataclass
class GraphStats:
    """Per-label statistics of a (src, label, dst) triple relation."""

    n_nodes: int
    labels: dict[str, Est]  # label → Est over columns {src, dst}
    depth: int = 10  # diameter bound D for the fixpoint model

    @classmethod
    def from_pandas(cls, triples: pd.DataFrame, depth: int = 10) -> "GraphStats":
        n_nodes = int(pd.concat([triples["src"], triples["dst"]]).nunique())
        labels = {}
        for lbl, g in triples.groupby("label"):
            labels[str(lbl)] = Est(
                rows=float(len(g)),
                d={"src": float(g["src"].nunique()), "dst": float(g["dst"].nunique())},
            )
        return cls(n_nodes=n_nodes, labels=labels, depth=depth)

    @classmethod
    def from_spark(cls, triples: DataFrame, depth: int = 10) -> "GraphStats":
        """The statistics of :meth:`from_pandas`, from one Spark aggregate.

        Each triple is exploded into its two endpoints, so a label's row
        count is half its group's; the rollup's grand-total row holds the
        distinct node count.
        """
        from pyspark.sql import functions as F

        rows = (
            triples.select("label", "src", "dst", F.explode(F.array("src", "dst")).alias("node"))
            .rollup("label")
            .agg(
                F.grouping("label").alias("total"),
                (F.count("*") / 2).alias("rows"),
                F.countDistinct("src").alias("src"),
                F.countDistinct("dst").alias("dst"),
                F.countDistinct("node").alias("nodes"),
            )
            .collect()
        )
        n_nodes, labels = 0, {}
        for r in rows:
            if r["total"]:
                n_nodes = int(r["nodes"])
            else:
                labels[str(r["label"])] = Est(
                    rows=float(r["rows"]), d={"src": float(r["src"]), "dst": float(r["dst"])}
                )
        return cls(n_nodes=n_nodes, labels=labels, depth=depth)


@dataclass
class CostModel:
    """Estimate output sizes and a total-work cost for μ-RA terms.

    ``cost(term)`` = Σ over operator nodes of their estimated output
    rows (a proxy for compute + communication volume), with fixpoints
    contributing their estimated final size plus seed size times a
    per-iteration overhead factor.
    """

    stats: GraphStats
    extra: Mapping[str, Est] = field(default_factory=dict)  # named base rels
    iter_overhead: float = 2.0

    def estimate(self, t: Term) -> Est:
        est, _ = self._rec(t, {})
        return est

    def cost(self, t: Term) -> float:
        _, c = self._rec(t, {})
        return c

    # -- internals ----------------------------------------------------------

    def _label_est(self, name: str) -> Est:
        if name in self.stats.labels:
            e = self.stats.labels[name]
            return Est(e.rows, dict(e.d))
        # unknown label → empty-ish
        return Est(0.0, {"src": 1.0, "dst": 1.0})

    def _rec(self, t: Term, bound: dict[str, Est]) -> tuple[Est, float]:
        n2 = float(self.stats.n_nodes) ** 2
        # Special shape: σ_label=a(G) and its antiprojection — per-label stats.
        if isinstance(t, AntiProject) and isinstance(t.child, Filter):
            f = t.child
            if (
                isinstance(f.cond, EqConst)
                and f.cond.col == "label"
                and isinstance(f.child, Rel)
                and t.cols == ("label",)
            ):
                e = self._label_est(str(f.cond.value))
                return e, e.rows
        if isinstance(t, Rel):
            if t.name in self.extra:
                e = self.extra[t.name]
                return Est(e.rows, dict(e.d)), 0.0
            # Whole triple table.
            rows = sum(e.rows for e in self.stats.labels.values()) or 1.0
            return (
                Est(
                    rows,
                    {
                        "src": float(self.stats.n_nodes),
                        "label": float(max(1, len(self.stats.labels))),
                        "dst": float(self.stats.n_nodes),
                    },
                ).clamp(),
                0.0,
            )
        if isinstance(t, Var):
            e = bound.get(t.name) or Est(1.0, {})
            return Est(e.rows, dict(e.d)), 0.0
        if isinstance(t, Union_):
            le, lc = self._rec(t.left, bound)
            re_, rc = self._rec(t.right, bound)
            d = {c: le.d.get(c, 1.0) + re_.d.get(c, 1.0) for c in set(le.d) | set(re_.d)}
            e = Est(le.rows + re_.rows, d).clamp()
            return e, lc + rc + e.rows
        if isinstance(t, Join):
            le, lc = self._rec(t.left, bound)
            re_, rc = self._rec(t.right, bound)
            shared = set(le.d) & set(re_.d)
            rows = le.rows * re_.rows
            for c in shared:
                rows /= max(le.d.get(c, 1.0), re_.d.get(c, 1.0), 1.0)
            d = {}
            for c in set(le.d) | set(re_.d):
                d[c] = min(le.d.get(c, float("inf")), re_.d.get(c, float("inf")))
            e = Est(rows, d).clamp()
            return e, lc + rc + e.rows
        if isinstance(t, AntiJoin):
            le, lc = self._rec(t.left, bound)
            _, rc = self._rec(t.right, bound)
            e = Est(le.rows * 0.5, dict(le.d)).clamp()
            return e, lc + rc + e.rows
        if isinstance(t, Filter):
            ce, cc = self._rec(t.child, bound)
            if isinstance(t.cond, EqConst):
                sel = 1.0 / max(ce.d.get(t.cond.col, 1.0), 1.0)
                d = dict(ce.d)
                d[t.cond.col] = 1.0
                e = Est(ce.rows * sel, d).clamp()
            else:
                assert isinstance(t.cond, EqCol)
                sel = 1.0 / max(ce.d.get(t.cond.col1, 1.0), ce.d.get(t.cond.col2, 1.0), 1.0)
                e = Est(ce.rows * sel, dict(ce.d)).clamp()
            return e, cc + e.rows
        if isinstance(t, AntiProject):
            ce, cc = self._rec(t.child, bound)
            d = {c: v for c, v in ce.d.items() if c not in t.cols}
            e = Est(ce.rows, d).clamp()
            return e, cc + e.rows
        if isinstance(t, Rename):
            ce, cc = self._rec(t.child, bound)
            d = dict(ce.d)
            d[t.new] = d.pop(t.old, 1.0)
            return Est(ce.rows, d), cc
        if isinstance(t, Fix):
            return self._fix_est(t, bound)
        raise TypeError(f"not a μ-RA term: {t!r}")

    def _fix_est(self, fix: Fix, bound: dict[str, Est]) -> tuple[Est, float]:
        n = float(self.stats.n_nodes)
        n2 = n * n
        const, phi = constant_variable_split(fix)
        seed, seed_cost = self._rec(const, bound)

        lc = match_linear_closure(fix)
        if lc is not None:
            step, step_cost = self._rec(lc.step, bound)
            if lc.orientation == "right":
                fan = step.rows / max(step.d.get("src", 1.0), 1.0)
                reach = step.d.get("dst", n)
            else:
                fan = step.rows / max(step.d.get("dst", 1.0), 1.0)
                reach = step.d.get("src", n)
            rows = min(seed.rows * _geom(fan, self.stats.depth), seed.rows * reach, n2)
        else:
            # Merged / general fixpoint: sum the per-branch expansion.
            fan = 0.0
            step_cost = 0.0
            for b in union_branches(phi):
                c = match_compose(b)
                if c is None:
                    fan += 2.0
                    continue
                const_side = c.right if (isinstance(c.left, Var) and c.left.name == fix.var) else c.left
                if not is_constant_in(const_side, fix.var):
                    fan += 2.0
                    continue
                se, sc = self._rec(const_side, bound)
                step_cost += sc
                fan += se.rows / max(min(se.d.get("src", 1.0), se.d.get("dst", 1.0)), 1.0) / 2.0
            rows = min(seed.rows * _geom(fan, self.stats.depth), n2)

        d = {c: min(v * max(rows / max(seed.rows, 1.0), 1.0), n) for c, v in seed.d.items()}
        e = Est(rows, d).clamp()
        return e, seed_cost + step_cost + e.rows * self.iter_overhead


def _geom(f: float, depth: int) -> float:
    """Σ_{k=0..depth} f^k with overflow guards."""
    f = max(f, 0.0)
    if abs(f - 1.0) < 1e-9:
        return float(depth + 1)
    if f > 1.0:
        f = min(f, 50.0)
        return (f ** (depth + 1) - 1.0) / (f - 1.0)
    return (1.0 - f ** (depth + 1)) / (1.0 - f)
