"""The paper's §V-D-c μ-RA terms (aⁿbⁿ, same-generation, reach) against
independent hand-rolled references, plus the baselines on them."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_sql import eval_duckdb
from repro.core.queries import anbn_term, reach_term, same_generation_term
from repro.core.rewriter import rewrite
from repro.core.terms import schema
from repro.graphs.generators import add_labels, erdos_renyi, random_tree

SD = {"R": frozenset({"src", "dst"})}


def pairs(df):
    return set(map(tuple, df[["src", "dst"]].values.tolist()))


@pytest.fixture(scope="module")
def labeled():
    return add_labels(erdos_renyi(70, 0.05, seed=2), ["a", "b"], seed=3)


@pytest.fixture(scope="module")
def parent_rel():
    t = random_tree(150, seed=3)
    return t.rename(columns={"src": "dst", "dst": "src"})[["src", "dst"]]


def ref_anbn(tri):
    A = {(s, d) for s, l, d in tri.itertuples(index=False) if l == "a"}
    B = {(s, d) for s, l, d in tri.itertuples(index=False) if l == "b"}

    def comp(x, y):
        return {(s, d2) for s, d in x for s2, d2 in y if d == s2}

    cur = comp(A, B)
    total = set(cur)
    while True:
        cur = comp(comp(A, cur), B) - total
        if not cur:
            return total
        total |= cur


class TestAnbn:
    def test_pandas(self, labeled):
        assert pairs(eval_pandas(anbn_term(), {"G": labeled})) == ref_anbn(labeled)

    def test_duckdb(self, labeled):
        assert pairs(eval_duckdb(anbn_term(), {"G": labeled})) == ref_anbn(labeled)

    def test_not_regular_shape(self, labeled):
        """aⁿbⁿ strictly exceeds a+/b+ restricted to equal counts — the
        closure a+/b+ is a superset."""
        from repro.core.planner import plan_crpq
        from repro.core.cost import GraphStats

        rep = plan_crpq("?x, ?y <- ?x a+/b+ ?y", GraphStats.from_pandas(labeled))
        out = eval_pandas(rep.term, {"G": labeled})
        sup = set(map(tuple, out[["v_x", "v_y"]].values.tolist()))
        assert ref_anbn(labeled) <= sup


class TestSameGeneration:
    def test_vs_depth_reference(self, parent_rel):
        out = eval_pandas(same_generation_term("R"), {"R": parent_rel})
        parent = dict(zip(parent_rel.src, parent_rel.dst))

        def depth(v):
            d = 0
            while v in parent:
                v = parent[v]
                d += 1
            return d

        nodes = set(parent_rel.src) | set(parent_rel.dst)
        depths = {v: depth(v) for v in nodes}
        ref = {
            (x, y)
            for x in nodes
            for y in nodes
            if depths[x] == depths[y] and depths[x] >= 1
        }
        assert pairs(out) == ref

    def test_duckdb_agrees(self, parent_rel):
        a = eval_pandas(same_generation_term("R"), {"R": parent_rel})
        b = eval_duckdb(same_generation_term("R"), {"R": parent_rel})
        assert pairs(a) == pairs(b)


class TestReach:
    def test_reach_matches_bfs(self):
        e = erdos_renyi(120, 0.03, seed=4)
        src = int(e.src.iloc[0])
        term = rewrite(reach_term(src, "R"), SD)
        out = eval_pandas(term, {"R": e})
        adj = {}
        for s, d in e.itertuples(index=False):
            adj.setdefault(int(s), []).append(int(d))
        seen, stack = set(), [src]
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert set(out["dst"].tolist()) == seen

    def test_antiprojection_pushed(self):
        term = rewrite(reach_term(0, "R"), SD)
        # after the push, the whole term is a unary fixpoint over {dst}
        assert schema(term, SD) == frozenset({"dst"})


class TestBaselinesOnMuraTerms:
    def test_myria_capacity_error(self):
        from repro.core.fcond import CapacityError

        # dense graph → same-generation explodes past a tiny cap
        t = random_tree(300, seed=1).rename(columns={"src": "dst", "dst": "src"})
        with pytest.raises(CapacityError):
            eval_pandas(same_generation_term("G"), {"G": t[["src", "dst"]]}, row_cap=50)

    def test_centralized_same_generation(self, parent_rel):
        from repro.core.compiler_sql import eval_duckdb

        a = eval_duckdb(same_generation_term("G"), {"G": parent_rel})
        b = eval_pandas(same_generation_term("R"), {"R": parent_rel})
        assert pairs(a) == pairs(b)
