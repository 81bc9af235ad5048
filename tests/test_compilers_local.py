"""Pandas and DuckDB backends: operator-level agreement with each other
and with hand-computed results, plus property-based random-term tests."""
from collections import Counter

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import compiler_pandas
from repro.core.compiler_pandas import (
    anti_join,
    dedup,
    eval_pandas,
    frame,
    natural_join,
    set_difference,
    set_union,
)
from repro.core.compiler_sql import DuckdbEvaluator, eval_duckdb, to_sql
from repro.core.query2mu import label_term
from repro.core.terms import (
    AntiJoin,
    AntiProject,
    EqCol,
    EqConst,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    SchemaError,
    Union_,
    Var,
    compose,
    inverse,
)
from tests.conftest import FIG2_E, FIG2_FIXPOINT, FIG2_S

SD = frozenset({"src", "dst"})


def rows(df):
    return set(map(tuple, df[sorted(df.columns)].values.tolist()))


@pytest.fixture(scope="module")
def r():
    g = np.random.default_rng(0)
    return pd.DataFrame({"src": g.integers(0, 20, 60), "dst": g.integers(0, 20, 60)}).drop_duplicates(ignore_index=True)


@pytest.fixture(scope="module")
def s():
    g = np.random.default_rng(1)
    return pd.DataFrame({"src": g.integers(0, 20, 40), "dst": g.integers(0, 20, 40)}).drop_duplicates(ignore_index=True)


TERMS = [
    Rel("R"),
    Union_(Rel("R"), Rel("S")),
    Join(Rel("R"), Rel("S")),
    AntiJoin(Rel("R"), Rel("S")),
    Filter(EqConst("src", 3), Rel("R")),
    Filter(EqCol("src", "dst"), Rel("R")),
    AntiProject(("src",), Rel("R")),
    Rename("src", "x", Rel("R")),
    compose(Rel("R"), Rel("S")),
    inverse(Rel("R")),
    compose(inverse(Rel("R")), Rel("S")),
    Union_(compose(Rel("R"), Rel("S")), Rel("R")),
    AntiJoin(compose(Rel("R"), Rel("S")), Rel("R")),
    Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("R")))),
    Fix("X", Union_(Rel("S"), compose(Rel("R"), Var("X")))),
    Fix("X", Union_(compose(Rel("R"), Rel("S")), Union_(compose(Rel("R"), Var("X"), "m1"), compose(Var("X"), Rel("S"), "m2")))),
    # A three-column fixpoint, X(src, dst, k): MultiIndex row keys.
    Fix("X", Union_(
        Join(Rel("R"), Rename("dst", "k", Rel("S"))),
        AntiProject(("m",), Join(Rename("dst", "m", Var("X")), Rename("src", "m", Rel("R")))),
    )),
    # X joined with constant subterms: a composition, a filtered union.
    Fix("X", Union_(Rel("S"), compose(Var("X"), compose(Rel("R"), Rel("S")), "m1"))),
    Fix("X", Union_(Rel("S"), compose(Var("X"), Union_(Filter(EqConst("src", 3), Rel("R")), Rel("S"))))),
    # Antijoins against constants, on both columns and on one.
    Fix("X", Union_(Rel("S"), AntiJoin(compose(Var("X"), Rel("R")), Filter(EqConst("src", 3), Rel("S"))))),
    Fix("X", Union_(Rel("S"), AntiJoin(
        compose(Var("X"), Rel("R")), AntiProject(("src",), Filter(EqConst("src", 3), Rel("R")))
    ))),
    # Filters on the string label column of triples T(src, label, dst).
    Fix("X", Union_(label_term("a", graph="T"), compose(Var("X"), label_term("b", graph="T")))),
    # One column, X(dst): reach with the antiprojection pushed.
    Fix("X", Union_(
        AntiProject(("src",), Filter(EqConst("src", 3), Rel("R"))),
        AntiProject(("m",), Join(Rename("dst", "m", Var("X")), Rename("src", "m", Rel("R")))),
    )),
    # X(src, m) joined with R(src, m) ⋈ S(m, dst) on two shared columns.
    Fix("X", Union_(Rel("S"), AntiProject(("m",), Join(
        Rename("dst", "m", Var("X")), Join(Rename("dst", "m", Rel("R")), Rename("src", "m", Rel("S")))
    )))),
]


@pytest.fixture(scope="module")
def t():
    g = np.random.default_rng(2)
    return pd.DataFrame({
        "src": g.integers(0, 20, 80),
        "label": g.choice(["a", "b", "c"], 80).astype(object),
        "dst": g.integers(0, 20, 80),
    }).drop_duplicates(ignore_index=True)


@pytest.mark.parametrize("term", TERMS, ids=[str(t)[:60] for t in TERMS])
def test_pandas_duckdb_agree(term, r, s, t):
    a = eval_pandas(term, {"R": r, "S": s, "T": t})
    b = eval_duckdb(term, {"R": r, "S": s, "T": t})
    assert set(a.columns) == set(b.columns)
    assert rows(a) == rows(b)


@pytest.mark.parametrize("n", [4, 32])
def test_constant_subterms_evaluated_once_per_loop(monkeypatch, n):
    """φ's constant subterms (a relation, a composition, a nested
    fixpoint) are evaluated once when the loop starts, however many
    iterations it runs."""
    reads, calls = Counter(), Counter()

    class Env(dict):
        def __getitem__(self, name):
            reads[name] += 1
            return super().__getitem__(name)

    def counted(name):
        fn = getattr(compiler_pandas, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(compiler_pandas, name, wrapper)

    counted("seminaive_loop")
    counted("set_difference")
    chain = pd.DataFrame({"src": range(n), "dst": range(1, n + 1)})
    far = pd.DataFrame({"src": [n + 5], "dst": [n + 6]})
    inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Rel("S"))))
    fix = Fix("X", Union_(Rel("R"), Union_(
        compose(Var("X"), compose(Rel("R"), Rel("R")), "m1"),
        compose(Var("X"), inner, "m2"),
    )))
    out = eval_pandas(fix, Env(R=chain, S=far))
    assert len(out) == sum((n - i + 1) // 2 for i in range(n))  # odd-length paths
    assert calls["set_difference"] >= n // 2  # iterations, inner loop included
    assert calls["seminaive_loop"] == 2
    assert reads == {"R": 3, "S": 2}


def test_fig2_example_pandas():
    fix = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("E"))))
    out = eval_pandas(fix, {"S": FIG2_S, "E": FIG2_E})
    assert sorted(map(tuple, out[["src", "dst"]].values.tolist())) == FIG2_FIXPOINT


def test_fig2_example_duckdb():
    fix = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("E"))))
    out = eval_duckdb(fix, {"S": FIG2_S, "E": FIG2_E})
    assert sorted(map(tuple, out[["src", "dst"]].values.tolist())) == FIG2_FIXPOINT


def cols(**columns):
    """A relation in the pandas engine's columnar form."""
    return {k: np.asarray(v) for k, v in columns.items()}


class TestPandasOps:
    def test_set_union_dedups(self):
        a = cols(x=[1, 2])
        b = cols(x=[2, 3])
        assert sorted(set_union(a, b)["x"]) == [1, 2, 3]

    def test_set_union_column_order(self):
        a = cols(x=[1], y=[2])
        b = cols(y=[5], x=[4])
        assert rows(frame(set_union(a, b))) == {(1, 2), (4, 5)}

    def test_set_difference(self):
        a = cols(x=[1, 2, 3])
        b = cols(x=[2])
        assert sorted(set_difference(a, b)["x"]) == [1, 3]

    def test_set_difference_empty_b(self):
        a = cols(x=[1, 1, 2])
        out = set_difference(a, cols(x=a["x"][:0]))
        assert sorted(out["x"]) == [1, 2]  # also dedups a

    def test_natural_join_shared(self):
        a = cols(k=[1, 2], u=[10, 20])
        b = cols(k=[2, 3], v=[200, 300])
        out = natural_join(a, b)
        assert rows(frame(out)) == {(2, 20, 200)}

    def test_natural_join_cross(self):
        a = cols(u=[1, 2])
        b = cols(v=[9])
        assert len(frame(natural_join(a, b))) == 2

    def test_anti_join(self):
        a = cols(k=[1, 2], u=[10, 20])
        b = cols(k=[2], w=[0])
        assert rows(frame(anti_join(a, b))) == {(1, 10)}

    def test_anti_join_no_shared_nonempty_right(self):
        a = cols(u=[1])
        b = cols(v=[2])
        assert frame(anti_join(a, b)).empty

    def test_dedup(self):
        assert len(frame(dedup(cols(x=[1, 1, 2])))) == 2


class TestSqlCompiler:
    def test_to_sql_rejects_fixpoint(self):
        with pytest.raises(SchemaError):
            to_sql(Fix("X", Union_(Rel("R"), compose(Var("X"), Rel("R")))), {"R": SD})

    def test_to_sql_string_constant_quoting(self, r):
        t = Filter(EqConst("label", "O'Brien"), Rel("T"))
        tri = pd.DataFrame({"src": [1], "label": ["O'Brien"], "dst": [2]})
        out = eval_duckdb(t, {"T": tri})
        assert len(out) == 1

    def test_evaluator_reuse(self, r, s):
        ev = DuckdbEvaluator({"R": r, "S": s})
        try:
            a = ev.evaluate(compose(Rel("R"), Rel("S")))
            b = ev.evaluate(Join(Rel("R"), Rel("S")))
            assert not a.empty or not b.empty or r.empty
        finally:
            ev.con.close()

    def test_nested_fixpoints(self, r, s):
        inner = Fix("Y", Union_(Rel("S"), compose(Var("Y"), Rel("R"))))
        outer = Fix("X", Union_(Rel("S"), compose(Var("X"), inner)))
        a = eval_pandas(outer, {"R": r, "S": s})
        b = eval_duckdb(outer, {"R": r, "S": s})
        assert rows(a) == rows(b)


# Small ids, plus ids at and past the packed key's 32-bit halves (2³¹,
# 2³²) and negative ones, where row keys fall back to a MultiIndex.
NODE = st.integers(0, 8) | st.sampled_from([2**31 - 1, 2**31, 2**32 - 1, 2**32, -1, -(2**31)])


@settings(max_examples=50, deadline=None)
@given(
    edges=st.lists(st.tuples(NODE, NODE), min_size=1, max_size=40),
    seeds=st.lists(st.tuples(NODE, NODE), min_size=1, max_size=10),
)
# Seeds pack, later deltas do not: X's keys switch to a MultiIndex.
@example(edges=[(1, 2**32), (2**32, -1), (-1, 1)], seeds=[(0, 1)])
# 2³² must not pack: (0, 2³²) would get the key of (1, 0).
@example(edges=[(5, 2**32)], seeds=[(1, 0), (0, 5)])
# a ≥ 2³¹ sets the sign bit of the packed key a << 32 | b.
@example(edges=[(2**32 - 1, 2**31), (2**31, 0), (0, 2**32 - 1)], seeds=[(2**31, 2**32 - 1)])
def test_fixpoint_pandas_matches_bruteforce(edges, seeds):
    """Property: semi-naive pandas fixpoint == brute-force closure."""
    e = pd.DataFrame(edges, columns=["src", "dst"]).drop_duplicates(ignore_index=True)
    s = pd.DataFrame(seeds, columns=["src", "dst"]).drop_duplicates(ignore_index=True)
    fix = Fix("X", Union_(Rel("S"), compose(Var("X"), Rel("E"))))
    out = eval_pandas(fix, {"S": s, "E": e})
    got = set(map(tuple, out[["src", "dst"]].values.tolist()))
    # brute force: S ∘ E^*
    est = set(map(tuple, e[["src", "dst"]].values.tolist()))
    total = set(map(tuple, s[["src", "dst"]].values.tolist()))
    for _ in range(100):
        nxt = {(a, d) for (a, b) in total for (c, d) in est if b == c}
        if nxt <= total:
            break
        total |= nxt
    assert got == total
