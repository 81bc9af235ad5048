"""The pandas semi-naive kernel's encodings: X as a bitmap over a dense
domain, as sorted packed keys or as a MultiIndex, and direct-address join
indexes. A differential test against independent references across the
dense budget, and unit tests that pin which encoding each input takes."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import compiler_pandas
from repro.core.compiler_pandas import DENSE_BITS, RowSet, _Index, eval_pandas
from repro.core.compiler_sql import eval_duckdb
from repro.core.queries import anbn_term, same_generation_term
from repro.core.reference import eval_rx_pairs
from repro.core.rpq import Label, Plus
from repro.core.terms import (
    AntiProject,
    EqConst,
    Filter,
    Fix,
    Join,
    Rel,
    Rename,
    Union_,
    Var,
    compose,
)
from repro.graphs.generators import erdos_renyi, random_tree


def budget_edge(k: int) -> int:
    """The largest radix r with r**k within DENSE_BITS: values up to r - 1
    keep k columns dense, a value of r does not."""
    r = round(DENSE_BITS ** (1 / k))
    while r**k > DENSE_BITS:
        r -= 1
    while (r + 1) ** k <= DENSE_BITS:
        r += 1
    return r


# Values on both sides of the budget for 1, 2 and 3 columns, past the
# packed keys' 32-bit halves and the sign bit, and negative ones.
WIDE = sorted(
    {v for k in (1, 2, 3) for v in (budget_edge(k) - 1, budget_edge(k))}
    | {2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**63, -1, -(2**31)}
)
DTYPES = [np.int32, np.int64, np.uint64]

TC = Fix("X", Union_(Rel("R"), compose(Var("X"), Rel("R"), "m0")))


def reach_from(v: int) -> Fix:
    """X(dst): nodes reachable from v, the antiprojection pushed."""
    return Fix("X", Union_(
        AntiProject(("src",), Filter(EqConst("src", v), Rel("R"))),
        AntiProject(("m",), Join(Rename("dst", "m", Var("X")), Rename("src", "m", Rel("R")))),
    ))


# X(src, dst, k): a path src →+ dst, and an edge src → k.
PATH_AND_EDGE = Fix("X", Union_(
    Join(Rel("R"), Rename("dst", "k", Rel("R"))),
    AntiProject(("m",), Join(Rename("dst", "m", Var("X")), Rename("src", "m", Rel("R")))),
))


@st.composite
def graphs(draw):
    """(edges frame, labelled triples frame) of one integer dtype, over a
    few nodes drawn from small and WIDE values."""
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    wide = [v for v in WIDE if info.min <= v <= info.max]
    pool = draw(st.lists(st.integers(0, 8) | st.sampled_from(wide), min_size=1, max_size=7, unique=True))
    node = st.sampled_from(pool)
    edges = draw(st.lists(st.tuples(node, st.sampled_from("ab"), node), max_size=25, unique=True))
    col = lambda i: np.array([e[i] for e in edges], dtype=dtype)  # noqa: E731
    r = pd.DataFrame({"src": col(0), "dst": col(2)}).drop_duplicates(ignore_index=True)
    g = pd.DataFrame({"src": col(0), "label": np.array([e[1] for e in edges], dtype=object), "dst": col(2)})
    return r, g


def rows(df: pd.DataFrame, cols: list[str]) -> set[tuple]:
    return set(map(tuple, df[cols].values.tolist()))


def closure(r: pd.DataFrame) -> set[tuple[int, int]]:
    triples = [(s, "e", d) for s, d in r[["src", "dst"]].values.tolist()]
    return eval_rx_pairs(Plus(Label("e")), triples)


@settings(max_examples=80, deadline=None)
@given(graphs())
@example((pd.DataFrame({"src": np.array([], np.int64), "dst": np.array([], np.int64)}), None))
def test_closures_match_reference(g):
    """X with 1, 2 and 3 columns against Python sets (reference.py)."""
    r, _ = g
    tc = closure(r)
    assert rows(eval_pandas(TC, {"R": r}), ["src", "dst"]) == tc
    for v in r["src"].tolist()[:2]:
        got = rows(eval_pandas(reach_from(v), {"R": r}), ["dst"])
        assert got == {(d,) for s, d in tc if s == v}
    edges = r[["src", "dst"]].values.tolist()
    want = {(s, d, k) for s, d in tc for s2, k in edges if s2 == s}
    assert rows(eval_pandas(PATH_AND_EDGE, {"R": r}), ["src", "dst", "k"]) == want


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_same_generation_and_anbn_match_duckdb(g):
    r, tri = g
    for term, env in ((same_generation_term("R"), {"R": r}), (anbn_term(), {"G": tri})):
        assert rows(eval_pandas(term, env), ["src", "dst"]) == rows(eval_duckdb(term, env), ["src", "dst"])


@pytest.fixture
def xsets(monkeypatch):
    """Every RowSet that the kernel builds while the test runs."""
    made = []

    class Recorded(RowSet):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(compiler_pandas, "RowSet", Recorded)
    return made


def parent_of(tree: pd.DataFrame) -> pd.DataFrame:
    return tree.rename(columns={"src": "dst", "dst": "src"})[["src", "dst"]]


@pytest.mark.parametrize("term, rel", [
    (TC, erdos_renyi(700, 0.01, seed=3)),
    (same_generation_term("R"), parent_of(random_tree(700, seed=3))),
    (TC, erdos_renyi(2000, 0.01, seed=1)),
], ids=["tc rnd_700", "sg tree_700", "tc rnd_2k"])
def test_bench_shapes_take_the_bitmap(xsets, term, rel):
    eval_pandas(term, {"R": rel})
    assert [x.encoding for x in xsets] == ["dense"]


def chain(top: int) -> pd.DataFrame:
    """A 3-edge path whose largest node is ``top``."""
    return pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, top]})


@pytest.mark.parametrize("term, k, wide", [
    (reach_from(0), 1, "sorted"),
    (TC, 2, "sorted"),
    (PATH_AND_EDGE, 3, "index"),
], ids=["1 column", "2 columns", "3 columns"])
def test_domain_over_budget_falls_back(xsets, term, k, wide):
    """Values up to the budget's edge keep X dense; one more does not, and
    the bitmap never exceeds DENSE_BITS."""
    top = budget_edge(k)
    eval_pandas(term, {"R": chain(top - 1)})
    eval_pandas(term, {"R": chain(top)})
    assert [x.encoding for x in xsets] == ["dense", wide]
    assert xsets[0].bits.nbytes * 8 <= DENSE_BITS


@pytest.mark.parametrize("rel, encoding", [
    (pd.DataFrame({"src": [0, 1], "dst": [1, -1]}), "index"),  # negative
    (pd.DataFrame({"src": [0.0, 1.0], "dst": [1.0, 2.0]}), "index"),  # float
    (pd.DataFrame({"src": np.array([0, 1], np.int32), "dst": np.array([1, 2], np.int32)}), "dense"),
    (pd.DataFrame({"src": np.array([0, 1], np.uint64), "dst": np.array([1, 2**63], np.uint64)}), "index"),
])
def test_encoding_follows_the_values(xsets, rel, encoding):
    out = eval_pandas(TC, {"R": rel})
    assert [x.encoding for x in xsets] == [encoding]
    assert rows(out, ["src", "dst"]) == closure(rel)
    assert out.dtypes.tolist() == rel.dtypes.tolist()


def test_bitmap_reencodes_for_a_non_integer_delta():
    x = RowSet({"a": np.array([1, 2])}, high=2)
    assert x.encoding == "dense"
    new = x.difference({"a": np.array([2, "x", "x"], dtype=object)})
    assert x.encoding == "index" and new["a"].tolist() == ["x"]
    x.add(new)
    assert len(x) == 3 and sorted(map(str, x.rows()["a"])) == ["1", "2", "x"]


def test_add_reuses_the_difference():
    """Rows that difference() returned are added without a second lookup;
    any other rows are looked up first."""
    for high in (9, None):  # dense, sorted
        x = RowSet({"a": np.array([5, 1])}, high=high)
        new = x.difference({"a": np.array([3, 1, 3, 7])})
        assert new["a"].tolist() == [3, 7]
        x.add(new)
        x.add({"a": np.array([7, 8])})
        assert len(x) == 5 and sorted(x.rows()["a"].tolist()) == [1, 3, 5, 7, 8]
        assert x.difference({"a": np.array([8, 9])})["a"].tolist() == [9]


def test_direct_address_index():
    small = _Index({"m": np.array([3, 0, 3, 5])}, ["m"])
    spread = _Index({"m": np.array([3, 0, 3, 10**6])}, ["m"])
    assert small.table is not None and spread.table is None
    probe = np.array([3, 4, -1, 6, 100, 5, 0])
    assert small.group_of({"m": probe}).tolist() == [3, -1, -1, -1, -1, 5, 0]
    big = np.array([2**63 + 3, 3], np.uint64)
    assert small.group_of({"m": big}).tolist() == [-1, 3]
    assert small.group_of({"m": np.array([3, "x"], dtype=object)}).tolist() == [3, -1]
    for index in (small, spread):
        i, j = index.probe({"m": np.array([3, 7, 0])})
        assert sorted(zip(i.tolist(), j.tolist())) == [(0, 0), (0, 2), (2, 1)]


def test_branch_duplicates_removed_once(monkeypatch):
    """The π̃ at the top of each branch of φ keeps its duplicates for the
    loop's set_difference, and eval_pandas adds no dedup of its own over a
    fixpoint: a closure deduplicates nowhere else."""
    deltas, dedups = [], []
    set_difference = compiler_pandas.set_difference
    dedup = compiler_pandas.dedup

    def spy_difference(a, b):
        deltas.append(len(next(iter(a.values()))) - len(dedup(a)["src"]))
        return set_difference(a, b)

    monkeypatch.setattr(compiler_pandas, "set_difference", spy_difference)
    monkeypatch.setattr(compiler_pandas, "dedup", lambda c: dedups.append(1) or dedup(c))
    diamond = pd.DataFrame({"src": [0, 0, 1, 2], "dst": [1, 2, 3, 3]})
    out = eval_pandas(TC, {"R": diamond})
    assert rows(out, ["src", "dst"]) == closure(diamond)
    assert max(deltas) > 0 and not dedups
