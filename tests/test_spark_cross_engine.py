"""The Spark compiler against the pandas and DuckDB engines: the same
rows for every term of the local agreement test, the column order the
DataFrame API gives, and σ constants that Spark SQL and DuckDB would
read differently as SQL literals."""
import pandas as pd
import pytest

from repro.core.compiler_pandas import eval_pandas
from repro.core.compiler_spark import eval_spark
from repro.core.compiler_sql import eval_duckdb
from repro.core.terms import AntiProject, EqConst, Filter, Join, Rel, Rename, Union_, compose, inverse
from tests.test_compilers_local import TERMS, r, rows, s, t  # noqa: F401 — fixtures

# Column lists in DataFrame-API order: a join's shared columns first,
# sorted, then the left side's others, then the right side's; a rename in
# place; an antiprojection drops its columns.
COLUMNS = {
    Join(Rel("R"), Rel("S")): ["dst", "src"],
    AntiProject(("src",), Rel("R")): ["dst"],
    Rename("src", "x", Rel("R")): ["x", "dst"],
    compose(Rel("R"), Rel("S")): ["src", "dst"],
    inverse(Rel("R")): ["dst", "src"],
    compose(inverse(Rel("R")), Rel("S")): ["src", "dst"],
}


@pytest.mark.parametrize("term", TERMS, ids=[str(t)[:60] for t in TERMS])
def test_spark_agrees_with_pandas(spark, term, r, s, t):  # noqa: F811
    tables = {"R": r, "S": s, "T": t}
    env = {name: spark.createDataFrame(df) for name, df in tables.items()}
    got = eval_spark(term, env, spark).toPandas()
    want = eval_pandas(term, tables)
    assert set(got.columns) == set(want.columns)
    assert not got.duplicated().any()
    assert rows(got) == rows(want)
    if term in COLUMNS:
        assert list(got.columns) == COLUMNS[term]


@pytest.mark.parametrize("value", ["O'Brien", "a\\b"])
def test_string_constants_read_alike_in_every_engine(spark, value):
    # Each decoy is what one engine would read from the value quoted into
    # SQL text: Spark SQL takes "\b" for a backspace.
    tri = pd.DataFrame({
        "src": [1, 2, 3, 4],
        "label": [value, "a\b", "O''Brien", "ab"],
        "dst": [5, 6, 7, 8],
    })
    term = Filter(EqConst("label", value), Rel("T"))
    spark_rows = rows(eval_spark(term, {"T": spark.createDataFrame(tri)}, spark).toPandas())
    assert spark_rows == rows(eval_duckdb(term, {"T": tri})) == rows(eval_pandas(term, {"T": tri}))
    assert spark_rows == {(5, value, 1)}


def test_constants_of_joined_union_branches_bind_to_their_filters(spark, t):  # noqa: F811
    # Shaped like Yago Q10: branches joining a slice pinned by a string
    # and an integer to one pinned by a string. Spark binds positional
    # markers out of text order here.
    def slice_(label, **pins):
        f = Filter(EqConst("label", label), Rel("T"))
        for col, v in pins.items():
            f = Filter(EqConst(col, v), f)
        return AntiProject(("label",), f)

    term = Union_(
        compose(slice_("a", dst=3), slice_("b")),
        compose(slice_("c", src=4), slice_("a")),
    )
    got = rows(eval_spark(term, {"T": spark.createDataFrame(t)}, spark).toPandas())
    want = rows(eval_pandas(term, {"T": t}))
    assert got == rows(eval_duckdb(term, {"T": t})) == want
